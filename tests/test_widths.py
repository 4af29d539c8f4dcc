"""Width bounds, curve invariants, verdict rules."""

import math

import numpy as np
import pytest

import widthlab as wl
from widthlab.asymptotics import SlopeReport
from widthlab.errors import ChainViolationError


INF = math.inf


class TestL2Widths:
    def test_brownian_n1(self, bm_analytic):
        assert wl.l2_widths(bm_analytic, 1) == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-14)

    def test_boundary_n0_is_embedding_norm(self, bm_analytic):
        assert wl.l2_widths(bm_analytic, 0) == pytest.approx(math.sqrt(bm_analytic.eigenvalues[0]), rel=1e-15)

    def test_bridge_n1(self, bridge_analytic):
        assert wl.l2_widths(bridge_analytic, 1) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_index_out_of_range(self, bm_analytic):
        with pytest.raises(IndexError):
            wl.l2_widths(bm_analytic, 260)


class TestLinfKolmogorovLower:
    def test_unit_mass(self, bm_analytic):
        assert wl.linf_kolmogorov_lower(bm_analytic, 1.0, 1) == pytest.approx(0.2122065907891938, abs=1e-12)

    def test_mass_scaling(self, bm_analytic):
        v1 = wl.linf_kolmogorov_lower(bm_analytic, 1.0, 1)
        v4 = wl.linf_kolmogorov_lower(bm_analytic, 4.0, 1)
        assert v4 == pytest.approx(v1 / 2.0, rel=1e-14)
        assert v4 == pytest.approx(0.10610, abs=5e-6)

    def test_n0(self, bm_analytic):
        assert wl.linf_kolmogorov_lower(bm_analytic, 1.0, 0) == pytest.approx(
            math.sqrt(bm_analytic.eigenvalues[0]), rel=1e-15
        )

    def test_bad_mass(self, bm_analytic):
        with pytest.raises(ValueError):
            wl.linf_kolmogorov_lower(bm_analytic, 0.0, 1)


class TestInterpTailLower:
    def test_n1(self, bm_analytic):
        got = wl.interp_linf_lower_tail(bm_analytic, 1.0, 1, trace=0.5)
        assert got == pytest.approx(0.30775845306124233, abs=1e-12)

    def test_n4_consistent_with_uniform_upper(self, bm_analytic):
        got = wl.interp_linf_lower_tail(bm_analytic, 1.0, 4, trace=0.5)
        assert got == pytest.approx(0.15874861209306645, abs=1e-12)
        assert got <= 0.25  # the uniform 4-point upper bound

    def test_n0_full_trace(self, bm_analytic):
        assert wl.interp_linf_lower_tail(bm_analytic, 1.0, 0, trace=0.5) == pytest.approx(
            math.sqrt(0.5), rel=1e-14
        )


class TestMercerProjectionUpper:
    """The Mercer projection upper bound on a_n(H -> L_inf), i.e. the sup-norm
    envelope ``mercer_envelope_sup2``, on an 8-mode closed-form Brownian spectrum.

    Eight resolved modes leave most of the trace unresolved, so every
    value below depends on the tail entering through k(x, x).
    """

    @pytest.fixture(scope="class")
    def envelope(self, bm_kernel, quad_2000):
        spectrum = wl.analytic_spectrum("brownian", 8, quad_2000)
        grid = bm_kernel.domain.grid(4097, endpoint=True)
        return spectrum, grid, np.sqrt(wl.mercer_envelope_sup2(spectrum, bm_kernel, grid, 7))

    def test_diag_corrected_envelope(self, envelope):
        # the tail enters through k(x, x), so the bound is certified from below
        spectrum, _, env = envelope
        for n in range(8):
            assert env[n] >= wl.interp_linf_lower_tail(spectrum, 1.0, n), n

    def test_n0_sup_close_to_diag_sup(self, envelope, bm_kernel):
        _, grid, env = envelope
        assert env[0] == math.sqrt(bm_kernel.diag(grid).max())

    def test_pinf_bounded_by_uniform_eigenfunction_bound(self, envelope):
        # |e_i| <= sqrt(2) for the sine system, so envelope <= sqrt(2 tail)
        spectrum, _, env = envelope
        for n in range(8):
            assert env[n] <= math.sqrt(2.0 * wl.tail_sum(spectrum, n)) + 1e-9, n


class TestWidthRow:
    def test_chain_violation_detected(self):
        rows = [wl.WidthRow("d_Lp_lower", 4, "lower", 0.5, "a", "inf"), wl.WidthRow("d_Lp_lower", 4, "upper", 0.4, "b", "inf")]
        with pytest.raises(ChainViolationError):
            wl.validate_chain(rows)

    def test_monotonicity_enforced(self):
        rows = [wl.WidthRow("I_Lp_upper", 4, "upper", 0.25, "greedy", "2"), wl.WidthRow("I_Lp_upper", 8, "upper", 0.30, "greedy", "2")]
        with pytest.raises(ChainViolationError):
            wl.validate_chain(rows)

    def test_valid_curve_passes(self):
        rows = [
            wl.WidthRow("I_Lp_upper", 4, "upper", 0.25, "greedy", "2"),
            wl.WidthRow("I_Lp_upper", 8, "upper", 0.20, "greedy", "2"),
            wl.WidthRow("I_Lp_upper", 4, "lower", 0.10, "tail", "2"),
        ]
        wl.validate_chain(rows)
        s = wl.rate_series(rows, "I_Lp_upper", "I-L2[greedy]", kind="upper", method="greedy")
        np.testing.assert_array_equal(s.ns, [4, 8])

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            wl.WidthRow("q_width", 4, "upper", 0.25, "greedy", "2")


def _row(scale_id, value, kind, method="m", p="inf", n=4):
    return wl.WidthRow(scale_id, n, kind, value, method, p)


class TestValidateChain:
    """Each cross-scale rule of the width chain, and the two tolerances."""

    def test_kolmogorov_lower_above_sup_interpolation_upper(self):
        rows = [_row("d_Lp_lower", 0.3, "lower"), _row("I_Lp_upper", 0.25, "upper", "greedy")]
        with pytest.raises(ChainViolationError, match=r"^d_Lp_lower\[n=4\] = 0.3 exceeds I_Lp_upper\[greedy-pinf, n=4\] = 0.25$"):
            wl.validate_chain(rows)

    def test_tail_lower_above_sup_interpolation_upper(self):
        rows = [_row("I_Linf_lower_tail", 0.3, "lower", "trace-tail"), _row("I_Lp_upper", 0.25, "upper", "greedy")]
        with pytest.raises(ChainViolationError, match=r"^I_Linf_lower_tail\[n=4\] = 0.3 exceeds I_Lp_upper\[greedy-pinf, n=4\]"):
            wl.validate_chain(rows)

    def test_kolmogorov_lower_above_mercer_upper(self):
        rows = [_row("d_Lp_lower", 0.3, "lower"), _row("a_Lp_upper", 0.25, "upper", "mercer-projection")]
        with pytest.raises(ChainViolationError, match=r"^d_Lp_lower\[n=4\] = 0.3 exceeds a_Lp_upper\[mercer, n=4\] = 0.25$"):
            wl.validate_chain(rows)

    def test_l2_interpolation_upper_not_compared(self):
        rows = [_row("d_Lp_lower", 0.3, "lower"), _row("I_Linf_lower_tail", 0.3, "lower"), _row("I_Lp_upper", 0.25, "upper", "greedy", "2")]
        wl.validate_chain(rows)

    def test_cross_scale_slack(self):
        for upper in (_row("I_Lp_upper", 0.25, "upper", "greedy"), _row("a_Lp_upper", 0.25, "upper")):
            wl.validate_chain([_row("d_Lp_lower", 0.25 + 5e-7, "lower"), _row("I_Linf_lower_tail", 0.25 + 5e-7, "lower"), upper])

    def test_same_scale_tolerance(self):
        with pytest.raises(ChainViolationError, match=r"lower 0.25 \(m\) exceeds upper 0.25 \(m\)"):
            wl.validate_chain([_row("e_diag_est", 0.25 + 2e-9, "lower", p="2"), _row("e_diag_est", 0.25, "upper", p="2")])
        rising = [_row("I_Lp_upper", 0.25, "upper", "greedy", n=4), _row("I_Lp_upper", 0.25 + 2e-9, "upper", "greedy", n=8)]
        with pytest.raises(ChainViolationError, match="method greedy-pinf: value rises"):
            wl.validate_chain(rising)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            _row("d_L2", 0.25, "median")


def _report(slope, stderr, label="r"):
    return SlopeReport(slope, 0.0, stderr, (4, 64), label=label, n_points=5)


class TestRateTransferVerdict:
    def test_certified_example(self):
        v = wl.rate_transfer_verdict(_report(-1.00, 0.05), _report(-1.02, 0.07), INF, 1.0)
        assert v.certified
        assert "extension" in v.claim  # sup-norm branch noted

    def test_alpha_out_of_range(self):
        v = wl.rate_transfer_verdict(_report(-0.3, 0.01), _report(-0.3, 0.01), 2.0, 10.0 / 3.0)
        assert v.status == "hypothesis-violation"

    def test_alpha_boundary_accepted(self):
        v = wl.rate_transfer_verdict(_report(-1.0 / 1.9999, 0.05), _report(-1.0 / 1.9999, 0.05), 2.0, 1.9999)
        assert v.certified

    def test_disjoint_intervals_inconclusive(self):
        v = wl.rate_transfer_verdict(_report(-0.95, 0.01), _report(-1.05, 0.01), 2.0, 1.0)
        assert v.status == "inconclusive"
        assert "disjoint" in v.detail

    def test_failed_premise_named(self):
        v = wl.rate_transfer_verdict(_report(-1.0, 0.01), _report(-0.5, 0.01), 2.0, 1.0)
        assert v.status == "inconclusive"
        assert "slope" in v.detail

    def test_pure_function(self):
        a, b = _report(-1.0, 0.05), _report(-1.0, 0.05)
        v1 = wl.rate_transfer_verdict(a, b, 2.0, 1.0)
        v2 = wl.rate_transfer_verdict(a, b, 2.0, 1.0)
        assert v1 == v2


class TestWidthGapVerdict:
    def test_brownian_alpha_one(self):
        v = wl.width_gap_verdict(_report(-1.0, 0.03, "e-L2"), _report(-0.98, 0.05, "e-Linf"), 1.0)
        assert v.certified
        assert "n^(-1/1 + 1/2)" in v.claim

    def test_record_shape(self):
        v = wl.width_gap_verdict(_report(-1.0, 0.03), _report(-1.0, 0.03), 1.0)
        rec = v.to_record()
        assert set(rec) == {"claim", "status", "detail", "observed_constant", "premises"}
        assert len(rec["premises"]) == 2
