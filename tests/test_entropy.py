"""Diagonal-operator entropy brackets and the Carl check."""

import math

import numpy as np
import pytest

import widthlab as wl


class TestDiagEntropyBounds:
    def test_rank_one_exact(self):
        # sigma = (1, 0, 0, ...): e_n = 2^(1-n), interval covered by dyadic cells
        op = wl.DiagonalOperator(np.array([1.0, 0.0, 0.0, 0.0]))
        for n in range(1, 9):
            est = wl.diag_entropy_bounds(op, n)
            exact = 2.0 ** (1 - n)
            assert est.lower <= exact <= est.upper
            assert est.lower == pytest.approx(exact, rel=1e-12)
            assert est.upper == pytest.approx(exact, rel=1e-12)

    def test_first_index_is_norm(self):
        op = wl.DiagonalOperator(np.array([0.7, 0.3, 0.1]))
        est = wl.diag_entropy_bounds(op, 1)
        assert est.lower == pytest.approx(0.7, rel=1e-12)
        assert est.upper == pytest.approx(0.7, rel=1e-12)  # single ball of radius sigma_1

    def test_harmonic_slope(self):
        # sigma_i = 1/i: lower-bound decay exponent is -1 up to 0.1
        op = wl.DiagonalOperator(1.0 / np.arange(1.0, 513.0))
        ns = np.array([8, 16, 32, 64])
        lows = np.array([wl.diag_entropy_bounds(op, int(n)).lower for n in ns])
        slope = np.polyfit(np.log(ns), np.log(lows), 1)[0]
        assert abs(slope - (-1.0)) <= 0.1

    def test_bracket_and_monotone(self):
        op = wl.DiagonalOperator(1.0 / np.arange(1.0, 129.0) ** 1.5)
        prev_lower, prev_upper = math.inf, math.inf
        for n in range(1, 40):
            est = wl.diag_entropy_bounds(op, n)
            assert 0.0 <= est.lower <= est.upper
            assert est.lower <= prev_lower + 1e-15
            assert est.upper <= prev_upper + 1e-15
            prev_lower, prev_upper = est.lower, est.upper

    def test_all_zero(self):
        op = wl.DiagonalOperator(np.zeros(4))
        est = wl.diag_entropy_bounds(op, 3)
        assert (est.lower, est.upper) == (0.0, 0.0)

    def test_rejects_increasing_sigma(self):
        with pytest.raises(ValueError):
            wl.DiagonalOperator(np.array([0.1, 0.5]))


class TestCarlCheck:
    def test_constant_values(self):
        assert wl.carl_constant(1.0) == pytest.approx(6144.0, rel=1e-15)
        assert wl.carl_constant(2.0) == pytest.approx(128.0 * math.sqrt(40.0), rel=1e-15)

    def test_equal_sequences_ratio_one(self):
        vals = 1.0 / np.arange(1.0, 65.0)
        for p in (1.0, 2.0, 4.0):
            rep = wl.carl_check(vals, vals, p, 64)
            np.testing.assert_allclose(rep.ratios, 1.0, atol=1e-14)
            assert rep.ok

    def test_brownian_pair_no_flags(self, bm_analytic):
        sigma = np.sqrt(bm_analytic.eigenvalues)
        op = wl.DiagonalOperator(sigma)
        e_upper = np.array([wl.diag_entropy_bounds(op, k).upper for k in range(1, 65)])
        s_vals = np.sqrt(bm_analytic.eigenvalues[1:65])
        for p in (1.0, 2.0):
            rep = wl.carl_check(e_upper, s_vals, p, 64)
            assert rep.ok, rep.flagged

    def test_violation_detected_on_invalid_pair(self):
        # absurd input: entropy numbers 10^5 times larger than the s-numbers
        e = 1e5 / np.arange(1.0, 11.0)
        s = 1.0 / np.arange(1.0, 11.0) ** 3
        rep = wl.carl_check(e, s, 2.0, 10)
        assert not rep.ok

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            wl.carl_check(np.zeros(5), np.ones(5), 2.0, 5)

    def test_too_short(self):
        with pytest.raises(ValueError):
            wl.carl_check(np.ones(3), np.ones(3), 2.0, 5)


def _ref_dyadic_grid_upper(sigma, n):
    """The dyadic cover radius as the plain loop over a1, a2 (a3 = the rest)."""
    N = sigma.size
    best = float(sigma[0])
    budget = n - 1

    def tail2(k):
        return float(sigma[k] ** 2) if k < N else 0.0

    for a1 in range(budget + 1):
        best = min(best, math.sqrt((sigma[0] / 2.0**a1) ** 2 + tail2(1)))
        if N < 2:
            continue
        for a2 in range(budget - a1 + 1):
            r2 = (sigma[0] / 2.0**a1) ** 2 + (sigma[1] / 2.0**a2) ** 2 + tail2(2)
            best = min(best, math.sqrt(r2))
            if N < 3:
                continue
            a3 = budget - a1 - a2
            r2 = (sigma[0] / 2.0**a1) ** 2 + (sigma[1] / 2.0**a2) ** 2 + (sigma[2] / 2.0**a3) ** 2 + tail2(3)
            best = min(best, math.sqrt(r2))
    return best


class TestDyadicGridUpper:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 260])
    def test_matches_loop(self, rng, N):
        from widthlab.entropy import _dyadic_grid_upper

        sigmas = [
            1.0 / np.arange(1.0, N + 1.0) ** 1.5,
            np.sort(rng.random(N) ** 3 * 40.0)[::-1].copy(),
            np.sort(rng.random(N) * 1e-3)[::-1].copy(),
        ]
        for sigma in sigmas:
            for n in list(range(1, 34)) + [64, 128]:
                got = _dyadic_grid_upper(sigma, n)
                assert type(got) is float
                assert got == _ref_dyadic_grid_upper(sigma, n), (N, n)
