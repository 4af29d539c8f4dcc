"""Nystrom spectra against closed forms, tail sums, quadrature rules."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import widthlab as wl
from widthlab import spectral
from widthlab.errors import InsufficientResolutionError, InsufficientTailError, NoAnalyticSpectrumError
from widthlab.lapack import flapack
from widthlab.spectral import ClampedTailWarning


TILE = spectral.NYSTROM_TILE  # nodes per tile of the Nystrom matrix build


def bm_lambda(i):
    return 4.0 / ((2 * i - 1) ** 2 * math.pi**2)


def bridge_lambda(i):
    return 1.0 / (math.pi**2 * i**2)


def dsyevd_spectrum(kernel, quad, n_eigs):
    """Eigenvalues and node values of the Nystrom matrix from the full dsyevd, in nystrom_spectrum's order and signs."""
    sw = np.sqrt(quad.weights)
    A = kernel.pairwise(quad.nodes, quad.nodes) * sw[:, None] * sw
    lam, U = scipy.linalg.eigh((A + A.T) * 0.5, driver="evd")
    order = np.argsort(lam)[::-1][:n_eigs]
    V = U[:, order] / sw[:, None]
    return np.maximum(lam[order], 0.0), V * np.where(V[0] < 0, -1.0, 1.0)


class TestQuadrature:
    def test_weights_sum_to_volume(self):
        box = wl.Box((0.0, 0.0), (2.0, 1.0))
        q = wl.midpoint_rule(box, 16)
        assert q.mass == pytest.approx(2.0, abs=1e-12)
        assert np.all(q.weights > 0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            wl.QuadratureRule(np.array([[0.5]]), np.array([-1.0]))

    def test_rejects_bad_mass(self):
        box = wl.unit_interval()
        with pytest.raises(ValueError):
            wl.QuadratureRule(np.array([[0.5]]), np.array([0.5]), box=box)


class TestNystrom:
    def test_brownian_eigenvalues(self, bm_nystrom):
        for i in range(1, 21):
            exact = bm_lambda(i)
            assert abs(bm_nystrom.eigenvalues[i - 1] - exact) / exact < 1e-3

    def test_brownian_lambda1_value(self, bm_nystrom):
        assert bm_nystrom.eigenvalues[0] == pytest.approx(0.405285, rel=1e-3)

    def test_bridge_eigenvalues(self, bridge_nystrom):
        for i in range(1, 21):
            exact = bridge_lambda(i)
            assert abs(bridge_nystrom.eigenvalues[i - 1] - exact) / exact < 1e-3

    def test_bridge_lambda2_value(self, bridge_nystrom):
        assert bridge_nystrom.eigenvalues[1] == pytest.approx(1.0 / (4 * math.pi**2), rel=1e-3)

    def test_discrete_trace_bound(self, bm_nystrom, bm_kernel, quad_2000):
        total = bm_nystrom.eigenvalues.sum()
        assert total <= wl.trace_integral(bm_kernel, quad_2000) + 1e-6

    def test_orthonormality(self, bm_nystrom, bridge_nystrom):
        assert bm_nystrom.orthonormality_defect() < 1e-8
        assert bridge_nystrom.orthonormality_defect() < 1e-8

    def test_ordered_nonnegative(self, bm_nystrom):
        lam = bm_nystrom.eigenvalues
        assert np.all(lam >= 0)
        assert np.all(np.diff(lam) <= 1e-12)

    def test_deterministic(self, bm_kernel, quad_2000, bm_nystrom):
        again = wl.nystrom_spectrum(bm_kernel, quad_2000, 200)
        np.testing.assert_array_equal(again.eigenvalues, bm_nystrom.eigenvalues)
        np.testing.assert_array_equal(again.eigvec_node_values, bm_nystrom.eigvec_node_values)

    def test_eigensolver_memory(self):
        # the eigensolver works in the matrix's own buffer: beside the n x n
        # matrix only dstevd's eigenvectors and work array, n^2 doubles each,
        # are left (5.2 n^2 when numpy's eigh copied the matrix and returned
        # a new one)
        n = 1536
        code = (
            "import resource, widthlab as wl\n"
            "k = wl.make_kernel('matern32')\n"
            "wl.nystrom_spectrum(k, wl.midpoint_rule(k.domain, 64), 8)\n"
            f"quad = wl.midpoint_rule(k.domain, {n})\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "wl.nystrom_spectrum(k, quad, 200)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        )
        src = str(Path(wl.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        growth = int(out.stdout) * (1 if sys.platform == "darwin" else 1024)  # ru_maxrss is in KiB on Linux
        assert growth < 4 * n * n * 8

    @pytest.mark.parametrize(
        "dim,points,n_eigs,columns",
        [(1, 2000, 260, 272), (1, 240, 80, 192), (2, 16, 80, 208), (1, 256, 256, 256), (1, 100, 4, 100)],
    )
    def test_back_transform_keeps_dsyevd_bits(self, monkeypatch, dim, points, n_eigs, columns):
        # only the last columns are back-transformed, in a block at least 192
        # wide that starts on a multiple of 24 (all of them on a small matrix
        # or with every eigenvalue kept), and the kept ones have the full
        # dsyevd's bits; the first case is the design_search matrix, and the
        # golden gate holds the 4096-node matern2d_gap one to them
        kernel = wl.make_kernel("matern32", dim=dim)
        quad = wl.midpoint_rule(kernel.domain, points)
        widths = []
        dormqr = flapack.dormqr

        def recording(side, trans, a, tau, c, lwork, **kwargs):
            widths.append(c.shape[1])
            return dormqr(side, trans, a, tau, c, lwork, **kwargs)

        monkeypatch.setattr(flapack, "dormqr", recording)
        got = wl.nystrom_spectrum(kernel, quad, n_eigs)
        assert widths == [columns, columns]  # the workspace query and the call
        lam, V = dsyevd_spectrum(kernel, quad, n_eigs)
        np.testing.assert_array_equal(got.eigenvalues, lam)
        np.testing.assert_array_equal(got.eigvec_node_values, V)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_matrix_raises(self, bm_kernel, bad):
        # the finiteness check that scipy.linalg.eigh makes before dsyevd, on
        # one entry k(x_r, x_c): in the first tile, in an off-diagonal tile
        # pair on either side of the diagonal, and in a later diagonal tile
        for nodes, r, c in ((16, 3, 5), (TILE + 100, TILE + 50, 20), (TILE + 100, 20, TILE + 50), (TILE + 100, TILE + 50, TILE + 30)):
            quad = wl.midpoint_rule(bm_kernel.domain, nodes)
            x, y = quad.nodes[r, 0], quad.nodes[c, 0]

            def pairwise(a, b):
                K = bm_kernel.pairwise(a, b)
                K[np.ix_(a[:, 0] == x, b[:, 0] == y)] = bad
                return K

            kernel = dataclasses.replace(bm_kernel, pairwise=pairwise)
            with pytest.raises(ValueError, match="must not contain infs or NaNs"):
                wl.nystrom_spectrum(kernel, quad, 4)

    def test_insufficient_resolution(self, bm_kernel):
        q = wl.midpoint_rule(bm_kernel.domain, 10)
        with pytest.raises(InsufficientResolutionError):
            wl.nystrom_spectrum(bm_kernel, q, 11)

    def test_doubling_convergence_catalog(self):
        # doubling the rule moves each of the top 20 eigenvalues by < 0.5%;
        # modes below the float64 noise floor (gaussian decays past 1e-16
        # by i ~ 18) are excluded, relative error is undefined there
        for kid in wl.CATALOG_IDS:
            k = wl.make_kernel(kid)
            lam1 = wl.nystrom_spectrum(k, wl.midpoint_rule(k.domain, 1000), 20).eigenvalues
            lam2 = wl.nystrom_spectrum(k, wl.midpoint_rule(k.domain, 2000), 20).eigenvalues
            keep = lam2 > 1e-12 * lam2[0]
            rel = np.abs(lam1[keep] - lam2[keep]) / lam2[keep]
            assert rel.max() < 5e-3, f"{kid}: {rel.max()}"


def _uneven_rule(rng, size):
    """A rule on [0, 1] with random nodes and non-uniform weights."""
    nodes = np.sort(rng.random(size))[:, None]
    weights = rng.random(size) + 0.5
    return wl.QuadratureRule(nodes, weights / weights.sum(), box=wl.unit_interval())


# kernel and rule of each case, named by the kernel id first: non-uniform
# weights make A asymmetric, and the build does not take it to be symmetric
BUILD_CASES = {
    "brownian-uneven-weights": lambda rng: (wl.make_kernel("brownian"), _uneven_rule(rng, TILE + 44)),
    "bridge-uneven-weights": lambda rng: (wl.make_kernel("bridge"), _uneven_rule(rng, TILE + 44)),
    "brownian_int-uneven-weights": lambda rng: (wl.make_kernel("brownian_int"), _uneven_rule(rng, TILE + 44)),
    "matern12-uneven-weights": lambda rng: (wl.make_kernel("matern12"), _uneven_rule(rng, TILE + 44)),
    "matern32-2d": lambda rng: (wl.make_kernel("matern32", dim=2, length_scale=0.4), wl.midpoint_rule(wl.Box((0.0, 0.0), (1.0, 1.0)), 17)),
    "gaussian-3d": lambda rng: (wl.make_kernel("gaussian", dim=3, length_scale=0.5), wl.midpoint_rule(wl.Box((0.0,) * 3, (1.0,) * 3), 7)),
}


class TestTilePairBuild:
    """nystrom_spectrum hands dsytrd the lower triangle of the whole-matrix expression, bit for bit."""

    @staticmethod
    def assert_handed_whole_matrix(monkeypatch, kernel, quad):
        handed = []
        dsytrd = flapack.dsytrd

        def recording(a, *args, **kwargs):
            handed.append((np.array(a), a.flags.f_contiguous))  # a copy: dsytrd overwrites a
            return dsytrd(a, *args, **kwargs)

        monkeypatch.setattr(flapack, "dsytrd", recording)
        wl.nystrom_spectrum(kernel, quad, 1)
        [(got, fortran)] = handed
        assert fortran  # the wrapper takes the buffer without a copy
        sw = np.sqrt(quad.weights)
        A = kernel.pairwise(quad.nodes, quad.nodes)
        A *= sw[:, None]
        A *= sw
        assert np.array_equal(np.tril(got), np.tril(0.5 * (A + A.T)))

    @pytest.mark.parametrize("nodes", [1, 17, TILE - 1, TILE + 1, TILE + 44, 2 * TILE + 1])
    def test_node_counts_off_the_tile(self, monkeypatch, nodes):
        kernel = wl.make_kernel("matern32")
        self.assert_handed_whole_matrix(monkeypatch, kernel, wl.midpoint_rule(kernel.domain, nodes))

    @pytest.mark.parametrize("case", sorted(BUILD_CASES))
    def test_kernels_and_rules(self, monkeypatch, rng, case):
        self.assert_handed_whole_matrix(monkeypatch, *BUILD_CASES[case](rng))

    def test_cases_cover_the_catalog(self):
        # every kernel is built tile by tile, so every catalog kernel needs a case
        assert {case.split("-")[0] for case in BUILD_CASES} == set(wl.CATALOG_IDS)


class TestAnalyticSpectrum:
    def test_brownian_values(self, bm_analytic):
        assert bm_analytic.eigenvalues[0] == pytest.approx(0.405285, abs=5e-7)
        i = np.arange(1, 261)
        np.testing.assert_allclose(bm_analytic.eigenvalues, 4 / ((2 * i - 1) ** 2 * np.pi**2), rtol=1e-15)

    def test_bridge_values(self, bridge_analytic):
        assert bridge_analytic.eigenvalues[0] == pytest.approx(1.0 / math.pi**2, rel=1e-12)

    def test_trace_identity_partial_sums(self):
        lam = wl.analytic_eigenvalues("brownian", 10**6)
        assert abs(lam.sum() - 0.5) < 1e-6

    def test_exact_traces(self):
        assert wl.analytic_trace("brownian") == 0.5
        assert wl.analytic_trace("bridge") == pytest.approx(1 / 6, rel=1e-15)

    def test_unknown_kernel(self):
        with pytest.raises(NoAnalyticSpectrumError):
            wl.analytic_spectrum("matern32", 10)

    def test_closed_form_off_its_box(self):
        # tabulating the [0, 1] eigenfunctions on [0, 2] gave "exact" rows for
        # another operator, with an orthonormality defect of 1.0
        quad = wl.midpoint_rule(wl.Box((0.0,), (2.0,)), 200)
        with pytest.raises(NoAnalyticSpectrumError, match=r"\[0, 1\] only"):
            wl.analytic_spectrum("brownian", 10, quad)
        assert not wl.has_analytic_spectrum("brownian", quad.box)
        assert wl.has_analytic_spectrum("bridge", wl.unit_interval())
        assert not wl.has_analytic_spectrum("matern32", wl.unit_interval())

    def test_default_rule_is_the_config_default(self):
        quad = wl.analytic_spectrum("brownian", 4).quad
        assert (quad.box, quad.size) == (wl.unit_interval(), wl.parse_config("[kernel]\nid = brownian\n").get("quadrature", "points_per_axis"))

    def test_matches_nystrom(self, bm_nystrom, bridge_nystrom, bm_analytic, bridge_analytic):
        for nys, ana in ((bm_nystrom, bm_analytic), (bridge_nystrom, bridge_analytic)):
            rel = np.abs(nys.eigenvalues[:20] - ana.eigenvalues[:20]) / ana.eigenvalues[:20]
            assert rel.max() < 1e-3

    def test_basis_orthonormal(self, bm_analytic, quad_2000):
        V = bm_analytic.basis(quad_2000.nodes)[:, :50]
        G = V.T @ (quad_2000.weights[:, None] * V)
        assert np.abs(G - np.eye(50)).max() < 1e-8

    @pytest.mark.parametrize("kernel_id", ["brownian", "bridge"])
    def test_extend_evaluates_only_the_modes_asked_for(self, kernel_id, monkeypatch):
        # the envelope reads 64 of 260 modes: the closed form evaluates those
        # 64 only, and their values are the leading columns of all 260, bit for bit
        lam_fn, basis_fn, trace = spectral._ANALYTIC_REGISTRY[kernel_id]
        asked = []

        def recording(X, n):
            asked.append(n)
            return basis_fn(X, n)

        monkeypatch.setitem(spectral._ANALYTIC_REGISTRY, kernel_id, (lam_fn, recording, trace))
        spectrum = wl.analytic_spectrum(kernel_id, 260)
        X = np.linspace(0.0, 1.0, 4097)[:, None]
        full = spectrum.extend(None, X)
        for m in (1, 7, 63, 64, 65, 100, 259):
            for rows in (slice(None), slice(0, 1), slice(5, 18), slice(1001, 3048)):
                asked.clear()
                assert spectrum.extend(None, X[rows], m).tobytes() == full[rows, :m].tobytes(), (m, rows)
                assert asked == [m]


class TestTailSum:
    def test_full_trace(self, bm_analytic):
        assert wl.tail_sum(bm_analytic, 0, trace=0.5) == 0.5

    def test_n1(self, bm_analytic):
        expected = 0.5 - bm_lambda(1)
        assert wl.tail_sum(bm_analytic, 1, trace=0.5) == pytest.approx(expected, abs=1e-15)
        assert wl.tail_sum(bm_analytic, 1, trace=0.5) == pytest.approx(0.0947152654306489, abs=1e-12)

    def test_n4(self, bm_analytic):
        expected = 0.5 - sum(bm_lambda(i) for i in range(1, 5))
        got = wl.tail_sum(bm_analytic, 4, trace=0.5)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.0252011218414749, abs=1e-12)

    def test_uses_carried_trace(self, bm_analytic):
        assert wl.tail_sum(bm_analytic, 1) == wl.tail_sum(bm_analytic, 1, trace=0.5)

    def test_consistency_with_head(self, bm_analytic):
        for n in range(0, 40):
            diff = wl.tail_sum(bm_analytic, n) - wl.tail_sum(bm_analytic, n + 1)
            assert diff == pytest.approx(bm_analytic.eigenvalues[n], abs=1e-12)

    def test_nonincreasing(self, bridge_analytic):
        vals = [wl.tail_sum(bridge_analytic, n) for n in range(0, 100)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_resolved_only_without_trace(self, bm_nystrom):
        got = wl.tail_sum(bm_nystrom, 10)
        assert got == pytest.approx(bm_nystrom.eigenvalues[10:].sum(), rel=1e-12)

    def test_insufficient_tail(self, bm_nystrom):
        with pytest.raises(InsufficientTailError):
            wl.tail_sum(bm_nystrom, 500)

    def test_clamping_warns(self, bm_analytic):
        with pytest.warns(ClampedTailWarning):
            v = wl.tail_sum(bm_analytic, 260, trace=0.49)  # trace below the resolved head
        assert v == 0.0

    def test_nystrom_extension_matches_analytic(self, bm_nystrom, bm_kernel, bm_analytic):
        x = np.linspace(0.05, 0.95, 7)[:, None]
        ext = bm_nystrom.extend(bm_kernel, x, n_modes=5)
        exact = bm_analytic.basis(x)[:, :5]
        # sign convention: first node value positive, matching the sine branch
        np.testing.assert_allclose(ext, exact, atol=5e-4)
