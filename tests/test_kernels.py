"""Kernel catalog, Gram matrices, traces, and Mercer expansions."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import widthlab as wl
from widthlab import kernels
from widthlab.errors import DegenerateDesignError, DomainError


class TestEvalKernel:
    def test_brownian_min(self, bm_kernel):
        assert wl.eval_kernel(bm_kernel, 0.3, 0.7) == 0.3

    def test_bridge_center(self, bridge_kernel):
        assert wl.eval_kernel(bridge_kernel, 0.5, 0.5) == 0.25

    def test_matern32_zero_distance(self):
        k = wl.make_kernel("matern32", length_scale=0.2)
        assert wl.eval_kernel(k, 0.4, 0.4) == 1.0

    def test_integrated_brownian_closed_form(self):
        k = wl.make_kernel("brownian_int")
        s, t = 0.3, 0.8
        assert wl.eval_kernel(k, s, t) == pytest.approx(s * s * t / 2 - s**3 / 6, abs=1e-15)

    def test_domain_error(self, bm_kernel):
        with pytest.raises(DomainError):
            wl.eval_kernel(bm_kernel, 1.5, 0.5)

    def test_symmetry_random_pairs(self, rng):
        for kid in wl.CATALOG_IDS:
            k = wl.make_kernel(kid)
            x = rng.random(1000)
            y = rng.random(1000)
            a = np.array([wl.eval_kernel(k, xi, yi) for xi, yi in zip(x[:50], y[:50])])
            b = np.array([wl.eval_kernel(k, yi, xi) for xi, yi in zip(x[:50], y[:50])])
            assert np.array_equal(a, b)
            # vectorized check over the full 1000 pairs
            K1 = k.pairwise(x[:, None], y[:, None])
            K2 = k.pairwise(y[:, None], x[:, None]).T
            assert np.array_equal(K1, K2)

    def test_diagonal_matches_pairwise(self, rng):
        for kid in wl.CATALOG_IDS:
            k = wl.make_kernel(kid)
            x = rng.random((64, 1))
            d1 = k.diag(x)
            d2 = np.array([wl.eval_kernel(k, xi, xi) for xi in x])
            np.testing.assert_allclose(d1, d2, rtol=0, atol=1e-15)


class TestGramMatrix:
    def test_single_point(self, bm_kernel):
        K = wl.gram_matrix(bm_kernel, [1.0])
        np.testing.assert_array_equal(K, [[1.0]])

    def test_two_points_elementwise(self, bm_kernel):
        K = wl.gram_matrix(bm_kernel, [0.5, 1.0])
        np.testing.assert_array_equal(K, [[0.5, 0.5], [0.5, 1.0]])

    def test_bridge_single(self, bridge_kernel):
        K = wl.gram_matrix(bridge_kernel, [0.5])
        np.testing.assert_array_equal(K, [[0.25]])

    def test_duplicate_points_rejected(self, bm_kernel):
        with pytest.raises(DegenerateDesignError):
            wl.gram_matrix(bm_kernel, [0.5, 0.5])

    def test_random_designs_psd(self, rng):
        for kid in wl.CATALOG_IDS:
            k = wl.make_kernel(kid)
            for n in (5, 20, 50):
                pts = rng.random((n, 1))
                K = wl.gram_matrix(k, pts)
                assert np.array_equal(K, K.T)
                eigs = np.linalg.eigvalsh(K)
                norm = np.linalg.norm(K, 2)
                assert eigs.min() >= -1e-10 * norm


# every entry point that takes a point array, on the brownian kernel; `fx` looks up a fixture
POINT_ENTRIES = {
    "power_values": lambda fx, x: wl.power_values(wl.design(fx("bm_kernel"), [0.25, 0.5, 1.0]), x),
    "interpolation_width": lambda fx, x: wl.interpolation_width(wl.design(fx("bm_kernel"), [0.25, 0.5, 1.0]), fx("quad_2000"), math.inf, eval_grid=x),
    "Kernel.diag": lambda fx, x: fx("bm_kernel").diag(x),
    "greedy_design": lambda fx, x: wl.greedy_design(fx("bm_kernel"), x, 4).points,
    "extend-analytic": lambda fx, x: fx("bm_analytic").extend(None, x, 8),
    "extend-nystrom": lambda fx, x: fx("bm_nystrom").extend(fx("bm_kernel"), x, 8),
}


class TestPointRule:
    """Every entry point reads a point array by one rule, `kernels._as_points`."""

    @pytest.mark.parametrize("entry", sorted(POINT_ENTRIES))
    def test_scalars_are_a_column(self, request, entry):
        # a 1-d array of m scalars in 1d is m points, as its column is
        x = np.linspace(0.0, 1.0, 101)
        call = POINT_ENTRIES[entry]
        assert np.array_equal(call(request.getfixturevalue, x), call(request.getfixturevalue, x[:, None]))

    def test_other_column_counts_raise(self):
        k2 = wl.make_kernel("matern32", dim=2)
        assert wl.design(k2, []).points.shape == (0, 2)
        des = wl.design(k2, [[0.2, 0.3], [0.7, 0.6]])
        with pytest.raises(DomainError, match="points have dimension 3"):
            wl.power_values(des, [[0.1, 0.2, 0.3]])
        with pytest.raises(DomainError, match="points have dimension 4"):
            wl.design(k2, [[0.1, 0.2, 0.3, 0.4]])


class TestTraceIntegral:
    def test_brownian(self, bm_kernel, quad_2000):
        assert wl.trace_integral(bm_kernel, quad_2000) == pytest.approx(0.5, abs=1e-12)

    def test_bridge(self, bridge_kernel, quad_2000):
        assert wl.trace_integral(bridge_kernel, quad_2000) == pytest.approx(1.0 / 6.0, abs=1e-6)

    def test_matern_2d_unit_mass(self):
        k = wl.make_kernel("matern32", dim=2, length_scale=0.4)
        q = wl.midpoint_rule(k.domain, 64)
        assert wl.trace_integral(k, q) == pytest.approx(1.0, abs=1e-12)


class TestMercerExpansion:
    def test_orthonormality(self, bm_analytic):
        assert bm_analytic.orthonormality_defect() < 1e-8

    def test_nystrom_reproduces_brownian(self, bm_nystrom, bm_kernel):
        # sum_{i <= 200} lambda_i e_i(s) e_i(y), the modes through the Nystrom extension formula
        tail = wl.tail_sum(bm_nystrom, 200, trace=wl.analytic_trace("brownian"))
        lam = bm_nystrom.eigenvalues[:200]
        for s, t in np.random.default_rng(42).random((25, 2)):
            es = bm_nystrom.extend(bm_kernel, s, 200)[0]
            for y in (s, t):
                value = float(np.sum(lam * es * bm_nystrom.extend(bm_kernel, y, 200)[0]))
                assert abs(value - wl.eval_kernel(bm_kernel, s, y)) <= 2.0 * tail

    def test_rejects_increasing_eigenvalues(self, bm_analytic):
        lam = np.array([0.1, 0.5])
        with pytest.raises(ValueError):
            wl.SpectrumEstimate(lam, np.ones((bm_analytic.quad.size, 2)), bm_analytic.quad, source="analytic")


# the kernel layer works in place on one distance buffer; these are the
# plain broadcast expressions it must reproduce bit for bit
def _ref_sqdist(a, b):
    return np.maximum(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1), 0.0)


def _ref_matern32(a, b, ell):
    r = np.sqrt(3.0 * _ref_sqdist(a, b)) / ell
    return (1.0 + r) * np.exp(-r)


def _ref_brownian_int(a, b, ell):
    lo = np.minimum(a[:, 0][:, None], b[:, 0][None, :])
    hi = np.maximum(a[:, 0][:, None], b[:, 0][None, :])
    return lo * lo * hi / 2.0 - lo**3 / 6.0


# the 1d kernels take no length scale
_REF_PAIRWISE = {
    "brownian": lambda a, b, ell: np.minimum(a[:, 0][:, None], b[:, 0][None, :]),
    "bridge": lambda a, b, ell: np.minimum(a[:, 0][:, None], b[:, 0][None, :]) - a[:, 0][:, None] * b[:, 0][None, :],
    "brownian_int": _ref_brownian_int,
    "matern12": lambda a, b, ell: np.exp(-np.sqrt(_ref_sqdist(a, b)) / ell),
    "matern32": _ref_matern32,
    "gaussian": lambda a, b, ell: np.exp(-_ref_sqdist(a, b) / (2.0 * ell * ell)),
}
# every catalog kernel in 1d, the stationary ones in 2d too
_REF_CASES = [(kid, 1) for kid in sorted(_REF_PAIRWISE)] + [(kid, 2) for kid in sorted(_REF_PAIRWISE) if kid not in kernels.ONE_DIM_IDS]


def _point_sets(rng, dim):
    """Random points and the box corners; b also repeats 40 points of a."""
    a = rng.random((301, dim))
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * dim)).reshape(dim, -1).T
    b = np.vstack([rng.random((157, dim)), a[:40], corners])
    return np.vstack([a, corners]), b


class TestBitExactKernelLayer:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_sqdist_matches_broadcast(self, rng, dim):
        from widthlab.kernels import _sqdist

        a, b = _point_sets(rng, dim)
        for x, y in ((a, b), (b, a), (a[:1], b), (a, b[5:6]), (np.asfortranarray(a), b)):
            assert np.array_equal(_sqdist(x, y), _ref_sqdist(x, y))

    @pytest.mark.parametrize("kid,dim", _REF_CASES)
    def test_pairwise_matches_reference(self, rng, kid, dim):
        a, b = _point_sets(rng, dim)
        for ell in (0.3, 0.05, 2.0):
            k = wl.make_kernel(kid, dim=dim, length_scale=ell)
            ref = _REF_PAIRWISE[kid](a, b, ell)
            assert np.array_equal(k.pairwise(a, b), ref)
            assert np.array_equal(k.pairwise(b, a), _REF_PAIRWISE[kid](b, a, ell))

    @pytest.mark.parametrize("kid,dim", _REF_CASES)
    def test_row_blocks_match_reference(self, rng, kid, dim):
        # a row block holds BLOCK_ENTRIES // len(b) rows of a; each row count
        # around it, and a b of one row, whose block is BLOCK_ENTRIES rows
        _, b = _point_sets(rng, dim)
        k = wl.make_kernel(kid, dim=dim, length_scale=0.2)
        for cols in (b, b[7:8]):
            block = kernels.BLOCK_ENTRIES // cols.shape[0]
            for rows in (0, 1, block - 1, block, block + 1, 2 * block + 3):
                a = rng.random((rows, dim))
                got = k.pairwise(a, cols)
                assert got.shape == (rows, cols.shape[0])
                assert np.array_equal(got, _REF_PAIRWISE[kid](a, cols, 0.2)), rows

    @pytest.mark.parametrize("kid", wl.CATALOG_IDS)
    def test_pairwise_returns_a_fresh_array(self, rng, kid):
        # the caller owns the result: writing into it changes no later call
        k = wl.make_kernel(kid)
        a, b = _point_sets(rng, 1)
        first = k.pairwise(a, b)
        first[:] = np.nan
        second = k.pairwise(a, b)
        assert not np.shares_memory(first, second)
        assert np.array_equal(second, _REF_PAIRWISE[kid](a, b, 0.3))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_nystrom_and_extend_match_reference(self, rng, dim):
        k = wl.make_kernel("matern32", dim=dim, length_scale=0.2)
        quad = wl.midpoint_rule(k.domain, 240 if dim == 1 else 16)
        est = wl.nystrom_spectrum(k, quad, 30)

        K = _REF_PAIRWISE["matern32"](quad.nodes, quad.nodes, 0.2)
        sw = np.sqrt(quad.weights)
        A = sw[:, None] * K * sw[None, :]
        A = 0.5 * (A + A.T)
        lam_all, U = np.linalg.eigh(A)
        order = np.argsort(lam_all)[::-1][:30]
        V = U[:, order] / sw[:, None]
        V = V * np.where(V[0, :] < 0, -1.0, 1.0)[None, :]
        assert np.array_equal(est.eigenvalues, np.maximum(lam_all[order], 0.0))
        assert np.array_equal(est.eigvec_node_values, V)

        x, _ = _point_sets(rng, dim)
        lam = est.eigenvalues
        cut = lam > 1e-14 * max(lam[0], 1.0)
        ref = np.zeros((x.shape[0], 30))
        Kxn = _REF_PAIRWISE["matern32"](x, quad.nodes, 0.2)
        ref[:, cut] = (Kxn * quad.weights[None, :]) @ est.eigvec_node_values[:, cut] / lam[cut]
        assert np.array_equal(est.extend(k, x), ref)


def _ref_mercer_envelope_sup(spectrum, kernel, grid, ns):
    """The envelope loop that extends every resolved mode, kept as the reference."""
    best = {n: 0.0 for n in ns}
    step = 2048
    for i in range(0, grid.shape[0], step):
        blk = grid[i : i + step]
        V = spectrum.extend(kernel, blk)
        lam = spectrum.eigenvalues[: V.shape[1]]
        heads = np.cumsum(V**2 * lam[None, :], axis=1)
        diag = kernel.diag(blk)
        for n in ns:
            head = np.zeros(blk.shape[0]) if n == 0 else heads[:, n - 1]
            env2 = np.maximum(diag - head, 0.0)
            best[n] = max(best[n], float(env2.max()))
    return {n: math.sqrt(v) for n, v in best.items()}


class TestBitExactMercerEnvelope:
    """Extending only the modes the head sums read leaves every envelope value unchanged."""

    @pytest.mark.parametrize(
        "kid,dim,nodes,eval_points,n_eigs",
        [("matern32", 1, 400, 5000, 120), ("matern32", 2, 24, 48, 150), ("brownian", 1, 2000, 4097, 260)],
    )
    def test_truncated_extension_matches_all_modes(self, kid, dim, nodes, eval_points, n_eigs):
        k = wl.make_kernel(kid, dim=dim, length_scale=0.2)
        quad = wl.midpoint_rule(k.domain, nodes)
        est = wl.analytic_spectrum(kid, n_eigs, quad) if kid == "brownian" else wl.nystrom_spectrum(k, quad, n_eigs)
        # both grids cross the 2048-point chunk boundary
        grid = k.domain.grid(eval_points, endpoint=True)
        for n_max in (16, 64):
            ref = _ref_mercer_envelope_sup(est, k, grid, list(range(n_max + 1)))
            sup2 = wl.mercer_envelope_sup2(est, k, grid, n_max)
            assert [math.sqrt(v) for v in sup2] == [ref[n] for n in range(n_max + 1)]


@pytest.mark.parametrize(
    "module",
    [
        # set-up time and memory on every run; the squared distances are computed without it
        "scipy.spatial",
        # about 0.25 s and 20 MB, mostly the numpy submodules below that its
        # array-API shim loads; `widthlab.lapack` loads its `_flapack` alone
        "scipy.linalg",
        # about 0.10 s
        "numpy.f2py",
        # about 0.08 s
        "numpy.testing",
    ],
)
def test_import_leaves_module_unloaded(module):
    src = str(Path(wl.__file__).resolve().parents[1])
    code = f"import sys, widthlab.runner, widthlab.cli; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
