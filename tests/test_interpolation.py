"""Power function, greedy designs, width objectives."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import widthlab as wl
from widthlab.errors import DegenerateDesignError
from widthlab.interpolation import _coordinate_descent, _lp_norm, _solve_lower


INF = math.inf


class TestPowerFunction:
    def test_zero_at_design_points(self, bm_kernel):
        d = wl.design(bm_kernel, [0.3, 0.7])
        assert wl.power_values(d, 0.3)[0] == pytest.approx(0.0, abs=1e-7)

    def test_brownian_midpoint(self, bm_kernel):
        d = wl.design(bm_kernel, [1.0])
        assert wl.power_values(d, 0.5)[0] == pytest.approx(0.5, abs=1e-14)

    def test_brownian_extrapolation(self, bm_kernel):
        d = wl.design(bm_kernel, [0.8])
        assert wl.power_values(d, 1.0)[0] == pytest.approx(math.sqrt(0.2), abs=1e-14)

    def test_bounds(self, rng):
        for kid in ("brownian", "bridge", "matern32"):
            k = wl.make_kernel(kid)
            d = wl.design(k, np.sort(rng.random(5) * 0.8 + 0.1))
            grid = k.domain.grid(512)
            vals = wl.power_values(d, grid)
            assert np.all(vals >= 0)
            assert np.all(vals <= np.sqrt(np.maximum(k.diag(grid), 0)) + 1e-12)

    def test_nested_monotonicity(self, bm_kernel):
        cand = bm_kernel.domain.grid(1025)
        grid = bm_kernel.domain.grid(512)
        full = wl.greedy_design(bm_kernel, cand, 16)
        prev = wl.power_values(wl.design(bm_kernel, full.points[:2]), grid)
        for n in (4, 8, 16):
            cur = wl.power_values(wl.design(bm_kernel, full.points[:n]), grid)
            assert np.all(cur <= prev + 1e-10)
            prev = cur

    def test_empty_design_convention(self, bridge_kernel):
        d = wl.design(bridge_kernel, [])
        grid = bridge_kernel.domain.grid(64)
        np.testing.assert_allclose(
            wl.power_values(d, grid), np.sqrt(np.maximum(bridge_kernel.diag(grid), 0.0)), atol=1e-15
        )

    def test_profile_node_defect(self, bm_kernel):
        # power values at the design points vanish up to 1e-6 sqrt(k(x, x)) + 1e-12
        d = wl.design(bm_kernel, [0.25, 0.5, 1.0])
        bound = 1e-6 * np.sqrt(np.maximum(bm_kernel.diag(d.points), 0.0)) + 1e-12
        assert np.max(wl.power_values(d, d.points) - bound) <= 0.0


class TestGreedyDesign:
    def test_first_point_maximizes_diagonal(self, bm_kernel):
        d = wl.greedy_design(bm_kernel, bm_kernel.domain.grid(4097), 1)
        assert d.points[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_second_point_at_half(self, bm_kernel):
        # after D = (1.0): P^2(x) = x - x^2, maximized at x = 0.5
        d = wl.greedy_design(bm_kernel, bm_kernel.domain.grid(4097), 2)
        assert d.points[1, 0] == pytest.approx(0.5, abs=1e-12)

    def test_sup_path_nonincreasing(self, bridge_kernel):
        d = wl.greedy_design(bridge_kernel, bridge_kernel.domain.grid(1025), 32)
        path = d.greedy_sup_path
        assert path is not None and len(path) == 32
        assert np.all(np.diff(path) <= 1e-12)

    def test_sup_decreases_after_two(self, bm_kernel):
        d = wl.greedy_design(bm_kernel, bm_kernel.domain.grid(4097), 2)
        assert d.greedy_sup_path[1] < d.greedy_sup_path[0]

    def test_zero_points(self, bm_kernel):
        d = wl.greedy_design(bm_kernel, bm_kernel.domain.grid(65), 0)
        assert d.size == 0

    def test_too_many_points(self, bm_kernel):
        with pytest.raises(ValueError):
            wl.greedy_design(bm_kernel, bm_kernel.domain.grid(5), 6)

    def test_deterministic(self, bridge_kernel):
        cand = bridge_kernel.domain.grid(513)
        d1 = wl.greedy_design(bridge_kernel, cand, 10)
        d2 = wl.greedy_design(bridge_kernel, cand, 10)
        np.testing.assert_array_equal(d1.points, d2.points)


class TestInterpolationWidth:
    def test_uniform_grid_closed_form(self, bm_kernel, quad_2000):
        # on the grid (i/n) the sup of the power function is 1/(2 sqrt n)
        for n in (4, 16, 64):
            d = wl.uniform_design(bm_kernel, n)
            val = wl.interpolation_width(d, quad_2000, INF)
            assert val == pytest.approx(1.0 / (2.0 * math.sqrt(n)), abs=1e-4)

    def test_design_covering_grid_gives_zero(self, bm_kernel, quad_2000):
        grid = np.linspace(0.1, 1.0, 9)[:, None]
        d = wl.design(bm_kernel, grid)
        assert wl.interpolation_width(d, quad_2000, INF, eval_grid=grid) < 1e-6

    def test_monotone_in_p(self, bm_kernel, quad_2000):
        d = wl.uniform_design(bm_kernel, 8)
        v2 = wl.interpolation_width(d, quad_2000, 2.0)
        v4 = wl.interpolation_width(d, quad_2000, 4.0)
        vi = wl.interpolation_width(d, quad_2000, INF)
        assert v2 <= v4 + 1e-12 <= vi + 1e-9

    def test_invalid_p(self, bm_kernel, quad_2000):
        d = wl.uniform_design(bm_kernel, 4)
        with pytest.raises(ValueError):
            wl.interpolation_width(d, quad_2000, 1.5)

    def test_tail_lower_bound_never_violated(self, bm_analytic, bridge_analytic, quad_2000):
        # sqrt(tail(n)) <= sup-norm width value at any n-point design
        for kid, spectrum in (("brownian", bm_analytic), ("bridge", bridge_analytic)):
            k = wl.make_kernel(kid)
            cand = k.domain.grid(1025)
            full = wl.greedy_design(k, cand, 64)
            for n in (1, 2, 4, 8, 16, 32, 64):
                lower = math.sqrt(wl.tail_sum(spectrum, n))
                for d in (wl.design(k, full.points[:n]), wl.uniform_design(k, n)):
                    val = wl.interpolation_width(d, quad_2000, INF)
                    assert lower <= val + 1e-6, (kid, n, lower, val)


class TestOptimize:
    def test_single_point_optimum(self, bm_kernel, quad_2000):
        des, val = wl.optimize_interpolation_width(bm_kernel, quad_2000, INF, 1, strategy="multistart", seed=7)
        assert 0.44721 <= val <= 0.4473
        assert des.points[0, 0] == pytest.approx(0.8, abs=1e-3)

    def test_uniform_strategy_n4(self, bm_kernel, quad_2000):
        _, val = wl.optimize_interpolation_width(bm_kernel, quad_2000, INF, 4, strategy="uniform")
        assert val == pytest.approx(0.25, abs=1e-4)

    def test_multistart_dominates_uniform(self, bm_kernel, quad_2000):
        _, vu = wl.optimize_interpolation_width(bm_kernel, quad_2000, INF, 4, strategy="uniform")
        _, vm = wl.optimize_interpolation_width(bm_kernel, quad_2000, INF, 4, strategy="multistart", seed=3)
        assert vm <= vu + 1e-12

    def test_greedy_strategy(self, bm_kernel, quad_2000):
        des, val = wl.optimize_interpolation_width(bm_kernel, quad_2000, INF, 8, strategy="greedy")
        assert des.size == 8
        assert val == pytest.approx(1.0 / (2.0 * math.sqrt(8)), rel=1e-3)

    def test_unknown_strategy(self, bm_kernel, quad_2000):
        with pytest.raises(ValueError):
            wl.optimize_interpolation_width(bm_kernel, quad_2000, INF, 2, strategy="annealing")

    def test_n_zero_rejected(self, bm_kernel, quad_2000):
        with pytest.raises(ValueError):
            wl.optimize_interpolation_width(bm_kernel, quad_2000, INF, 0)

    @pytest.mark.parametrize("p", [1.0, 0.0])
    def test_p_below_two_rejected(self, bm_kernel, quad_2000, p):
        # the same check as interpolation_width, for every strategy
        with pytest.raises(ValueError, match="p must be in"):
            wl.optimize_interpolation_width(bm_kernel, quad_2000, p, 4, strategy="uniform")


def reference_descent(kernel, quad, p, start, points, diag, offsets=8):
    """Coordinate descent as it read before its trials reused cross-kernel rows and skipped `design`.

    Every trial builds its design and evaluates the full power function,
    solving with scipy's `solve_triangular` rather than the library's own
    triangular solve.
    """

    def objective(des):
        S = solve_triangular(des.chol, kernel.pairwise(des.points, points), lower=True)
        vals = np.sqrt(np.maximum(diag - np.einsum("ij,ij->j", S, S), 0.0))
        return float(vals.max()) if p == INF else float((quad.weights @ vals**p) ** (1.0 / p))

    def safe_objective(cand_pts):
        try:
            return objective(wl.design(kernel, cand_pts))
        except DegenerateDesignError:
            return math.inf

    lo, hi = np.asarray(kernel.domain.lo), np.asarray(kernel.domain.hi)
    span = float((hi - lo).max())
    pts = np.array(start, dtype=float, copy=True)
    m = pts.shape[0]  # a 2d uniform start can hold fewer than n points
    best = safe_objective(pts)
    radius = span / max(2.0 * m ** (1.0 / kernel.dim), 4.0)
    steps = np.concatenate([-np.linspace(1.0, 1.0 / offsets, offsets // 2), np.linspace(1.0 / offsets, 1.0, offsets // 2)])
    sweeps = 0
    while radius > 1e-6 * span and sweeps < 200:
        sweeps += 1
        improved = False
        for i in range(m):
            for ax in range(kernel.dim):
                base = pts[i, ax]
                for t in np.clip(base + radius * steps, lo[ax], hi[ax]):
                    if t == base:
                        continue
                    cand = pts.copy()
                    cand[i, ax] = t
                    val = safe_objective(cand)
                    if val < best * (1.0 - 1e-9):
                        best, pts = val, cand
                        improved = True
        if not improved:
            radius *= 0.5
    return wl.design(kernel, pts), best


def reference_multistart(kernel, quad, p, n, candidates, eval_grid, seed, restarts):
    """Multistart search over `reference_descent`."""
    points = eval_grid if p == INF else quad.nodes
    diag = kernel.diag(points)
    lo, hi = np.asarray(kernel.domain.lo), np.asarray(kernel.domain.hi)
    starts = [wl.uniform_design(kernel, n).points, wl.greedy_design(kernel, candidates, n).points]
    rng = np.random.default_rng(seed)
    starts += [lo + (hi - lo) * rng.random((n, kernel.dim)) for _ in range(restarts)]
    best_des, best_val = None, math.inf
    for start in starts:
        des, val = reference_descent(kernel, quad, p, start, points, diag)
        if val < best_val:
            best_des, best_val = des, val
    return best_des, best_val


class TestMultistartReference:
    """The descent's reused cross-kernel rows change no bit of the result."""

    @pytest.mark.parametrize(
        "kid,dim", [(kid, 1) for kid in wl.CATALOG_IDS] + [("matern32", 2), ("gaussian", 2)]
    )
    def test_equals_full_evaluation(self, kid, dim):
        kernel = wl.make_kernel(kid, dim=dim)
        per_axis = {1: (48, 65, 33), 2: (7, 9, 5)}[dim]
        quad = wl.midpoint_rule(kernel.domain, per_axis[0])
        eval_grid = kernel.domain.grid(per_axis[1], endpoint=True)
        candidates = kernel.domain.grid(per_axis[2], endpoint=True)
        for p in (2.0, INF):
            for n in (3, 5):
                des, val = wl.optimize_interpolation_width(
                    kernel, quad, p, n, strategy="multistart", candidates=candidates, eval_grid=eval_grid, seed=5, restarts=0
                )
                ref_des, ref_val = reference_multistart(kernel, quad, p, n, candidates, eval_grid, seed=5, restarts=0)
                assert np.array_equal(des.points, ref_des.points), (p, n)
                assert val == ref_val, (p, n)

    @pytest.mark.parametrize(
        "kid,start",
        [("matern32", [0.2, 0.5, 0.5, 0.8]), ("bridge", [0.0, 0.3, 0.6, 1.0])],
        ids=["duplicate_pair", "bridge_boundary"],
    )
    @pytest.mark.parametrize("p", [2.0, INF])
    def test_descent_equals_full_evaluation(self, kid, start, p):
        # a start with a duplicate pair scores inf, so its trials check every
        # point until one is accepted; the bridge kernel vanishes on the
        # boundary, so the start and the trials that keep a boundary point
        # factor only with jitter
        kernel = wl.make_kernel(kid)
        quad = wl.midpoint_rule(kernel.domain, 48)
        points = kernel.domain.grid(65, endpoint=True) if p == INF else quad.nodes
        diag = kernel.diag(points)
        start = np.array(start)[:, None]
        if kid == "bridge":
            assert wl.design(kernel, start).jitter > 0
        else:
            with pytest.raises(DegenerateDesignError):
                wl.design(kernel, start)
        des, val = _coordinate_descent(kernel, start, points, diag, _lp_norm(quad, p))
        ref_des, ref_val = reference_descent(kernel, quad, p, start, points, diag)
        assert np.array_equal(des.points, ref_des.points)
        assert val == ref_val
        assert des.jitter == ref_des.jitter


class TestSolveLower:
    """`_solve_lower` makes the LAPACK call of `solve_triangular(L, B, lower=True)`, so it returns the same bits."""

    @pytest.mark.parametrize("n", [1, 4, 8])
    @pytest.mark.parametrize("l_order", ["C", "F"])
    @pytest.mark.parametrize("b_order", ["C", "F"])
    def test_equals_solve_triangular(self, rng, n, l_order, b_order):
        kernel = wl.make_kernel("matern32")
        des = wl.design(kernel, np.sort(rng.random(n))[:, None])
        L = np.array(des.chol, order=l_order)
        B = np.array(kernel.pairwise(des.points, kernel.domain.grid(257)), order=b_order)
        assert np.array_equal(_solve_lower(L, B), solve_triangular(L, B, lower=True))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_jittered_factor(self, bridge_kernel, order):
        des = wl.design(bridge_kernel, [0.25, 0.5, 1.0])
        assert des.jitter > 0
        L = np.array(des.chol, order=order)
        B = bridge_kernel.pairwise(des.points, bridge_kernel.domain.grid(257))
        assert np.array_equal(_solve_lower(L, B), solve_triangular(L, B, lower=True))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_singular_factor_raises_alike(self, order):
        L = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.2, 0.3, 1.0]], order=order)
        B = np.ones((3, 2))
        with pytest.raises(np.linalg.LinAlgError) as ours:
            _solve_lower(L, B)
        with pytest.raises(np.linalg.LinAlgError) as theirs:
            solve_triangular(L, B, lower=True)
        assert str(ours.value) == str(theirs.value)


class TestDesignSet:
    def test_duplicate_points(self, bm_kernel):
        with pytest.raises(DegenerateDesignError):
            wl.design(bm_kernel, [0.5, 0.5])

    def test_jitter_recorded_for_singular_gram(self, bridge_kernel):
        # bridge kernel vanishes at the endpoints; including x = 1 gives a zero row
        d = wl.design(bridge_kernel, [0.5, 1.0])
        assert d.jitter > 0

    def test_clean_design_no_jitter(self, bm_kernel):
        d = wl.design(bm_kernel, [0.25, 0.5, 1.0])
        assert d.jitter == 0.0
