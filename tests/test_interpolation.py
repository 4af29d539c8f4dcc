"""Power function, greedy designs, width objectives."""

import csv
import dataclasses
import importlib.util
import math
import multiprocessing
import multiprocessing.pool
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import widthlab as wl
import widthlab.interpolation as interpolation
from widthlab import runner
from widthlab.config import p_label
from widthlab.errors import DegenerateDesignError
from widthlab.interpolation import _coordinate_descent, _objective, _solve_lower


INF = math.inf
ROOT = Path(__file__).resolve().parents[1]


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

    @pytest.mark.parametrize("kid,dim", [(kid, 1) for kid in wl.CATALOG_IDS] + [("matern32", 2), ("gaussian", 2)])
    def test_equals_hstack_reference(self, kid, dim):
        # the Newton basis grown by np.hstack on every step, as greedy_design once did
        kernel = wl.make_kernel(kid, dim=dim)
        cand = kernel.domain.grid({1: 1025, 2: 33}[dim], endpoint=True)
        p2 = np.maximum(kernel.diag(cand), 0.0)
        scale = float(p2.max())
        V = np.zeros((cand.shape[0], 0))
        chosen, sups = [], []
        for _ in range(24):
            i = int(np.argmax(p2))
            if p2[i] <= 1e-15 * max(scale, 1.0):
                break
            sups.append(math.sqrt(p2[i]))
            col = kernel.pairwise(cand, cand[i : i + 1])[:, 0]
            if V.shape[1]:
                col = col - V @ V[i, :]
            col = col / math.sqrt(p2[i])
            V = np.hstack([V, col[:, None]])
            p2 = np.maximum(p2 - col**2, 0.0)
            chosen.append(i)
        des = wl.greedy_design(kernel, cand, 24)
        assert np.array_equal(des.points, cand[chosen])
        assert np.array_equal(des.greedy_sup_path, np.asarray(sups))


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
        points, norm = _objective(kernel, quad, p, kernel.domain.grid(65, endpoint=True))
        diag = kernel.diag(points)
        start = np.array(start)[:, None]
        if kid == "bridge":
            assert wl.design(kernel, start).jitter > 0
        else:
            with pytest.raises(DegenerateDesignError):
                wl.design(kernel, start)
        pts, val = _coordinate_descent(kernel, start, points, diag, norm)
        ref_des, ref_val = reference_descent(kernel, quad, p, start, points, diag)
        assert np.array_equal(pts, ref_des.points)
        assert val == ref_val
        assert wl.design(kernel, pts).jitter == ref_des.jitter


def patched_kernel(base, patch):
    """`base` with its pairwise values edited in place by `patch(out, s, t)`, s and t the broadcast 1d coordinates."""

    def pairwise(a, b):
        out = base.pairwise(a, b)
        patch(out, a[:, :1], b[:, 0][None, :])
        return out

    return dataclasses.replace(base, name=f"patched-{base.name}", pairwise=pairwise)


def descent_and_reference(kernel, start, p):
    """`_coordinate_descent` and `reference_descent` from one 1d start, on a 48-node midpoint rule."""
    quad = wl.midpoint_rule(kernel.domain, 48)
    points, norm = _objective(kernel, quad, p, kernel.domain.grid(65, endpoint=True))
    diag = kernel.diag(points)
    start = np.array(start)[:, None]
    ours = _coordinate_descent(kernel, start, points, diag, norm)
    return ours, reference_descent(kernel, quad, p, start, points, diag)


class TestDescentBatch:
    """Each path of a coordinate's batch scoring gives the reference descent's result."""

    @staticmethod
    def assert_same(ours, ref):
        (pts, val), (ref_des, ref_val) = ours, ref
        assert np.array_equal(pts, ref_des.points)
        assert val == ref_val
        assert wl.design(ref_des.kernel, pts).jitter == ref_des.jitter

    @pytest.mark.parametrize("p", [2.0, INF])
    def test_one_trial_factors_only_with_jitter(self, monkeypatch, p):
        # the first point's trials clip onto 0, where the bridge kernel
        # vanishes: that trial factors only with jitter, the others cleanly
        kernel = wl.make_kernel("bridge")
        assert wl.design(kernel, [0.0, 0.4, 0.7]).jitter > 0
        assert wl.design(kernel, [0.05 - 0.25 / 6, 0.4, 0.7]).jitter == 0.0
        jitters = []
        cholesky = interpolation._cholesky

        def traced(K):
            L, jitter = cholesky(K)
            jitters.append(jitter)
            return L, jitter

        monkeypatch.setattr(interpolation, "_cholesky", traced)
        ours, ref = descent_and_reference(kernel, [0.05, 0.4, 0.7], p)
        assert 0.0 in jitters and any(j > 0 for j in jitters)
        self.assert_same(ours, ref)

    @pytest.mark.parametrize("p", [2.0, INF])
    def test_trial_on_another_design_point(self, monkeypatch, p):
        # with radius 1/8 the first trial of the second point, 0.25 - 0.125,
        # lands on the first point: it scores inf without a solve, though
        # its Gram matrix factors with jitter
        kernel = wl.make_kernel("matern32")
        assert 0.25 - 0.125 * 1.0 == 0.125
        dup = np.array([[0.125], [0.125], [0.5], [0.75]])
        assert interpolation._cholesky(kernel.pairwise(dup, dup))[1] > 0
        solved = []
        solve = interpolation._solve_lower
        monkeypatch.setattr(interpolation, "_solve_lower", lambda L, B: solved.append(B.copy()) or solve(L, B))
        self.assert_same(*descent_and_reference(kernel, [0.125, 0.25, 0.5, 0.75], p))
        # a cross-kernel block with two equal rows belongs to a design with a duplicate pair
        assert solved and all(len(np.unique(B, axis=0)) == len(B) for B in solved)

    @pytest.mark.parametrize("p", [2.0, INF])
    def test_clipped_duplicate_trials(self, p):
        # radius 1/6: three trials of the first point clip onto 0, three of the last onto 1
        kernel = wl.make_kernel("matern32")
        assert np.count_nonzero(0.05 + np.array([-1.0, -0.75, -0.5]) / 6 < 0.0) == 3
        self.assert_same(*descent_and_reference(kernel, [0.05, 0.5, 0.95], p))

    def test_nonfinite_cross_row_of_a_degenerate_trial(self):
        # a point at 0 has NaN kernel values against every quadrature node
        # and k(0, 0) = -1: the trials clipped onto 0 have a NaN cross row,
        # but a finite Gram matrix whose Cholesky fails even after jitter, so
        # they score inf and raise nothing
        quad = wl.midpoint_rule(wl.make_kernel("matern32").domain, 48)
        nodes = quad.nodes[:, 0]

        def patch(out, s, t):
            out[((s == 0.0) & np.isin(t, nodes)) | (np.isin(s, nodes) & (t == 0.0))] = np.nan
            out[(s == 0.0) & (t == 0.0)] = -1.0

        kernel = patched_kernel(wl.make_kernel("matern32"), patch)
        assert not np.isfinite(kernel.pairwise(np.zeros((1, 1)), quad.nodes)).any()
        with pytest.raises(DegenerateDesignError):
            wl.design(kernel, [0.0, 0.5, 0.95])
        self.assert_same(*descent_and_reference(kernel, [0.05, 0.5, 0.95], 2.0))

    def test_nonfinite_cross_row_raises(self):
        # a point moved past 0.9 has a NaN kernel value at the first
        # quadrature node but a finite Gram row: that trial's Cholesky
        # succeeds and it raises, as the reference's solve does
        y0 = wl.midpoint_rule(wl.make_kernel("matern32").domain, 48).nodes[0, 0]

        def patch(out, s, t):
            out[((s > 0.9) & (t == y0)) | ((t > 0.9) & (s == y0))] = np.nan

        kernel = patched_kernel(wl.make_kernel("matern32"), patch)
        assert wl.design(kernel, [0.2, 0.5, 0.8 + 0.75 / 6]).jitter == 0.0
        quad = wl.midpoint_rule(kernel.domain, 48)
        start = np.array([[0.2], [0.5], [0.8]])
        diag = kernel.diag(quad.nodes)
        with pytest.raises(ValueError, match="cross-kernel values"):
            _coordinate_descent(kernel, start, quad.nodes, diag, _objective(kernel, quad, 2.0, None)[1])
        with pytest.raises(ValueError):  # from the finiteness check of the reference's solve
            reference_descent(kernel, quad, 2.0, start, quad.nodes, diag)

    @pytest.mark.parametrize("start", [[0.2, 0.5, 0.8, 0.95], [0.2, 0.2, 0.92, 0.97]], ids=["trial", "others"])
    def test_nonfinite_gram_raises(self, start):
        # two distinct points past 0.9, none of them a quadrature node, have
        # a NaN kernel value; np.linalg.cholesky would return a NaN factor.
        # A trial moves the third point past 0.9, or, from a start with a
        # duplicate pair (which scores inf), keeps the last two points
        quad = wl.midpoint_rule(wl.make_kernel("matern32").domain, 48)
        nodes = quad.nodes[:, 0]

        def patch(out, s, t):
            out[(s > 0.9) & (t > 0.9) & (s != t) & ~np.isin(s, nodes) & ~np.isin(t, nodes)] = np.nan

        kernel = patched_kernel(wl.make_kernel("matern32"), patch)
        assert np.isnan(np.linalg.cholesky(kernel.pairwise(np.array([[0.92], [0.97]]), np.array([[0.92], [0.97]])))).any()
        with pytest.raises(ValueError, match="Gram matrix values"):
            wl.design(kernel, [0.2, 0.5, 0.92, 0.97])
        start = np.array(start)[:, None]
        diag = kernel.diag(quad.nodes)
        with pytest.raises(ValueError, match="Gram matrix values"):
            _coordinate_descent(kernel, start, quad.nodes, diag, _objective(kernel, quad, 2.0, None)[1])
        with pytest.raises(ValueError, match="Gram matrix values"):
            reference_descent(kernel, quad, 2.0, start, quad.nodes, diag)

    def test_no_design_solved_twice(self, monkeypatch):
        # the reference scores some designs more than once; the descent solves each once
        kernel = wl.make_kernel("matern32")
        scored = []
        design = wl.design
        monkeypatch.setattr(wl, "design", lambda k, pts: scored.append(np.asarray(pts).tobytes()) or design(k, pts))
        solved = []
        solve = interpolation._solve_lower
        monkeypatch.setattr(interpolation, "_solve_lower", lambda L, B: solved.append(B.tobytes()) or solve(L, B))
        ours, ref = descent_and_reference(kernel, [0.05, 0.5, 0.95], 2.0)
        self.assert_same(ours, ref)
        assert len(set(scored)) < len(scored)
        assert len(set(solved)) == len(solved) > 0


class TestDefaultGrids:
    """The grids a library call leaves out are the config's defaults, from `DEFAULT_POINTS`."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_equal_the_config_defaults(self, monkeypatch, dim):
        cfg = wl.parse_config(f"[kernel]\nid = matern32\ndim = {dim}\n")
        kernel = cfg.kernel()
        seen = {}
        greedy, power = interpolation.greedy_design, interpolation.power_values
        monkeypatch.setattr(interpolation, "greedy_design", lambda k, cand, n: seen.setdefault("candidates", len(cand)) and greedy(k, cand, n))
        monkeypatch.setattr(interpolation, "power_values", lambda des, pts: seen.setdefault("eval", len(pts)) and power(des, pts))
        wl.optimize_interpolation_width(kernel, wl.midpoint_rule(kernel.domain, 8), INF, 4, strategy="greedy")
        assert seen == {"candidates": cfg.candidate_points**dim, "eval": cfg.eval_points**dim}
        # 64 candidates per axis in 2d, where the library used to take 129
        assert seen["candidates"] == {1: 4097, 2: 64**2}[dim]

    def test_three_dimensions_pass_their_grids(self):
        kernel = wl.make_kernel("matern32", dim=3)
        quad = wl.midpoint_rule(kernel.domain, 4)
        grid = kernel.domain.grid(5, endpoint=True)
        with pytest.raises(ValueError, match="^candidates: no default grid in 3 dimensions"):
            wl.optimize_interpolation_width(kernel, quad, INF, 2)
        with pytest.raises(ValueError, match="^eval_grid: no default grid in 3 dimensions"):
            wl.optimize_interpolation_width(kernel, quad, INF, 2, candidates=grid)
        des, val = wl.optimize_interpolation_width(kernel, quad, INF, 2, candidates=grid, eval_grid=grid)
        assert val == wl.interpolation_width(des, quad, INF, eval_grid=grid)
        with pytest.raises(ValueError, match="^eval_grid: no default grid in 3 dimensions"):
            wl.interpolation_width(des, quad, INF)

    def test_uniform_reads_no_candidates(self):
        # the uniform strategy needs no candidate grid, so it runs in 3d without one
        kernel = wl.make_kernel("matern32", dim=3)
        quad = wl.midpoint_rule(kernel.domain, 4)
        grid = kernel.domain.grid(5, endpoint=True)
        des, val = wl.optimize_interpolation_width(kernel, quad, 2.0, 8, strategy="uniform", eval_grid=grid)
        assert val == wl.interpolation_width(wl.uniform_design(kernel, 8), quad, 2.0, eval_grid=grid)
        np.testing.assert_array_equal(des.points, wl.uniform_design(kernel, 8).points)


class TestMultistartPool:
    """The descents of a multistart cell run on forked processes, with the serial result."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Pretend the process may run on `k` CPUs; a descent in the parent process raises when k > 1."""
        parent = os.getpid()
        descent = interpolation._coordinate_descent

        def set_cpus(k):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))

            def traced(*args, **kwargs):
                if k > 1 and os.getpid() == parent:
                    raise AssertionError("descent ran in the parent process")
                return descent(*args, **kwargs)

            monkeypatch.setattr(interpolation, "_coordinate_descent", traced)

        yield set_cpus
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("kid", ["bridge", "matern32"])
    def test_equals_full_evaluation(self, cpus, kid, k):
        cpus(k)
        kernel = wl.make_kernel(kid)
        quad = wl.midpoint_rule(kernel.domain, 48)
        eval_grid = kernel.domain.grid(65, endpoint=True)
        candidates = kernel.domain.grid(33, endpoint=True)
        for p in (2.0, INF):
            args = (kernel, quad, p, 5)
            kwargs = dict(candidates=candidates, eval_grid=eval_grid, seed=5, restarts=2)
            des, val = wl.optimize_interpolation_width(*args, strategy="multistart", **kwargs)
            ref_des, ref_val = reference_multistart(*args, **kwargs)
            assert np.array_equal(des.points, ref_des.points), p
            assert val == ref_val, p
            assert des.jitter == ref_des.jitter, p

    @staticmethod
    def small_cell() -> tuple[np.ndarray, float]:
        """The points and value of a small matern32 multistart cell."""
        kernel = wl.make_kernel("matern32")
        quad = wl.midpoint_rule(kernel.domain, 48)
        des, val = wl.optimize_interpolation_width(kernel, quad, 2.0, 3, strategy="multistart", candidates=kernel.domain.grid(33, endpoint=True))
        return des.points, val

    def test_in_a_pool_worker(self, cpus):
        # a pool worker may not start processes of its own, so the cell runs its descents there in turn
        cpus(2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            points, val = pool.apply(self.small_cell)
        # the pool's handler threads can outlive its block for a moment, and
        # with a second thread the reference cell would run its descents here
        deadline = time.monotonic() + 5.0
        while interpolation._thread_count() != 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        ref_points, ref_val = self.small_cell()
        assert np.array_equal(points, ref_points)
        assert val == ref_val

    def test_back_to_back_cells_keep_their_processes(self, cpus):
        # the pool's handler threads are listed for a moment after its block;
        # a cell waits for them to go, so the next cell finds one thread
        cpus(2)
        kernel = wl.make_kernel("matern32")
        quad = wl.midpoint_rule(kernel.domain, 24)
        candidates = kernel.domain.grid(17, endpoint=True)
        for _ in range(20):
            descents = []
            for _ in range(2):
                des, _ = wl.optimize_interpolation_width(kernel, quad, 2.0, 2, strategy="multistart", candidates=candidates)
                assert interpolation._thread_count() in (None, 1)
                descents.append(des.descents)
            assert descents == ["2 processes"] * 2

    def test_waits_for_the_pool_threads_to_go(self, cpus, monkeypatch):
        # the same, made deterministic: the joined handler threads stay
        # listed for the next three reads of the thread count
        cpus(2)
        lingering = []
        exit_pool = multiprocessing.pool.Pool.__exit__

        def exit_and_linger(pool, *exc):
            lingering.extend([3, 3, 2])
            return exit_pool(pool, *exc)

        count = interpolation._thread_count
        monkeypatch.setattr(multiprocessing.pool.Pool, "__exit__", exit_and_linger)
        monkeypatch.setattr(interpolation, "_thread_count", lambda: lingering.pop(0) if lingering else count())
        kernel = wl.make_kernel("matern32")
        quad = wl.midpoint_rule(kernel.domain, 24)
        for _ in range(2):
            des, _ = wl.optimize_interpolation_width(kernel, quad, 2.0, 2, strategy="multistart", candidates=kernel.domain.grid(17, endpoint=True))
            assert des.descents == "2 processes"
            assert lingering == []

    def test_worker_error_reaches_caller(self, cpus):
        # the uniform start's last point, 1, has an infinite kernel value at
        # the first quadrature node, so that descent raises in its worker
        cpus(2)
        quad = wl.midpoint_rule(wl.make_kernel("matern32").domain, 48)
        y0 = quad.nodes[0, 0]

        def patch(out, s, t):
            out[((s > 0.9) & (t == y0)) | ((t > 0.9) & (s == y0))] = np.inf

        kernel = patched_kernel(wl.make_kernel("matern32"), patch)
        with pytest.raises(ValueError) as err:
            wl.optimize_interpolation_width(kernel, quad, 2.0, 3, strategy="multistart", candidates=kernel.domain.grid(33, endpoint=True))
        assert type(err.value) is ValueError
        assert str(err.value) == interpolation._NONFINITE_CROSS


def test_design_search_multistart_matches_goldens():
    # the multistart cells of the design_search benchmark, at the goldens'
    # seed, against their golden values: a descent that drifts by one ulp fails
    spec = importlib.util.spec_from_file_location("workload_pass", ROOT / "benchmarks" / "workload_pass.py")
    workload_pass = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload_pass)
    cfg = wl.parse_config(workload_pass.config_text("design_search", workload_pass.DEFAULT_SEED))
    with open(ROOT / "benchmarks" / "goldens" / "design_search" / "widths.csv", newline="") as f:
        golden = {(row["n"], row["p"]): row["value"] for row in csv.DictReader(f) if row["method"] == "multistart"}
    kernel = runner.kernel_from_config(cfg)
    quad = runner.quad_from_config(cfg, kernel)
    # the grids and arguments of runner.stage_widths and runner._multistart_cell
    eval_grid = kernel.domain.grid(cfg.eval_points, endpoint=True)
    candidates = kernel.domain.grid(cfg.candidate_points, endpoint=True)
    values = {}
    for p in cfg.get("widths", "p_values"):
        for n in cfg.get("widths", "n_grid"):
            _, val = wl.optimize_interpolation_width(
                kernel,
                quad,
                p,
                n,
                strategy="multistart",
                candidates=candidates,
                eval_grid=eval_grid,
                seed=cfg.get("run", "seed"),
            )
            values[(str(n), p_label(p))] = runner.fmt(val)
    assert len(golden) == 2
    assert values == golden


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
