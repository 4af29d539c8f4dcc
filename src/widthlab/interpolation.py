"""Kernel interpolation: power function, greedy designs, width objectives.

For a design D = (x_1, ..., x_n) with Gram matrix K and (k_x)_i =
k(x, x_i), the power function

    P(x)^2 = k(x, x) - k_x^T K^{-1} k_x

is the worst-case pointwise error of kernel interpolation at D over the
unit ball of the native space, so the L_p norm of P is the value of the
p-width objective at D. The width itself is an infimum over designs;
here it is approximated from above by uniform grids, power-function
greedy selection, and coordinate-descent refinement.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DegenerateDesignError
from .kernels import _DUPLICATE_TOL, _NONFINITE_GRAM, Kernel, _as_points, _has_duplicate, _sqdist, gram_matrix
from .lapack import flapack
from .quadrature import DEFAULT_POINTS, QuadratureRule

JITTER_SCALE = 1e-12
MULTISTART_RESTARTS = 2  # seeded random starts of a multistart search, besides the uniform and greedy ones
_NONFINITE_CROSS = "cross-kernel values must not contain infs or NaNs"


@dataclass(frozen=True)
class DesignSet:
    """Ordered distinct interpolation points with a cached Gram factor.

    `jitter` records the ridge added to make the Cholesky factorization
    succeed; zero for a cleanly positive-definite Gram matrix.
    `greedy_sup_path` is filled by greedy_design with the sup of the
    power function before each point insertion, and `descents` by a
    multistart search with how its descents ran, as in "2 processes".
    """

    points: np.ndarray
    kernel: Kernel
    chol: np.ndarray | None
    jitter: float = 0.0
    greedy_sup_path: np.ndarray | None = field(default=None, compare=False)
    descents: str | None = field(default=None, compare=False)

    @property
    def size(self) -> int:
        return self.points.shape[0]


def design(kernel: Kernel, points) -> DesignSet:
    """Build a design, factorizing its Gram matrix (with recorded jitter)."""
    pts = _as_points(points, kernel.dim)
    if pts.size == 0:
        return DesignSet(pts, kernel, None)
    L, jitter = _cholesky(gram_matrix(kernel, pts))  # gram_matrix validates distinctness and domain
    return DesignSet(pts, kernel, L, jitter=jitter)


def _cholesky(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a Gram matrix, and the ridge added to make it succeed (0.0 if none).

    A failed factorization is retried once on K + jitter I, with jitter
    JITTER_SCALE times the mean diagonal; a second failure raises
    DegenerateDesignError.
    """
    try:
        return np.linalg.cholesky(K), 0.0
    except np.linalg.LinAlgError:
        # trace can vanish for boundary points of vanishing kernels; keep
        # the ridge strictly positive so the zero-information limit works
        scale = np.trace(K) / K.shape[0]
        jitter = JITTER_SCALE * (scale if scale > 0 else 1.0)
        try:
            return np.linalg.cholesky(K + jitter * np.eye(K.shape[0])), jitter
        except np.linalg.LinAlgError as exc:
            raise DegenerateDesignError("Gram matrix singular even after jitter") from exc


def _cholesky_or_none(K: np.ndarray) -> np.ndarray | None:
    """The factor `_cholesky` returns, or None for a Gram matrix singular even after jitter."""
    try:
        return _cholesky(K)[0]
    except DegenerateDesignError:
        return None


def power_values(des: DesignSet, points) -> np.ndarray:
    """Power function on a batch of points (vectorized quadratic form)."""
    pts = _as_points(points, des.kernel.dim)
    diag = des.kernel.diag(pts)
    if des.size == 0:
        return np.sqrt(np.maximum(diag, 0.0))
    return _power_from_cross(des.chol, des.kernel.pairwise(des.points, pts), diag)


def _power_from_cross(chol: np.ndarray, cross: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Power function from a design's Cholesky factor and its cross-kernel block k(x_i, y_j).

    Non-finite cross-kernel values raise ValueError; the solve would turn
    them into NaN power values. The factor is not scanned: it comes from a
    Cholesky factorization that succeeded.
    """
    if not np.isfinite(cross).all():
        raise ValueError(_NONFINITE_CROSS)
    return _power_from_finite(chol, cross, diag)


def _power_from_finite(chol: np.ndarray, cross: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """The quadratic form P^2 = k(x, x) - |L^{-1} k_x|^2, clipped at 0, for a cross block known to be finite."""
    S = _solve_lower(chol, cross)
    p2 = diag - np.einsum("ij,ij->j", S, S)
    return np.sqrt(np.maximum(p2, 0.0))


def _solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L^{-1} B for a lower-triangular L, bit-identical to `scipy.linalg.solve_triangular(L, B, lower=True)`.

    It makes solve_triangular's LAPACK `dtrtrs` call on the same branch,
    through the same f2py wrapper (`lapack.flapack`, loaded without
    `scipy.linalg`): an F-contiguous L (a 1 x 1 factor is both C- and
    F-contiguous) as it is, a C-contiguous one as the transposed upper
    system. It skips the batch wrapper and the finiteness scan, which
    `_power_from_cross` makes itself. `dtrtrs` copies B into its
    Fortran-ordered result, a plain copy when B is F-ordered.
    """
    if L.flags.f_contiguous:
        X, info = flapack.dtrtrs(L, B, lower=1)
    else:
        X, info = flapack.dtrtrs(L.T, B, lower=0, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return X


def greedy_design(kernel: Kernel, candidates, n: int) -> DesignSet:
    """Power-function greedy selection over a candidate grid.

    Starts from the candidate maximizing k(x, x) and repeatedly appends
    the candidate with the largest current power function, updating the
    power values through the Newton basis. Ties break to the lowest
    candidate index, so runs are deterministic. The sup-power values
    recorded before each insertion are nonincreasing. Stops early if the
    remaining power mass is at rounding level (candidate set exhausted).
    """
    cand = _as_points(candidates, kernel.dim)
    if cand.shape[0] == 0:
        raise ValueError("empty candidate grid")
    if n > cand.shape[0]:
        raise ValueError(f"requested {n} points from {cand.shape[0]} candidates")
    if n == 0:
        return design(kernel, np.empty((0, kernel.dim)))
    p2 = np.maximum(kernel.diag(cand), 0.0)
    scale = float(p2.max())
    V = np.empty((cand.shape[0], n))  # Newton basis, one column per chosen point
    chosen: list[int] = []
    sups: list[float] = []
    for k in range(n):
        i = int(np.argmax(p2))  # argmax returns the first maximizer
        if p2[i] <= 1e-15 * max(scale, 1.0):
            break  # candidate set numerically exhausted
        sups.append(math.sqrt(p2[i]))
        col = kernel.pairwise(cand, cand[i : i + 1])[:, 0]
        if k:
            col = col - V[:, :k] @ V[i, :k]
        col = col / math.sqrt(p2[i])
        V[:, k] = col
        p2 = np.maximum(p2 - col**2, 0.0)
        chosen.append(i)
    return replace(design(kernel, cand[chosen]), greedy_sup_path=np.asarray(sups))


def interpolation_width(
    des: DesignSet,
    quad: QuadratureRule,
    p: float,
    eval_grid: np.ndarray | None = None,
) -> float:
    """L_p norm of the power function for the given design.

    Finite p integrates P^p against the quadrature; p = inf takes the
    max over an endpoint-including evaluation grid (default: the
    `DEFAULT_POINTS` one, 1d or 2d only), which must be denser than the design.
    The result is the width objective at D, an upper bound on the
    infimum over designs of the same size.
    """
    targets, norm = _objective(des.kernel, quad, p, eval_grid)
    return norm(power_values(des, targets))


def _objective(kernel: Kernel, quad: QuadratureRule, p: float, eval_grid) -> tuple[np.ndarray, Callable[[np.ndarray], float]]:
    """The p-width objective for p in [2, inf]: the points it reads the power function at, and its norm on those values.

    Finite p reads the quadrature nodes and takes the quadrature L_p norm;
    p = inf reads `eval_grid` (default as in `interpolation_width`) and takes the max.
    """
    if p == math.inf:
        if eval_grid is None:
            eval_grid = _default_grid(kernel, "eval", "eval_grid")
        return _as_points(eval_grid, kernel.dim), lambda vals: float(vals.max())
    if not p >= 2.0:
        raise ValueError("p must be in [2, inf]")
    return quad.nodes, lambda vals: float((quad.weights @ vals**p) ** (1.0 / p))


def _default_grid(kernel: Kernel, grid: str, arg: str) -> np.ndarray:
    """The endpoint-including grid of `DEFAULT_POINTS[grid]` points per axis that the argument `arg` defaults to, in 1d or 2d."""
    if kernel.dim > 2:
        raise ValueError(f"{arg}: no default grid in {kernel.dim} dimensions; pass one")
    return kernel.domain.grid(DEFAULT_POINTS[grid][kernel.dim - 1], endpoint=True)


def uniform_design(kernel: Kernel, n: int) -> DesignSet:
    """Right-shifted uniform grid design: lo + (i/g)(hi - lo) per axis.

    In more than one dimension g = floor(n^(1/d)) per axis, so the design
    has at most n points; a width value at a design of size <= n is still
    an upper bound for the n-point width.
    """
    box = kernel.domain
    if n == 0:
        return design(kernel, np.empty((0, kernel.dim)))
    g = n if kernel.dim == 1 else max(1, math.floor(n ** (1.0 / kernel.dim) + 1e-9))
    axes = [l + (np.arange(1, g + 1) / g) * (h - l) for l, h in zip(box.lo, box.hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return design(kernel, np.column_stack([m.ravel() for m in mesh]))


def optimize_interpolation_width(
    kernel: Kernel,
    quad: QuadratureRule,
    p: float,
    n: int,
    strategy: str = "greedy",
    candidates: np.ndarray | None = None,
    eval_grid: np.ndarray | None = None,
    seed: int = 0,
    restarts: int = MULTISTART_RESTARTS,
) -> tuple[DesignSet, float]:
    """Search for a good n-point design; the value is an upper bound.

    Strategies: "uniform" (fixed grid), "greedy" (power-function greedy
    on the candidate grid), "multistart" (coordinate-descent refinement
    from the uniform and greedy designs plus seeded random starts).

    The multistart descents are independent, so they run on one forked
    process per CPU, at most one per start. They run here one after
    another with one CPU, without the `fork` start method, in a pool
    worker (which may not start processes), or in a process that runs
    more than one thread (see `descent_processes`; `descents` says which). Either way
    each returns its points and value, the best is kept in start order
    (the first of equal values wins), and `design` builds it, so the
    result is the same bit for bit. An error in a descent reaches the
    caller with its type and message.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if strategy not in ("uniform", "greedy", "multistart"):
        raise ValueError(f"unknown strategy '{strategy}'")
    if candidates is None and strategy != "uniform":  # the uniform grid reads no candidates
        candidates = _default_grid(kernel, "candidates", "candidates")

    if strategy in ("uniform", "greedy"):
        des = uniform_design(kernel, n) if strategy == "uniform" else greedy_design(kernel, candidates, n)
        return des, interpolation_width(des, quad, p, eval_grid=eval_grid)

    targets, norm = _objective(kernel, quad, p, eval_grid)
    diag = kernel.diag(targets)  # design-independent
    starts = [uniform_design(kernel, n).points, greedy_design(kernel, candidates, n).points]
    rng = np.random.default_rng(seed)
    lo = np.asarray(kernel.domain.lo)
    hi = np.asarray(kernel.domain.hi)
    for _ in range(restarts):
        starts.append(lo + (hi - lo) * rng.random((n, kernel.dim)))

    descend = functools.partial(_coordinate_descent, kernel, targets=targets, diag=diag, norm=norm)
    procs, serial = descent_processes(len(starts))
    if procs > 1:
        import multiprocessing

        # the kernel's and the norm's closures cannot be pickled: `descend`
        # reaches the workers by fork, through the initializer's arguments
        with multiprocessing.get_context("fork").Pool(procs, _inherit, (descend,)) as pool:
            results = pool.map(_call_inherited, starts)
        _await_one_thread()
    else:
        results = map(descend, starts)
    best_pts, best_val = min(results, key=lambda result: result[1])  # the first of equal values
    descents = f"{procs} processes" if serial is None else f"serial ({serial})"
    return replace(design(kernel, best_pts), descents=descents), best_val


def descent_processes(starts: int) -> tuple[int, str | None]:
    """The processes that the descents of `starts` multistart starts run on, and why they run serially (None when they do not).

    One process per CPU, at most one per start, unless one of these holds,
    in this order: one CPU ("one CPU"); no `fork` start method ("no fork");
    this process is a pool worker, which may not start processes
    ("daemonic worker"); or it runs other than one thread, native threads
    such as a BLAS pool's included ("3 threads", or "unknown threads" where
    the count cannot be read). A forked child holds only the thread that
    forked, so a lock another thread held stays locked in it. And each
    worker starts a BLAS pool of its own: on a 2-CPU x86-64 machine with
    OpenBLAS on two threads, two workers took 2.5-4.8 s per descent that
    took 0.06 s in one process.
    """
    import multiprocessing  # here, so that importing the package does not pay for it

    procs = min(starts, _cpu_count())
    threads = _thread_count()
    if procs < 2:
        reason = "one CPU"
    elif "fork" not in multiprocessing.get_all_start_methods():
        reason = "no fork"
    elif multiprocessing.current_process().daemon:
        reason = "daemonic worker"
    elif threads != 1:
        reason = f"{threads or 'unknown'} threads"
    else:
        return procs, None
    return 1, reason


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one (Linux), else `os.cpu_count()`."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def _thread_count() -> int | None:
    """The threads of this process, native ones included, read on Linux; None elsewhere."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _await_one_thread():
    """Wait, for at most a second, until this process runs one thread again.

    The pool's `with` block joins its handler threads, but the operating
    system may list them (`/proc/self/task`) for some milliseconds more.
    A multistart cell that started then would find more than one thread
    and run its descents serially, so the cell that ran the pool leaves
    the process with the one thread it found.
    """
    import time

    deadline = time.monotonic() + 1.0
    while _thread_count() not in (None, 1) and time.monotonic() < deadline:
        time.sleep(0.001)


_inherited: Callable | None = None  # set in a forked pool worker only


def _inherit(fn: Callable):
    """Pool initializer: keep the function the worker inherited by fork."""
    global _inherited
    _inherited = fn


def _call_inherited(arg):
    return _inherited(arg)


def _coordinate_descent(
    kernel: Kernel, points: np.ndarray, targets: np.ndarray, diag: np.ndarray, norm
) -> tuple[np.ndarray, float]:
    """Shrinking-bracket line search over each point coordinate in turn.

    A trial moves one coordinate of one point, and its score is the value
    `norm(power_values(design(kernel, cand), targets))` would give, bit
    for bit, without building either. A coordinate (point i, axis ax)
    scores all its trial positions as one batch, then replays the accept
    rule `val < best * (1 - 1e-9)` over them in trial order. Every trial of
    a coordinate keeps the other points, so its design does not depend on
    which earlier trial was accepted.

    What a coordinate computes, for its T trials:
    - one `pairwise` call for the T new cross-kernel rows k(x_i, targets),
      and one for the T new Gram rows, whose self entries come from the
      same call, evaluated against the new points themselves;
    - the squared distances of the new points to the other n - 1 points.
      The other points among themselves are checked once per point i;
    - per trial, the current Gram matrix with row and column i replaced,
      factored by `_cholesky`, the jitter rule of `design`;
    - per trial, in the order of the checks of `design` and
      `_power_from_cross`: a duplicate pair (distance within
      `_DUPLICATE_TOL`) scores inf; a non-finite Gram matrix raises
      ValueError; a Gram matrix singular even after jitter scores inf; a
      non-finite cross-kernel block raises ValueError; else the triangular
      solve and the quadratic form of `_power_from_finite`, on the current
      cross block with row i replaced. The finiteness of the new rows is
      scanned once per coordinate, that of the other points' rows once per
      point i.

    Why each check of `gram_matrix` still holds:
    - Every kernel's `pairwise` is elementwise (the `Kernel` contract) and
      every catalog kernel's is exactly symmetric, so each new row and each
      entry of the kept Gram matrix is bit-identical to a full evaluation,
      and `0.5 * (K + K.T)` is an exact no-op.
    - `_sqdist` is elementwise too, so the distinctness test sees the
      same numbers as the full one.
    - The start runs the full `gram_matrix` check, so a start outside the
      domain raises DomainError. A trial clips its moved coordinate into
      the box and keeps every other coordinate of a design that passed, so
      the domain check holds by construction and is not re-run.

    A trial whose whole point array was already scored in this descent,
    the start included, is skipped: it can never be accepted, because best
    never increases. If it was rejected, its value v satisfied
    v >= best_then * (1 - 1e-9) >= best_now * (1 - 1e-9); if it was
    accepted, best_now <= v, and v < v * (1 - 1e-9) is false for v >= 0.
    Skipping it changes no accept decision and no returned bit. The
    descent returns the final points and their score.
    """
    lo = np.asarray(kernel.domain.lo)
    hi = np.asarray(kernel.domain.hi)
    span = float((hi - lo).max())
    pts = np.array(points, dtype=float, copy=True)
    n = pts.shape[0]

    # the current design's cross-kernel block, in Fortran order so that the
    # solve copies it without a transposition; a trial writes its row i
    cross = np.asfortranarray(kernel.pairwise(pts, targets))
    row_finite = np.isfinite(cross).all(axis=1)
    try:
        K = gram_matrix(kernel, pts)
    except DegenerateDesignError:  # a duplicate pair scores inf; its trials still need the Gram entries
        K, L = kernel.pairwise(pts, pts), None
    else:
        L = _cholesky_or_none(K)
    best = math.inf if L is None else norm(_power_from_cross(L, cross, diag))
    seen = {pts.tobytes()}
    radius = span / max(2.0 * n ** (1.0 / kernel.dim), 4.0)
    steps = np.concatenate([-np.linspace(1.0, 1.0 / 8, 4), np.linspace(1.0 / 8, 1.0, 4)])
    sweeps = 0
    while radius > 1e-6 * span and sweeps < 200:
        sweeps += 1
        improved = False
        for i in range(n):
            others = np.delete(pts, i, axis=0)
            others_distinct = not _has_duplicate(others)
            others_finite = bool(np.delete(row_finite, i).all())
            others_gram_finite = bool(np.isfinite(np.delete(np.delete(K, i, axis=0), i, axis=1)).all())
            for ax in range(kernel.dim):
                base = pts[i, ax]
                trials = []
                for t in np.clip(base + radius * steps, lo[ax], hi[ax]):
                    pts[i, ax] = t
                    key = pts.tobytes()
                    if t != base and key not in seen:
                        seen.add(key)
                        trials.append(t)
                pts[i, ax] = base
                if not trials:
                    continue
                new = np.repeat(pts[i : i + 1], len(trials), axis=0)
                new[:, ax] = trials
                rows = kernel.pairwise(new, targets)
                finite = np.isfinite(rows).all(axis=1)
                gram_rows = kernel.pairwise(new, np.concatenate([pts, new]))
                g = gram_rows[:, :n]
                g[:, i] = np.diagonal(gram_rows[:, n:])
                gram_finite = np.isfinite(g).all(axis=1)
                ok = others_distinct & (_sqdist(new, others).min(axis=1, initial=np.inf) > _DUPLICATE_TOL**2)
                vals = [math.inf] * len(trials)
                saved = cross[i].copy()
                for j in np.flatnonzero(ok):
                    if not (others_gram_finite and gram_finite[j]):
                        raise ValueError(_NONFINITE_GRAM)
                    Kj = K.copy()
                    Kj[i, :] = Kj[:, i] = g[j]
                    L = _cholesky_or_none(Kj)
                    if L is None:
                        continue
                    if not (others_finite and finite[j]):
                        raise ValueError(_NONFINITE_CROSS)
                    cross[i] = rows[j]
                    vals[j] = norm(_power_from_finite(L, cross, diag))
                accepted = None
                for j, val in enumerate(vals):
                    if val < best * (1.0 - 1e-9):
                        best, accepted = val, j
                if accepted is None:
                    cross[i] = saved
                    continue
                pts[i, ax] = trials[accepted]
                cross[i] = rows[accepted]
                row_finite[i] = finite[accepted]
                K[i, :] = g[accepted]
                K[:, i] = g[accepted]
                improved = True
        if not improved:
            radius *= 0.5
    return pts, best
