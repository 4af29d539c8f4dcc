"""Width curves: certified bounds, linear upper bounds, and rate verdicts.

In the L2 geometry the n-th Kolmogorov and linear approximation widths
of the native-space embedding coincide and equal sqrt(lambda_{n+1}), so
the spectrum drives everything: sqrt(lambda_{n+1}/mu(X)) is a certified
lower bound for the sup-norm Kolmogorov width, and the eigenvalue tail
sqrt(tail(n)/mu(X)) is a certified lower bound for the sup-norm
interpolation width. Upper bounds come from concrete rank-n linear
schemes: the spectral projection (Mercer truncation) and an alternating
minimization over discrete rank-n factorizations.

Sup-norm Kolmogorov upper bounds of the optimal order are deliberately
not claimed numerically; they follow from entropy-number equivalences,
which the verdict rules apply as rules, keeping computed certificates
and rule-based conclusions separate in all outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import (
    STATUS_CERTIFIED,
    STATUS_HYPOTHESIS_VIOLATION,
    STATUS_INCONCLUSIVE,
    DEFAULT_SLOPE_TOL,
    RateSeries,
    SlopeReport,
    Verdict,
)
from .errors import ChainViolationError
from .kernels import Kernel
from .spectral import SpectrumEstimate, tail_sum

SCALE_IDS = (
    "d_L2",
    "a_L2",
    "d_Lp_lower",
    "a_Lp_upper",
    "I_Lp_upper",
    "I_Linf_lower_tail",
    "e_diag_est",
)

KIND_LOWER = "lower"
KIND_UPPER = "upper"
KIND_EXACT = "exact"

_CHAIN_TOL = 1e-9


@dataclass(frozen=True)
class CurveEntry:
    n: int
    value: float
    kind: str  # lower | upper | exact
    method: str


@dataclass
class WidthCurve:
    """Per-index records of bounds and values for one width scale."""

    scale_id: str
    entries: list[CurveEntry] = field(default_factory=list)

    def __post_init__(self):
        if self.scale_id not in SCALE_IDS:
            raise ValueError(f"unknown scale_id '{self.scale_id}'")

    def add(self, n: int, value: float, kind: str, method: str):
        if kind not in (KIND_LOWER, KIND_UPPER, KIND_EXACT):
            raise ValueError(f"unknown entry kind '{kind}'")
        self.entries.append(CurveEntry(int(n), float(value), kind, method))

    def validate(self, tol: float = _CHAIN_TOL):
        """Enforce lower <= upper per index and monotonicity per method."""
        by_n: dict[int, list[CurveEntry]] = {}
        for e in self.entries:
            by_n.setdefault(e.n, []).append(e)
        for n, group in by_n.items():
            lowers = [e for e in group if e.kind == KIND_LOWER]
            uppers = [e for e in group if e.kind in (KIND_UPPER, KIND_EXACT)]
            for lo in lowers:
                for up in uppers:
                    if lo.value > up.value + tol:
                        raise ChainViolationError(
                            f"scale {self.scale_id}, n={n}: lower {lo.value:.6g} ({lo.method}) "
                            f"exceeds upper {up.value:.6g} ({up.method})"
                        )
        by_method: dict[tuple[str, str], list[CurveEntry]] = {}
        for e in self.entries:
            if e.kind in (KIND_UPPER, KIND_EXACT):
                by_method.setdefault((e.method, e.kind), []).append(e)
        for (method, _kind), group in by_method.items():
            group = sorted(group, key=lambda e: e.n)
            for a, b in zip(group, group[1:]):
                if b.value > a.value + tol:
                    raise ChainViolationError(
                        f"scale {self.scale_id}, method {method}: value rises from "
                        f"{a.value:.6g} at n={a.n} to {b.value:.6g} at n={b.n}"
                    )

    def series(self, kind: str | None = None, method: str | None = None, label: str | None = None) -> RateSeries:
        sel = [
            e
            for e in self.entries
            if (kind is None or e.kind == kind) and (method is None or e.method == method) and e.n >= 1 and e.value > 0
        ]
        sel.sort(key=lambda e: e.n)
        ns = np.array([e.n for e in sel], dtype=int)
        vals = np.array([e.value for e in sel])
        return RateSeries(ns, vals, label or f"{self.scale_id}[{method or kind or 'all'}]")


# ---------------------------------------------------------------------------
# certified bounds from the spectrum


def l2_widths(spectrum: SpectrumEstimate, n: int) -> float:
    """The L2 width at index n: sqrt(lambda_{n+1}); exact in the L2 pair."""
    if n + 1 > spectrum.n_eigs:
        raise IndexError(f"width index {n} needs eigenvalue {n + 1}, have {spectrum.n_eigs}")
    return float(math.sqrt(spectrum.eigenvalues[n]))


def linf_kolmogorov_lower(spectrum: SpectrumEstimate, mu_x: float, n: int) -> float:
    """Certified lower bound sqrt(lambda_{n+1}/mu(X)) for the sup-norm Kolmogorov width."""
    if mu_x <= 0:
        raise ValueError("mu_x must be positive")
    if n + 1 > spectrum.n_eigs:
        raise IndexError(f"width index {n} needs eigenvalue {n + 1}, have {spectrum.n_eigs}")
    return float(math.sqrt(spectrum.eigenvalues[n] / mu_x))


def interp_linf_lower_tail(spectrum: SpectrumEstimate, mu_x: float, n: int, trace: float | None = None) -> float:
    """Certified lower bound sqrt(tail(n)/mu(X)) for the sup-norm interpolation width."""
    if mu_x <= 0:
        raise ValueError("mu_x must be positive")
    return float(math.sqrt(tail_sum(spectrum, n, trace=trace) / mu_x))


def mercer_projection_upper(
    spectrum: SpectrumEstimate,
    n: int,
    p: float,
    grid: np.ndarray | None = None,
    kernel: Kernel | None = None,
    diag_values: np.ndarray | None = None,
) -> float:
    """L_p norm of the spectral-projection error envelope; upper-bounds a_n.

    The rank-n scheme is the orthogonal projection onto the span of the
    top n eigenfunctions; its pointwise worst-case error over the unit
    ball is sqrt(sum_{i>n} lambda_i e_i(x)^2). With `diag_values` (the
    kernel diagonal on the grid) the unresolved tail past the truncation
    is included exactly through k(x,x) - sum_{i<=n} lambda_i e_i(x)^2;
    otherwise the envelope runs over the resolved modes only.

    Finite p integrates against the spectrum's quadrature (grid must be
    its nodes); p = inf takes the grid maximum.
    """
    if not (p == math.inf or p >= 2.0):
        raise ValueError("p must be in [2, inf]")
    if n >= spectrum.n_eigs:
        raise IndexError(f"projection rank {n} needs more than {spectrum.n_eigs} resolved modes")
    if grid is None:
        grid = spectrum.quad.nodes
        V = spectrum.eigvec_node_values
    else:
        grid = np.atleast_2d(np.asarray(grid, dtype=float))
        V = spectrum.extend(kernel, grid)
    lam = spectrum.eigenvalues
    if diag_values is not None:
        head = (V[:, :n] ** 2) @ lam[:n] if n else np.zeros(grid.shape[0])
        env2 = np.maximum(np.asarray(diag_values, dtype=float) - head, 0.0)
    else:
        env2 = (V[:, n:] ** 2) @ lam[n:]
    env = np.sqrt(env2)
    if p == math.inf:
        return float(env.max())
    if grid.shape != spectrum.quad.nodes.shape or not np.array_equal(grid, spectrum.quad.nodes):
        raise ValueError("finite-p projection norms integrate on the spectrum's quadrature nodes")
    return float((spectrum.quad.weights @ env**p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# discrete ellipsoid model and alternating minimization


@dataclass(frozen=True)
class EllipsoidModel:
    """Feature matrix Phi with rows (sqrt(lambda_i) e_i(x_j))_i at grid points.

    The image of the unit ball under the embedding is discretized as
    {Phi c : |c|_2 <= 1}; row norms are bounded by the kernel diagonal.
    """

    feature_matrix: np.ndarray
    grid: np.ndarray
    source_spectrum: SpectrumEstimate

    def row_norm_defect(self, diag_values: np.ndarray, tol: float = 1e-9) -> float:
        rn2 = (self.feature_matrix**2).sum(axis=1)
        return float(np.max(rn2 - np.asarray(diag_values, dtype=float) - tol))


def build_ellipsoid(
    spectrum: SpectrumEstimate,
    grid: np.ndarray | None = None,
    n_terms: int | None = None,
    kernel: Kernel | None = None,
) -> EllipsoidModel:
    m = n_terms or spectrum.n_eigs
    if grid is None:
        grid = spectrum.quad.nodes
        V = spectrum.eigvec_node_values[:, :m]
    else:
        grid = np.atleast_2d(np.asarray(grid, dtype=float))
        V = spectrum.extend(kernel, grid, m)
    Phi = V * np.sqrt(spectrum.eigenvalues[:m])[None, :]
    return EllipsoidModel(Phi, grid, spectrum)


def subspace_residual_upper(
    model: EllipsoidModel,
    n: int,
    restarts: int = 8,
    seed: int = 0,
    max_iter: int = 200,
    tol: float = 1e-8,
) -> float:
    """Best found max-row-norm residual of rank-n factorizations of Phi.

    Any rank-n factorization Phi ~ W Z certifies that every grid point's
    worst-case error is at most its row residual, so the returned value
    max_j |row_j(Phi - W Z)|_2 is a certified upper bound for the
    discretized sup-norm linear width; the optimization itself is a
    heuristic (certified value, heuristic optimum). Alternating
    minimization with Lawson-style row reweighting, deterministic seeds.

    Restart 0 keeps the leading n coordinates (the spectral projection),
    restart 1 the top singular directions; the rest start from seeded
    random row weights.
    """
    Phi = model.feature_matrix
    m, N = Phi.shape
    rank_cap = min(m, N)
    if n < 0 or n > rank_cap:
        raise ValueError(f"subspace dimension {n} outside [0, {rank_cap}]")
    if n == 0:
        return float(np.sqrt((Phi**2).sum(axis=1)).max())
    if n == rank_cap:
        return 0.0

    def residuals(basis: np.ndarray) -> np.ndarray:
        # basis: (n, N) with orthonormal rows; residual of each row of Phi
        proj = Phi @ basis.T
        r2 = (Phi**2).sum(axis=1) - (proj**2).sum(axis=1)
        return np.sqrt(np.maximum(r2, 0.0))

    def top_basis(weights: np.ndarray) -> np.ndarray:
        Gw = Phi.T @ (weights[:, None] * Phi)
        Gw = 0.5 * (Gw + Gw.T)
        w, U = np.linalg.eigh(Gw)
        return U[:, np.argsort(w)[::-1][:n]].T

    rng = np.random.default_rng(seed)
    best = math.inf
    for r in range(max(restarts, 2)):
        if r == 0:
            basis = np.eye(N)[:n]
        elif r == 1:
            basis = top_basis(np.ones(m))
        else:
            basis = top_basis(rng.random(m) + 1e-3)
        weights = np.ones(m)
        prev = math.inf
        for _ in range(max_iter):
            res = residuals(basis)
            cur = float(res.max())
            best = min(best, cur)
            if prev - cur < tol * max(prev, 1e-300):
                break
            prev = cur
            weights = weights * np.maximum(res, 1e-300)
            weights = weights * (m / weights.sum())
            basis = top_basis(weights)
    return best


# ---------------------------------------------------------------------------
# rate-transfer verdicts


def _premise_ok(report: SlopeReport, target: float, slope_tol: float) -> bool:
    return abs(report.slope - target) <= max(report.stderr, slope_tol)


def _intervals_overlap(a: SlopeReport, b: SlopeReport) -> bool:
    lo_a, hi_a = a.interval()
    lo_b, hi_b = b.interval()
    return lo_a <= hi_b and lo_b <= hi_a


def rate_transfer_verdict(
    e_l2_report: SlopeReport,
    e_lq_report: SlopeReport,
    q: float,
    alpha: float,
    slope_tol: float = DEFAULT_SLOPE_TOL,
) -> Verdict:
    """Entropy-to-Kolmogorov rate transfer for Hilbert-to-L_q embeddings.

    Rule: if the entropy numbers of the embedding decay like n^(-1/alpha)
    both into L2 and into L_q (q in [2, p]) for some alpha in (0, 2),
    then the Kolmogorov widths into L_q decay at the same rate. The
    premises are the two slope reports; the conclusion is emitted as a
    rule application, never as a numeric certificate. For q = inf the
    transfer additionally leans on the sup-norm target space admitting
    norm-preserving extensions, which is noted in the claim.
    """
    if not (0.0 < alpha < 2.0):
        return Verdict(
            claim=f"no rate transfer attempted (alpha={alpha:g})",
            premises=(e_l2_report, e_lq_report),
            status=STATUS_HYPOTHESIS_VIOLATION,
            detail=f"alpha must lie strictly inside (0, 2); got {alpha:g}",
        )
    target = -1.0 / alpha
    qname = "inf" if q == math.inf else f"{q:g}"
    note = " (sup-norm extension-property branch)" if q == math.inf else ""
    claim = f"Kolmogorov widths into L_{qname} decay like n^(-1/{alpha:g}) by entropy rate transfer{note}"
    ok_l2 = _premise_ok(e_l2_report, target, slope_tol)
    ok_lq = _premise_ok(e_lq_report, target, slope_tol)
    if not (ok_l2 and ok_lq):
        failed = []
        if not ok_l2:
            failed.append(f"L2 entropy slope {e_l2_report.slope:.3f} not within tolerance of {target:.3f}")
        if not ok_lq:
            failed.append(f"L_{qname} entropy slope {e_lq_report.slope:.3f} not within tolerance of {target:.3f}")
        return Verdict(claim, (e_l2_report, e_lq_report), STATUS_INCONCLUSIVE, "; ".join(failed))
    if not _intervals_overlap(e_l2_report, e_lq_report):
        return Verdict(
            claim,
            (e_l2_report, e_lq_report),
            STATUS_INCONCLUSIVE,
            "premises certified individually but their rate intervals are disjoint",
        )
    return Verdict(claim, (e_l2_report, e_lq_report), STATUS_CERTIFIED, f"both entropy scales match n^({target:.3f})")


def width_gap_verdict(
    e_l2_report: SlopeReport,
    e_linf_report: SlopeReport | None,
    alpha: float,
    slope_tol: float = DEFAULT_SLOPE_TOL,
) -> Verdict:
    """Paired conclusion: sup-norm Kolmogorov rate plus interpolation-width gap.

    With matching entropy evidence in L2 and L_inf for alpha in (0, 2),
    the rule yields both the Kolmogorov rate n^(-1/alpha) in sup norm
    and the lower bound n^(-1/alpha + 1/2) for the interpolation width,
    exhibiting the square-root gap between the two scales.
    """
    if e_linf_report is None:
        return Verdict(
            claim="gap conclusion unavailable",
            premises=(e_l2_report,),
            status=STATUS_INCONCLUSIVE,
            detail="missing sup-norm entropy evidence",
        )
    base = rate_transfer_verdict(e_l2_report, e_linf_report, math.inf, alpha, slope_tol)
    claim = (
        f"sup-norm Kolmogorov widths decay like n^(-1/{alpha:g}) and the sup-norm interpolation "
        f"width is bounded below by the order n^(-1/{alpha:g} + 1/2)"
    )
    return Verdict(claim, base.premises, base.status, base.detail, base.observed_constant)
