"""Width scales: certified bounds, linear upper bounds, the chain check and rate verdicts.

Each computed value is recorded once, as a `WidthRow` (scale, n, kind,
value, method, p). `validate_chain` checks the order of the width chain on
a list of rows, and `rate_series` selects the series that a fit reads.

In the L2 geometry the n-th Kolmogorov and linear approximation widths
of the native-space embedding coincide and equal sqrt(lambda_{n+1}), so
the spectrum drives everything: sqrt(lambda_{n+1}/mu(X)) is a certified
lower bound for the sup-norm Kolmogorov width, and the eigenvalue tail
sqrt(tail(n)/mu(X)) is a certified lower bound for the sup-norm
interpolation width. The linear upper bound comes from one concrete
rank-n scheme, the spectral projection (Mercer truncation). Its sup-norm
envelope sqrt(k(x, x) - sum_{i <= n} lambda_i e_i(x)^2) takes the tail
through the kernel diagonal, so the modes past the resolved spectrum are
included and the bound stays certified.

Sup-norm Kolmogorov upper bounds of the optimal order are deliberately
not claimed numerically; they follow from entropy-number equivalences,
which the verdict rules apply as rules, keeping computed certificates
and rule-based conclusions separate in all outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

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
from .config import p_label
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

_CHAIN_TOL = 1e-9  # within one scale
_CHAIN_SLACK = 1e-6  # quadrature slack between scales


@dataclass(frozen=True)
class WidthRow:
    """One value of a width scale at index n: a bound or exact value in L_p, with p as its label (`2`, `inf`)."""

    scale_id: str
    n: int
    kind: str  # lower | upper | exact
    value: float
    method: str
    p: str

    def __post_init__(self):
        if self.scale_id not in SCALE_IDS:
            raise ValueError(f"unknown scale_id '{self.scale_id}'")
        if self.kind not in (KIND_LOWER, KIND_UPPER, KIND_EXACT):
            raise ValueError(f"unknown entry kind '{self.kind}'")


def rate_series(
    rows: Iterable[WidthRow], scale_id: str, label: str, kind: str | None = None, method: str | None = None, p: str | None = None
) -> RateSeries:
    """The positive values at n >= 1 of one scale, by n; `kind`, `method` and `p` narrow the rows when given."""
    sel = [r for r in rows if r.scale_id == scale_id and r.n >= 1 and r.value > 0]
    sel = [r for r in sel if kind in (None, r.kind) and method in (None, r.method) and p in (None, r.p)]
    sel.sort(key=lambda r: r.n)
    return RateSeries(np.array([r.n for r in sel], dtype=int), np.array([r.value for r in sel]), label)


def _method_name(row: WidthRow) -> str:
    """The method as messages print it; an interpolation row carries its p, as in `greedy-pinf`."""
    return f"{row.method}-p{row.p}" if row.scale_id == "I_Lp_upper" else row.method


def validate_chain(rows: Iterable[WidthRow]):
    """Raise ChainViolationError where the rows break the order of the width chain.

    Within one scale, to 1e-9: each lower bound sits at or below every
    upper or exact value at the same n, and each (method, p, kind) upper or
    exact curve is nonincreasing in n. Across scales, to the quadrature
    slack 1e-6: the L_inf Kolmogorov lower bound sits below the Mercer
    linear upper bound and below every p = inf interpolation upper bound,
    and the trace-tail lower bound below every p = inf interpolation upper
    bound. Interpolation lower bounds are never compared with linear-width
    upper bounds: the gap between those scales is the point.
    """
    at_n: dict[tuple[str, int], list[WidthRow]] = {}
    curves: dict[tuple[str, str, str, str], list[WidthRow]] = {}
    for r in rows:
        at_n.setdefault((r.scale_id, r.n), []).append(r)
        if r.kind != KIND_LOWER:
            curves.setdefault((r.scale_id, r.method, r.p, r.kind), []).append(r)
    for (sid, n), group in at_n.items():
        for lo in (r for r in group if r.kind == KIND_LOWER):
            for up in (r for r in group if r.kind != KIND_LOWER):
                if lo.value > up.value + _CHAIN_TOL:
                    raise ChainViolationError(
                        f"scale {sid}, n={n}: lower {lo.value:.6g} ({_method_name(lo)}) "
                        f"exceeds upper {up.value:.6g} ({_method_name(up)})"
                    )
    for (sid, *_), curve in curves.items():
        curve.sort(key=lambda r: r.n)
        for a, b in zip(curve, curve[1:]):
            if b.value > a.value + _CHAIN_TOL:
                raise ChainViolationError(
                    f"scale {sid}, method {_method_name(a)}: value rises from "
                    f"{a.value:.6g} at n={a.n} to {b.value:.6g} at n={b.n}"
                )
    for (sid, n), group in at_n.items():
        for up in group:
            if sid == "I_Lp_upper" and up.p == "inf":
                names, shown = ("d_Lp_lower", "I_Linf_lower_tail"), _method_name(up)
            elif sid == "a_Lp_upper":
                names, shown = ("d_Lp_lower",), "mercer"
            else:
                continue
            for lo in (r for name in names for r in at_n.get((name, n), ())):
                if lo.value > up.value + _CHAIN_SLACK:
                    raise ChainViolationError(f"{lo.scale_id}[n={n}] = {lo.value:.9g} exceeds {sid}[{shown}, n={n}] = {up.value:.9g}")


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


def mercer_envelope_sup2(spectrum: SpectrumEstimate, kernel: Kernel, grid: np.ndarray, n_max: int) -> np.ndarray:
    """Squared sup over the grid of k(x, x) - sum_{i <= n} lambda_i e_i(x)^2, for n = 0..n_max.

    Extends only the n_max modes the head sums read, and processes the grid
    in chunks so the extension never holds a full grid-by-node kernel matrix.
    """
    lam = spectrum.eigenvalues[:n_max]
    best = np.zeros(n_max + 1)
    step = 2048
    for i in range(0, grid.shape[0], step):
        blk = grid[i : i + step]
        # column n holds the head sum of the first n modes; column 0 is empty
        heads = np.zeros((blk.shape[0], n_max + 1))
        np.cumsum(spectrum.extend(kernel, blk, n_modes=n_max) ** 2 * lam[None, :], axis=1, out=heads[:, 1:])
        env2 = np.maximum(kernel.diag(blk)[:, None] - heads, 0.0)
        np.maximum(best, env2.max(axis=0), out=best)
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
    qname = p_label(q)
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
    e_linf_report: SlopeReport,
    alpha: float,
    slope_tol: float = DEFAULT_SLOPE_TOL,
) -> Verdict:
    """Paired conclusion: sup-norm Kolmogorov rate plus interpolation-width gap.

    With matching entropy evidence in L2 and L_inf for alpha in (0, 2),
    the rule yields both the Kolmogorov rate n^(-1/alpha) in sup norm
    and the lower bound n^(-1/alpha + 1/2) for the interpolation width,
    exhibiting the square-root gap between the two scales.
    """
    base = rate_transfer_verdict(e_l2_report, e_linf_report, math.inf, alpha, slope_tol)
    claim = (
        f"sup-norm Kolmogorov widths decay like n^(-1/{alpha:g}) and the sup-norm interpolation "
        f"width is bounded below by the order n^(-1/{alpha:g} + 1/2)"
    )
    return Verdict(claim, base.premises, base.status, base.detail, base.observed_constant)
