"""Log-log rate fitting, gap reports and verdict bookkeeping.

Rate claims of the form a_n ~ n^s cannot be verified literally on a
finite index window; the lab operationalizes them as an ordinary least
squares slope in log-log coordinates. The slope tolerance (default 0.1)
is an explicit knob, and families with logarithmic factors are expected
to consume part of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError

DEFAULT_SLOPE_TOL = 0.1

STATUS_CERTIFIED = "certified"
STATUS_INCONCLUSIVE = "inconclusive"
STATUS_HYPOTHESIS_VIOLATION = "hypothesis-violation"


@dataclass(frozen=True)
class RateSeries:
    """Positive values indexed by strictly increasing positive integers."""

    ns: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        ns = np.asarray(self.ns, dtype=int)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "values", vals)
        if ns.shape != vals.shape or ns.ndim != 1:
            raise ValueError("index and value arrays must be 1d of equal length")
        if ns.size and ns[0] < 1:
            raise ValueError("indices must be positive")
        if np.any(np.diff(ns) <= 0):
            raise ValueError("indices must be strictly increasing")
        if np.any(vals <= 0):
            raise ValueError("rate series values must be positive")

    def window(self, n_min: int, n_max: int) -> "RateSeries":
        mask = (self.ns >= n_min) & (self.ns <= n_max)
        return RateSeries(self.ns[mask], self.values[mask], self.label)

    def at(self, n: int) -> float:
        idx = np.searchsorted(self.ns, n)
        if idx >= self.ns.size or self.ns[idx] != n:
            raise KeyError(f"series '{self.label}' has no entry at n={n}")
        return float(self.values[idx])


@dataclass(frozen=True)
class SlopeReport:
    """OLS fit of log value against log n on a window."""

    slope: float
    intercept: float
    stderr: float
    window: tuple[int, int]
    label: str = ""
    n_points: int = 0

    def interval(self) -> tuple[float, float]:
        return (self.slope - self.stderr, self.slope + self.stderr)


@dataclass(frozen=True)
class Verdict:
    """An asymptotic judgment with the slope reports that support it.

    `status` is certified only when every premise lies within its
    tolerance; rule applications keep their numeric premises attached
    so reports can separate computed certificates from rule-based
    conclusions.
    """

    claim: str
    premises: tuple[SlopeReport, ...]
    status: str
    detail: str = ""
    observed_constant: float | None = None

    @property
    def certified(self) -> bool:
        return self.status == STATUS_CERTIFIED

    def to_record(self) -> dict:
        return {
            "claim": self.claim,
            "status": self.status,
            "detail": self.detail,
            "observed_constant": self.observed_constant,
            "premises": [
                {
                    "label": p.label,
                    "slope": p.slope,
                    "stderr": p.stderr,
                    "window": list(p.window),
                }
                for p in self.premises
            ],
        }


def fit_loglog(series: RateSeries, window: tuple[int, int] | None = None) -> SlopeReport:
    """Least squares slope of log value on log n over the window (default: every index); deterministic.

    At least four points must remain in the window.
    """
    sub = series if window is None else series.window(*window)
    if sub.ns.size < 4:
        raise ValueError(
            f"need >= 4 points to fit, got {sub.ns.size} in window {window} (label '{series.label}')"
        )
    x = np.log(sub.ns.astype(float))
    y = np.log(sub.values)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ y) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = x.size - 2
    stderr = math.sqrt(max(float(resid @ resid), 0.0) / dof / sxx) if dof > 0 else 0.0
    win = window if window is not None else (int(sub.ns[0]), int(sub.ns[-1]))
    return SlopeReport(slope, intercept, stderr, win, label=series.label, n_points=int(sub.ns.size))


def gap_report(upper_series: RateSeries, lower_series: RateSeries) -> SlopeReport:
    """Slope of the pointwise ratio upper/lower on their shared grid.

    A positive slope quantifies how much slower the upper-bound scale
    decays than the reference scale.
    """
    if upper_series.ns.shape != lower_series.ns.shape or np.any(upper_series.ns != lower_series.ns):
        raise GridMismatchError(
            f"series '{upper_series.label}' and '{lower_series.label}' are on different index grids"
        )
    ratio = RateSeries(
        upper_series.ns,
        upper_series.values / lower_series.values,
        f"gap[{upper_series.label}/{lower_series.label}]",
    )
    return fit_loglog(ratio)

