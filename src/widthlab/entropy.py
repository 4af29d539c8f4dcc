"""Entropy-number estimates for diagonal operators.

The n-th dyadic entropy number of an operator is the smallest radius at
which 2^(n-1) balls cover the image of the unit ball. General operators
are out of reach numerically; the estimators here cover the case the lab
needs as evidence: diagonal operators between sequence spaces
(ellipsoids in l2).

The Carl check evaluates the weighted sup-seminorm inequality
sup_{k<=n} k^{1/p} e_k <= C_p sup_{k<=n} k^{1/p} s_k with the explicit
constant C_p = 128 (32 + 16/p)^{1/p}; a flagged violation on valid
input indicates a pipeline bug, never new mathematics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DIAG_UPPER_FACTOR = 6.0  # pragmatic universal factor, flagged in the method label
MAX_ENTROPY_INDEX = 1024  # the largest index n whose ball count 2^(n-1) is a finite double


@dataclass(frozen=True)
class DiagonalOperator:
    """Diagonal operator on l2 with nonincreasing nonnegative entries."""

    sigma: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "sigma", s)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("sigma must be a nonempty 1d sequence")
        if np.any(s < 0):
            raise ValueError("sigma entries must be nonnegative")
        if np.any(np.diff(s) > 1e-15 * max(s[0], 1.0)):
            raise ValueError("sigma must be nonincreasing")


@dataclass(frozen=True)
class EntropyEstimate:
    n: int
    lower: float
    upper: float
    method: str

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper + 1e-15):
            raise ValueError(f"entropy bracket invalid: [{self.lower}, {self.upper}]")


def carl_constant(p: float) -> float:
    """Explicit admissible constant C_p = 128 (32 + 16/p)^(1/p)."""
    if p <= 0:
        raise ValueError("p must be positive")
    return 128.0 * (32.0 + 16.0 / p) ** (1.0 / p)


# ---------------------------------------------------------------------------
# diagonal operators


def _volume_lower(sigma: np.ndarray, n: int) -> float:
    # covering 2^(n-1) balls of the k-dim coordinate sub-ellipsoid cannot
    # beat volume: e_n >= max_k 2^{-(n-1)/k} (sigma_1...sigma_k)^{1/k}
    pos = sigma > 0
    k_max = int(np.argmin(pos)) if not pos.all() else sigma.size
    if k_max == 0:
        return 0.0
    ks = np.arange(1, k_max + 1, dtype=float)
    gm = np.exp(np.cumsum(np.log(sigma[:k_max])) / ks)
    # keep the power of two exact: a lower bound must never exceed the truth
    vals = gm * 2.0 ** (-(n - 1) / ks)
    return float(vals.max())


def _dyadic_grid_upper(sigma: np.ndarray, n: int) -> float:
    # constructive cover: split axis i of the bounding box into 2^{a_i}
    # cells; the leftover axes contribute at most sigma_{k+1} in norm.
    # One ball of radius sigma_1 centered at the origin always covers.
    # Every allocation with a_1 + a_2 <= n - 1 is scored at once; each
    # squared radius is summed left to right, axis by axis.
    N = sigma.size
    budget = n - 1

    def tail2(k: int) -> float:
        return float(sigma[k] ** 2) if k < N else 0.0

    def cell2(k: int) -> np.ndarray:
        # squared half-width of axis k cut into 2^a cells, a = 0..budget
        return np.array([(sigma[k] / 2.0**a) ** 2 for a in range(budget + 1)])

    c1 = cell2(0)
    r2 = [c1 + tail2(1)]
    if N >= 2:
        a = np.arange(budget + 1)
        a1, a2 = np.nonzero(np.add.outer(a, a) <= budget)
        head = c1[a1] + cell2(1)[a2]
        r2.append(head + tail2(2))
        if N >= 3:
            r2.append(head + cell2(2)[budget - a1 - a2] + tail2(3))
    return min(float(sigma[0]), math.sqrt(min(float(x.min()) for x in r2)))


def diag_entropy_bounds(op: DiagonalOperator, n: int) -> EntropyEstimate:
    """Bracket the n-th entropy number of a diagonal operator on l2.

    Lower bound by volume comparison; upper bound as the smaller of the
    volume expression times DIAG_UPPER_FACTOR (asymptotic constant
    unverified) and a constructive dyadic grid covering that optimizes
    over at most three covered axes.
    """
    if n < 1:
        raise ValueError("entropy index must be >= 1")
    if n > MAX_ENTROPY_INDEX:
        raise ValueError(f"entropy index {n} exceeds {MAX_ENTROPY_INDEX}: 2^(n-1) overflows a double")
    s = op.sigma
    if s[0] == 0.0:
        return EntropyEstimate(n, 0.0, 0.0, "volume+dyadic-grid")
    lower = _volume_lower(s, n)
    upper = min(DIAG_UPPER_FACTOR * lower, _dyadic_grid_upper(s, n))
    upper = max(upper, lower)  # the factor-6 guess must not undercut the certified lower
    return EntropyEstimate(n, lower, upper, "volume+dyadic-grid[factor-6-unverified]")


# ---------------------------------------------------------------------------
# Carl check


@dataclass(frozen=True)
class CarlReport:
    """Per-index ratios of weighted sup-seminorms and any violations."""

    p: float
    constant: float
    ratios: np.ndarray
    flagged: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return len(self.flagged) == 0


def carl_check(e_values, s_values, p: float, n_max: int) -> CarlReport:
    """Ratios sup_{k<=n} k^{1/p} e_k / sup_{k<=n} k^{1/p} s_k for n <= n_max.

    Flags every n whose ratio exceeds the explicit constant; on valid
    entropy/approximation pairs no flag may appear.
    """
    e = np.asarray(e_values, dtype=float)
    s = np.asarray(s_values, dtype=float)
    if e.size < n_max or s.size < n_max:
        raise ValueError(f"need at least n_max={n_max} entries in both sequences")
    if np.any(e[:n_max] <= 0) or np.any(s[:n_max] <= 0):
        raise ValueError("sequences must be positive up to n_max")
    k = np.arange(1, n_max + 1, dtype=float)
    we = np.maximum.accumulate(k ** (1.0 / p) * e[:n_max])
    ws = np.maximum.accumulate(k ** (1.0 / p) * s[:n_max])
    ratios = we / ws
    c = carl_constant(p)
    flagged = tuple(int(i + 1) for i in np.nonzero(ratios > c)[0])
    return CarlReport(p, c, ratios, flagged)
