"""Axis-aligned domain boxes and composite midpoint quadrature.

All measures in the lab are Lebesgue on a box, realized through a
quadrature rule with positive weights summing to the box volume.
Midpoint rules keep the weights uniform, which in turn keeps the
symmetrized Nystrom matrix well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

_WEIGHT_SUM_TOL = 1e-12
_DOMAIN_TOL = 1e-12

# the default points per axis of each grid, (in 1d, in 2d): the quadrature
# rule, the sup-norm evaluation grid and the design candidate grid
DEFAULT_POINTS = {"quadrature": (2000, 64), "eval": (4096, 128), "candidates": (4097, 64)}


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, the only domain shape supported."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have equal length")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError("box must have positive extent on every axis")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return float(np.prod(np.asarray(self.hi) - np.asarray(self.lo)))

    def contains(self, x: np.ndarray) -> bool:
        """Whether every row of x lies in the box, up to 1e-12 on each axis."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        lo = np.asarray(self.lo) - _DOMAIN_TOL
        hi = np.asarray(self.hi) + _DOMAIN_TOL
        return bool(np.all((x >= lo) & (x <= hi)))

    def grid(self, points_per_axis: int, endpoint: bool = True) -> np.ndarray:
        """Tensor grid over the box, endpoints included by default.

        Sup-norm evaluation grids must include the box boundary, otherwise
        suprema attained on the boundary are systematically undersampled.
        """
        axes = [
            np.linspace(l, h, points_per_axis)
            if endpoint
            else (np.arange(points_per_axis) + 0.5) * (h - l) / points_per_axis + l
            for l, h in zip(self.lo, self.hi)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])


def unit_interval() -> Box:
    return Box((0.0,), (1.0,))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights for integration over a box."""

    nodes: np.ndarray  # (m, d)
    weights: np.ndarray  # (m,)
    exactness_hint: str = ""
    box: Box | None = field(default=None)

    def __post_init__(self):
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape[0] != weights.shape[0]:
            raise ValueError("node and weight counts differ")
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be positive")
        if self.box is not None:
            if not self.box.contains(nodes):
                raise DomainError("quadrature nodes outside the domain box")
            if abs(weights.sum() - self.box.volume) > _WEIGHT_SUM_TOL * max(1.0, self.box.volume):
                raise ValueError("quadrature weights do not sum to the box volume")

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    @property
    def mass(self) -> float:
        """Total measure mu(X) carried by the rule."""
        return float(self.weights.sum())

    def signature(self) -> str:
        """Stable identifier of the rule and the box it covers; the spectrum cache key."""
        sig = f"{self.exactness_hint}|m={self.size}|mass={self.mass:.17g}"
        if self.box is not None:
            for name, corner in (("lo", self.box.lo), ("hi", self.box.hi)):
                sig += f"|{name}=" + ",".join(f"{v:.17g}" for v in corner)
        return sig

    def integrate(self, values: np.ndarray) -> float:
        values = np.asarray(values, dtype=float)
        return float(self.weights @ values)


def midpoint_rule(box: Box, points_per_axis: int) -> QuadratureRule:
    """Composite midpoint rule, tensorized over the box axes."""
    if points_per_axis < 1:
        raise ValueError("points_per_axis must be >= 1")
    nodes = box.grid(points_per_axis, endpoint=False)
    cell = box.volume / nodes.shape[0]
    weights = np.full(nodes.shape[0], cell)
    hint = f"midpoint^{box.dim}x{points_per_axis}"
    return QuadratureRule(nodes=nodes, weights=weights, exactness_hint=hint, box=box)
