"""Kernel catalog.

A kernel here is a symmetric positive-semidefinite function on an
axis-aligned box, evaluated in vectorized form through `pairwise`. The
catalog covers the classical Gaussian-process kernels whose associated
function spaces are norm-equivalent to Sobolev spaces of known order, plus
the Gaussian kernel as an infinitely smooth reference point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DegenerateDesignError, DomainError
from .quadrature import Box, QuadratureRule, unit_interval

_DUPLICATE_TOL = 1e-14
_NONFINITE_GRAM = "Gram matrix values must not contain infs or NaNs"


@dataclass(frozen=True)
class Kernel:
    """Evaluatable symmetric PSD kernel with domain metadata.

    `pairwise(A, B)` returns the matrix k(a_i, b_j) for point arrays of
    shape (m, d) and (n, d), as a fresh array that the caller owns and
    may overwrite in place; a catalog kernel fills it in row blocks of at
    most `BLOCK_ENTRIES` entries. `diagonal(X)` returns k(x_i, x_i) for
    the rows of X; every constructor supplies it in closed form.

    Each value depends on its own pair of points alone, bit for bit:
    `pairwise(A[I], B[J])` equals `pairwise(A, B)[I, J]`. The tile build of
    the Nystrom matrix and the coordinate descent's column updates rely on
    this contract, which a kernel computed through a matrix product would
    break, since its last bits depend on the product's shape.
    """

    name: str
    dim: int
    domain: Box
    pairwise: Callable[[np.ndarray, np.ndarray], np.ndarray]
    diagonal: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)

    def diag(self, x: np.ndarray) -> np.ndarray:
        x = _as_points(x, self.dim)
        return np.asarray(self.diagonal(x), dtype=float)

    def identifier(self) -> str:
        ps = ",".join(f"{k}={v:.17g}" if isinstance(v, float) else f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({ps})" if ps else self.name


def _as_points(x, dim: int) -> np.ndarray:
    """Points as an (m, dim) float array: the rule by which every entry point reads a point array.

    A scalar is one point; a 1-d array is m scalars in 1d, or one point
    when its length is dim; an empty input is no point. Any other column
    count raises DomainError. An (m, dim) float array is returned as is.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return x.reshape(0, dim)
    if x.ndim == 0:
        x = x.reshape(1, 1)
    elif x.ndim == 1:
        # a single point in R^dim, or a batch of scalars in 1d
        x = x.reshape(-1, 1) if dim == 1 and x.size != dim else x.reshape(1, -1)
    if x.shape[1] != dim:
        raise DomainError(f"points have dimension {x.shape[1]}, kernel expects {dim}")
    return x


def eval_kernel(kernel: Kernel, x, x2) -> float:
    """Single kernel evaluation with domain validation."""
    a = _as_points(x, kernel.dim)
    b = _as_points(x2, kernel.dim)
    if not kernel.domain.contains(a) or not kernel.domain.contains(b):
        raise DomainError("evaluation point outside the kernel domain")
    return float(kernel.pairwise(a, b)[0, 0])


def gram_matrix(kernel: Kernel, points) -> np.ndarray:
    """Gram matrix K[i, j] = k(x_i, x_j) for pairwise distinct points.

    A non-finite entry raises ValueError: a Cholesky factorization does
    not reject NaN, it returns a NaN factor.
    """
    pts = _as_points(points, kernel.dim)
    if not kernel.domain.contains(pts):
        raise DomainError("design point outside the kernel domain")
    if _has_duplicate(pts):
        raise DegenerateDesignError("duplicate points in design")
    K = kernel.pairwise(pts, pts)
    K = 0.5 * (K + K.T)
    if not np.isfinite(K).all():
        raise ValueError(_NONFINITE_GRAM)
    return K


def _has_duplicate(pts: np.ndarray) -> bool:
    """Whether two rows of pts lie within `_DUPLICATE_TOL` of each other."""
    if pts.shape[0] < 2:
        return False
    d2 = _sqdist(pts, pts)
    np.fill_diagonal(d2, np.inf)
    return bool(d2.min() <= _DUPLICATE_TOL**2)


def trace_integral(kernel: Kernel, quad: QuadratureRule) -> float:
    """Integral of the kernel diagonal, the trace of the integral operator."""
    if not kernel.domain.contains(quad.nodes):
        raise DomainError("quadrature does not cover the kernel domain")
    return quad.integrate(kernel.diag(quad.nodes))


# ---------------------------------------------------------------------------
# catalog


BLOCK_ENTRIES = 16384
"""Entries of one row block of a catalog kernel's `pairwise`: 128 KB of doubles, which stay in cache through the kernel's elementwise passes."""


def _row_blocks(fill: Callable[[np.ndarray, np.ndarray, np.ndarray], None]) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The `pairwise` of an elementwise kernel, evaluated in row blocks.

    `fill(a, b, out)` writes k(a_i, b_j) into `out` in place. It runs on
    consecutive row blocks of a of at most `BLOCK_ENTRIES` entries (one
    row at least), each block a view of one preallocated result. Every
    entry goes through the same operations on the same floats as in one
    whole-matrix pass, so the values are bit-identical, and a 4096-column
    matrix is not streamed through memory once per operation.
    """

    def pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.empty((a.shape[0], b.shape[0]))
        rows = max(1, BLOCK_ENTRIES // max(1, b.shape[0]))
        for i in range(0, a.shape[0], rows):
            fill(a[i : i + rows], b, out[i : i + rows])
        return out

    return pairwise


def _sqdist(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of a (m, d) and b (n, d).

    The squared axis differences are summed into one (m, n) buffer in axis
    order, the order numpy's sum over the (m, n, d) broadcast tensor uses,
    so the values are bit-identical without that tensor. They go into
    `out` when given, else into a new array that the caller owns.
    """
    out = np.subtract(a[:, :1], b[:, 0], out=out)
    out *= out
    for k in range(1, a.shape[1]):
        diff = np.subtract(a[:, k : k + 1], b[:, k])
        diff *= diff
        out += diff
    return out


def _stationary(values: Callable[[np.ndarray], None]) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The row-blocked `pairwise` of a kernel of the distance: `values` turns a block of squared distances into kernel values in place."""

    def fill(a, b, out):
        values(_sqdist(a, b, out))

    return _row_blocks(fill)


def make_kernel(kernel_id: str, dim: int = 1, domain: Box | None = None, length_scale: float = 0.3) -> Kernel:
    """Build a catalog kernel by string id.

    Ids: brownian, bridge, brownian_int (once-integrated Brownian motion),
    matern12, matern32, gaussian. The first three are 1d only. Each one's
    `pairwise` runs in row blocks (`_row_blocks`), in place on the block
    and in the operation order of the closed form, so that every value is
    bit-identical to the plain broadcast expression.
    """
    kid = kernel_id.strip().lower()
    if kid in ONE_DIM_IDS:
        if dim != 1:
            raise DomainError(f"kernel '{kid}' is one-dimensional")
        box = domain or unit_interval()

        if kid == "brownian":

            def fill(a, b, out):
                np.minimum(a, b[:, 0], out=out)

            return Kernel(kid, 1, box, _row_blocks(fill), diagonal=lambda x: x[:, 0].copy())

        if kid == "bridge":

            # min(s, t) - s t
            def fill(a, b, out):
                t = b[:, 0]
                np.minimum(a, t, out=out)
                out -= a * t

            return Kernel(kid, 1, box, _row_blocks(fill), diagonal=lambda x: x[:, 0] - x[:, 0] ** 2)

        # covariance of the integrated Brownian motion:
        # k(s, t) = m^2 M / 2 - m^3 / 6 with m = min, M = max
        def fill(a, b, out):
            t = b[:, 0]
            lo = np.minimum(a, t)
            np.multiply(lo, lo, out=out)
            out *= np.maximum(a, t)
            out /= 2.0
            lo **= 3
            lo /= 6.0
            out -= lo

        return Kernel(kid, 1, box, _row_blocks(fill), diagonal=lambda x: x[:, 0] ** 3 / 3.0)

    box = domain or Box((0.0,) * dim, (1.0,) * dim)
    if box.dim != dim:
        raise DomainError("domain box dimension does not match kernel dimension")
    if length_scale <= 0:
        raise ValueError("length_scale must be positive")
    params = {"ell": float(length_scale)}

    ones = lambda x: np.ones(x.shape[0])  # noqa: E731  stationary normalized diagonals

    if kid == "matern12":

        # exp(-sqrt(d2) / ell)
        def values(r, ell=length_scale):
            np.sqrt(r, out=r)
            np.negative(r, out=r)
            r /= ell
            np.exp(r, out=r)

        return Kernel(kid, dim, box, _stationary(values), diagonal=ones, params=params)

    if kid == "matern32":

        # r = sqrt(3 d2) / ell; (1 + r) exp(-r)
        def values(r, ell=length_scale):
            r *= 3.0
            np.sqrt(r, out=r)
            r /= ell
            e = np.negative(r)
            np.exp(e, out=e)
            r += 1.0
            r *= e

        return Kernel(kid, dim, box, _stationary(values), diagonal=ones, params=params)

    if kid == "gaussian":

        # exp(-d2 / (2 ell^2))
        def values(r, ell=length_scale):
            np.negative(r, out=r)
            r /= 2.0 * ell * ell
            np.exp(r, out=r)

        return Kernel(kid, dim, box, _stationary(values), diagonal=ones, params=params)

    raise ConfigError(f"unknown kernel id '{kid}' (field kernel.id)")


ONE_DIM_IDS = ("brownian", "bridge", "brownian_int")
CATALOG_IDS = (*ONE_DIM_IDS, "matern12", "matern32", "gaussian")
