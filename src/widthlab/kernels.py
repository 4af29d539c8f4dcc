"""Kernel catalog.

A kernel here is a symmetric positive-semidefinite function on an
axis-aligned box, evaluated in vectorized form through `pairwise`. The
catalog covers the classical Gaussian-process kernels whose associated
function spaces are norm-equivalent to Sobolev spaces of known order, plus
the Gaussian kernel as an infinitely smooth reference point. Power
kernels are built from an eigensystem, so they live in `spectral`.
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
    may overwrite in place. `diagonal(X)` returns k(x_i, x_i) for the rows
    of X; every constructor supplies it in closed form.
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


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a (m, d) and b (n, d).

    The squared axis differences are summed into one (m, n) buffer in axis
    order, the order numpy's sum over the (m, n, d) broadcast tensor uses,
    so the values are bit-identical without that tensor. The caller owns
    the returned array.
    """
    out = np.subtract.outer(a[:, 0], b[:, 0])
    out *= out
    for k in range(1, a.shape[1]):
        diff = np.subtract.outer(a[:, k], b[:, k])
        diff *= diff
        out += diff
    return out


def make_kernel(kernel_id: str, dim: int = 1, domain: Box | None = None, length_scale: float = 0.3) -> Kernel:
    """Build a catalog kernel by string id.

    Ids: brownian, bridge, brownian_int (once-integrated Brownian motion),
    matern12, matern32, gaussian. The first three are 1d only.
    """
    kid = kernel_id.strip().lower()
    if kid in ONE_DIM_IDS:
        if dim != 1:
            raise DomainError(f"kernel '{kid}' is one-dimensional")
        box = domain or unit_interval()

        if kid == "brownian":

            def pw(a, b):
                return np.minimum(a[:, 0][:, None], b[:, 0][None, :])

            return Kernel(kid, 1, box, pw, diagonal=lambda x: x[:, 0].copy())

        if kid == "bridge":

            def pw(a, b):
                s = a[:, 0][:, None]
                t = b[:, 0][None, :]
                return np.minimum(s, t) - s * t

            return Kernel(kid, 1, box, pw, diagonal=lambda x: x[:, 0] - x[:, 0] ** 2)

        # covariance of the integrated Brownian motion:
        # k(s, t) = m^2 M / 2 - m^3 / 6 with m = min, M = max
        def pw(a, b):
            s = a[:, 0][:, None]
            t = b[:, 0][None, :]
            lo = np.minimum(s, t)
            hi = np.maximum(s, t)
            return lo * lo * hi / 2.0 - lo**3 / 6.0

        return Kernel(kid, 1, box, pw, diagonal=lambda x: x[:, 0] ** 3 / 3.0)

    box = domain or Box((0.0,) * dim, (1.0,) * dim)
    if box.dim != dim:
        raise DomainError("domain box dimension does not match kernel dimension")
    if length_scale <= 0:
        raise ValueError("length_scale must be positive")
    params = {"ell": float(length_scale)}

    ones = lambda x: np.ones(x.shape[0])  # noqa: E731  stationary normalized diagonals

    if kid == "matern12":

        # in place on the distance buffer, keeping the operation order of
        # exp(-sqrt(d2) / ell) so that every value stays bit-identical
        def pw(a, b, ell=length_scale):
            r = _sqdist(a, b)
            np.sqrt(r, out=r)
            np.negative(r, out=r)
            r /= ell
            return np.exp(r, out=r)

        return Kernel(kid, dim, box, pw, diagonal=ones, params=params)

    if kid == "matern32":

        # in place, keeping the order of r = sqrt(3 d2) / ell; (1 + r) exp(-r)
        def pw(a, b, ell=length_scale):
            r = _sqdist(a, b)
            r *= 3.0
            np.sqrt(r, out=r)
            r /= ell
            e = np.negative(r)
            np.exp(e, out=e)
            r += 1.0
            r *= e
            return r

        return Kernel(kid, dim, box, pw, diagonal=ones, params=params)

    if kid == "gaussian":

        # in place, keeping the order of exp(-d2 / (2 ell^2))
        def pw(a, b, ell=length_scale):
            r = _sqdist(a, b)
            np.negative(r, out=r)
            r /= 2.0 * ell * ell
            return np.exp(r, out=r)

        return Kernel(kid, dim, box, pw, diagonal=ones, params=params)

    raise ConfigError(f"unknown kernel id '{kid}' (field kernel.id)")


ONE_DIM_IDS = ("brownian", "bridge", "brownian_int")
CATALOG_IDS = (*ONE_DIM_IDS, "matern12", "matern32", "gaussian")
