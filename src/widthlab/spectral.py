"""Eigensystem estimation for the integral operator of a kernel.

The operator T f = integral of k(., x) f(x) against the box measure is
discretized on a quadrature rule: with W = diag(weights) the symmetric
matrix W^{1/2} K W^{1/2} has the Nystrom eigenvalue estimates, and the
de-symmetrized eigenvectors give weight-orthonormal eigenfunction values
at the nodes. Closed-form reference spectra are registered for the
Brownian motion and Brownian bridge kernels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InsufficientResolutionError, InsufficientTailError, NoAnalyticSpectrumError
from .kernels import Kernel, MercerExpansion
from .quadrature import QuadratureRule, midpoint_rule, unit_interval

ORTHONORMALITY_TOL = 1e-8


class ClampedTailWarning(UserWarning):
    """A tail sum came out negative from rounding and was clamped to zero."""


@dataclass(frozen=True)
class SpectrumEstimate:
    """Ordered eigenvalue estimates with eigenfunction values at the nodes.

    eigvec_node_values has shape (nodes, n_eigs) and satisfies
    V^T diag(w) V = I up to ORTHONORMALITY_TOL. `trace` is the exact
    operator trace when known (analytic spectra), else None. `extend`
    evaluates eigenfunctions at arbitrary points, through the closed-form
    `basis` when one is registered and the Nystrom extension formula
    otherwise.
    """

    eigenvalues: np.ndarray
    eigvec_node_values: np.ndarray
    quad: QuadratureRule
    kernel_id: str
    source: str = "nystrom"
    clamped: int = 0
    trace: float | None = None
    basis: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", lam)
        if np.any(lam < 0):
            raise ValueError("eigenvalue estimates must be nonnegative after clamping")
        if np.any(np.diff(lam) > 1e-12 * max(lam[0], 1.0)):
            raise ValueError("eigenvalues must be ordered nonincreasingly")

    @property
    def n_eigs(self) -> int:
        return self.eigenvalues.shape[0]

    def orthonormality_defect(self) -> float:
        V = self.eigvec_node_values
        G = V.T @ (self.quad.weights[:, None] * V)
        return float(np.abs(G - np.eye(V.shape[1])).max())

    def extend(self, kernel: Kernel | None, points: np.ndarray, n_modes: int | None = None) -> np.ndarray:
        """Eigenfunction values at arbitrary points.

        Uses the closed form when registered, otherwise the Nystrom
        extension e_i(x) = (1/lambda_i) sum_j w_j k(x, x_j) V[j, i],
        restricted to modes with a safely positive eigenvalue.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        m = n_modes or self.n_eigs
        if self.basis is not None:
            return self.basis(pts)[:, :m]
        lam = self.eigenvalues[:m]
        cut = lam > 1e-14 * max(lam[0], 1.0)
        Kxn = kernel.pairwise(pts, self.quad.nodes)
        out = np.zeros((pts.shape[0], m))
        out[:, cut] = (Kxn * self.quad.weights[None, :]) @ self.eigvec_node_values[:, :m][:, cut] / lam[cut]
        return out

    def to_expansion(self, kernel: Kernel | None = None, n_terms: int | None = None) -> MercerExpansion:
        m = n_terms or self.n_eigs
        if self.basis is None and kernel is None:
            raise ValueError("Nystrom expansion needs the kernel for the extension formula")
        return MercerExpansion(self.eigenvalues[:m], lambda X: self.extend(kernel, X, m), m, self.source, quad=self.quad)


def nystrom_spectrum(kernel: Kernel, quad: QuadratureRule, n_eigs: int) -> SpectrumEstimate:
    """Dense symmetric eigendecomposition of the discretized operator.

    Deterministic for fixed inputs; negative numerical eigenvalues are
    clamped to zero and counted in the `clamped` diagnostic.
    """
    if n_eigs > quad.size:
        raise InsufficientResolutionError(
            f"requested {n_eigs} eigenvalues from a {quad.size}-node rule"
        )
    K = kernel.pairwise(quad.nodes, quad.nodes)
    sw = np.sqrt(quad.weights)
    A = sw[:, None] * K * sw[None, :]
    A = 0.5 * (A + A.T)
    lam_all, U = np.linalg.eigh(A)
    order = np.argsort(lam_all)[::-1][:n_eigs]
    lam = lam_all[order]
    U = U[:, order]
    clamped = int(np.sum(lam < 0))
    lam = np.maximum(lam, 0.0)
    V = U / sw[:, None]
    # sign convention: first node value positive
    signs = np.where(V[0, :] < 0, -1.0, 1.0)
    V = V * signs[None, :]
    return SpectrumEstimate(lam, V, quad, kernel.identifier(), source="nystrom", clamped=clamped)


# ---------------------------------------------------------------------------
# closed-form reference spectra


def _brownian_eigenvalues(n: int) -> np.ndarray:
    i = np.arange(1, n + 1)
    return 4.0 / ((2.0 * i - 1.0) ** 2 * np.pi**2)


def _brownian_basis(X: np.ndarray, n: int) -> np.ndarray:
    t = np.atleast_2d(X)[:, 0]
    i = np.arange(1, n + 1)
    return np.sqrt(2.0) * np.sin((2.0 * i[None, :] - 1.0) * np.pi * t[:, None] / 2.0)


def _bridge_eigenvalues(n: int) -> np.ndarray:
    i = np.arange(1, n + 1)
    return 1.0 / (np.pi**2 * i**2)


def _bridge_basis(X: np.ndarray, n: int) -> np.ndarray:
    t = np.atleast_2d(X)[:, 0]
    i = np.arange(1, n + 1)
    return np.sqrt(2.0) * np.sin(i[None, :] * np.pi * t[:, None])


_ANALYTIC_MAX_TERMS = 4096

_ANALYTIC_REGISTRY: dict[str, tuple[Callable, Callable, float]] = {
    "brownian": (_brownian_eigenvalues, _brownian_basis, 0.5),
    "bridge": (_bridge_eigenvalues, _bridge_basis, 1.0 / 6.0),
}


def analytic_spectrum(kernel_id: str, n_eigs: int, quad: QuadratureRule | None = None) -> SpectrumEstimate:
    """Exact eigensystem for kernels with a registered closed form.

    The returned estimate carries the exact trace and an analytic basis
    evaluator; node values are tabulated on `quad` (default: 2000-node
    midpoint rule on the unit interval).
    """
    kid = kernel_id.strip().lower()
    if kid not in _ANALYTIC_REGISTRY:
        raise NoAnalyticSpectrumError(f"no closed-form eigensystem for kernel id '{kernel_id}'")
    if n_eigs > _ANALYTIC_MAX_TERMS:
        raise InsufficientResolutionError(f"analytic registry tabulates at most {_ANALYTIC_MAX_TERMS} modes")
    lam_fn, basis_fn, trace = _ANALYTIC_REGISTRY[kid]
    quad = quad or midpoint_rule(unit_interval(), 2000)
    lam = lam_fn(n_eigs)

    def basis(X: np.ndarray) -> np.ndarray:
        return basis_fn(X, n_eigs)

    V = basis(quad.nodes)
    return SpectrumEstimate(lam, V, quad, kid, source="analytic", trace=trace, basis=basis)


def analytic_eigenvalues(kernel_id: str, n: int) -> np.ndarray:
    kid = kernel_id.strip().lower()
    if kid not in _ANALYTIC_REGISTRY:
        raise NoAnalyticSpectrumError(f"no closed-form eigensystem for kernel id '{kernel_id}'")
    return _ANALYTIC_REGISTRY[kid][0](n)


def analytic_trace(kernel_id: str) -> float:
    kid = kernel_id.strip().lower()
    if kid not in _ANALYTIC_REGISTRY:
        raise NoAnalyticSpectrumError(f"no closed-form eigensystem for kernel id '{kernel_id}'")
    return _ANALYTIC_REGISTRY[kid][2]


def has_analytic_spectrum(kernel_id: str) -> bool:
    return kernel_id.strip().lower() in _ANALYTIC_REGISTRY


# ---------------------------------------------------------------------------
# tail sums


def tail_sum(spectrum: SpectrumEstimate, n: int, trace: float | None = None) -> float:
    """Sum of eigenvalues past index n.

    With a trace (argument, or the exact trace carried by an analytic
    spectrum) the tail is trace minus the resolved head, which also
    captures the unresolved modes. Without one, only the resolved tail
    sum_{n < i <= N} lambda_i is available. Negative results from
    rounding are clamped to zero with a ClampedTailWarning.
    """
    if n < 0:
        raise ValueError("tail index must be nonnegative")
    trace = trace if trace is not None else spectrum.trace
    lam = spectrum.eigenvalues
    if trace is not None:
        value = trace - float(lam[: min(n, lam.shape[0])].sum())
    else:
        if n > lam.shape[0]:
            raise InsufficientTailError(
                f"tail past n={n} with only {lam.shape[0]} resolved modes and no trace"
            )
        value = float(lam[n:].sum())
    if value < 0.0:
        warnings.warn(
            f"tail_sum(n={n}) clamped from {value:.3e} to 0", ClampedTailWarning, stacklevel=2
        )
        value = 0.0
    return value
