"""Eigensystem estimation for the integral operator of a kernel.

The operator T f = integral of k(., x) f(x) against the box measure is
discretized on a quadrature rule: with W = diag(weights) the symmetric
matrix W^{1/2} K W^{1/2} has the Nystrom eigenvalue estimates, and the
de-symmetrized eigenvectors give weight-orthonormal eigenfunction values
at the nodes. Closed-form reference spectra are registered for the
Brownian motion and Brownian bridge kernels. A `SpectrumEstimate` is the
one eigensystem type: the width bounds read it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InsufficientResolutionError, InsufficientTailError, NoAnalyticSpectrumError
from .kernels import Kernel, _as_points
from .lapack import flapack
from .quadrature import DEFAULT_POINTS, Box, QuadratureRule, midpoint_rule, unit_interval

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
    `basis` (points, modes) when one is registered and the Nystrom
    extension formula otherwise.
    """

    eigenvalues: np.ndarray
    eigvec_node_values: np.ndarray
    quad: QuadratureRule
    source: str = "nystrom"
    clamped: int = 0
    trace: float | None = None
    basis: Callable[..., np.ndarray] | None = field(default=None, repr=False)

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
        """Max deviation of the weighted node-value Gram matrix V^T diag(w) V from identity."""
        V = self.eigvec_node_values
        G = V.T @ (self.quad.weights[:, None] * V)
        return float(np.abs(G - np.eye(V.shape[1])).max())

    def extend(self, kernel: Kernel | None, points: np.ndarray, n_modes: int | None = None) -> np.ndarray:
        """Eigenfunction values at arbitrary points.

        Uses the closed form when registered, evaluated for the first
        `n_modes` modes only, otherwise the Nystrom extension
        e_i(x) = (1/lambda_i) sum_j w_j k(x, x_j) V[j, i], restricted to
        modes with a safely positive eigenvalue.
        """
        pts = _as_points(points, self.quad.nodes.shape[1])
        m = n_modes or self.n_eigs
        if self.basis is not None:
            return self.basis(pts, min(m, self.n_eigs))
        lam = self.eigenvalues[:m]
        cut = lam > 1e-14 * max(lam[0], 1.0)
        Kxn = kernel.pairwise(pts, self.quad.nodes)
        Kxn *= self.quad.weights
        out = np.zeros((pts.shape[0], m))
        out[:, cut] = Kxn @ self.eigvec_node_values[:, :m][:, cut] / lam[cut]
        return out


BACK_TRANSFORM_ALIGN = 24
BACK_TRANSFORM_MIN = 192
NYSTROM_SOLVER = f"dsytrd+dstevd+dormqr/{BACK_TRANSFORM_ALIGN}/{BACK_TRANSFORM_MIN}"
"""The LAPACK path of `nystrom_spectrum`, named in the spectrum cache key: another path may leave other last bits."""


def _check_info(routine: str, info: int, n: int):
    """Raise on a nonzero LAPACK `info`: ValueError for an illegal argument, LinAlgError for no convergence."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} failed to converge on {n} x {n} matrix (info {info})")


NYSTROM_TILE = 256
"""Rows and columns of one tile of the Nystrom matrix build: a tile pair is 1 MB, which stays in cache."""


def _nystrom_matrix(kernel: Kernel, nodes: np.ndarray, sw: np.ndarray) -> np.ndarray:
    """S = (A + A^T) / 2 for A = W^{1/2} K W^{1/2}, as the lower triangle of the Fortran-ordered buffer `dsytrd` reads.

    A[i, j] = (k(x_i, x_j) * sw_i) * sw_j is built tile pair by tile pair.
    For tiles I >= J of `NYSTROM_TILE` nodes, K[I, J] and K[J, I] are both
    evaluated and scaled, A[J, I] is added to the transpose of A[I, J] and
    halved, and the block is checked for finiteness and stored. A tile of
    K holds the whole matrix's values (the `Kernel` contract), and these
    are the whole-matrix expression's operations, entry by entry, so S keeps
    its bits, while a pair of tiles stays in cache where the whole matrix
    took about ten passes through memory. Neither K nor A is taken to be
    symmetric: non-uniform weights make A asymmetric. S is exactly
    symmetric, so a non-finite entry shows in the stored triangle; it
    raises the ValueError of `np.asarray_chkfinite`. The strict upper
    triangle stays zero.
    """
    n, t = nodes.shape[0], NYSTROM_TILE
    # C-ordered, S's lower triangle kept in its upper one: the transpose is the Fortran-ordered matrix
    out = np.zeros((n, n))

    def scaled(rows: slice, cols: slice) -> np.ndarray:
        A = kernel.pairwise(nodes[rows], nodes[cols])
        A *= sw[rows, None]
        A *= sw[cols]
        return A

    for i in range(0, n, t):
        I = slice(i, i + t)
        for j in range(0, i + 1, t):
            J = slice(j, j + t)
            a_ij = scaled(I, J)
            a_ji = a_ij if i == j else scaled(J, I)
            s_ji = out[J, I]
            np.add(a_ji, a_ij.T, out=s_ji)
            s_ji *= 0.5
            if not np.isfinite(s_ji).all():
                raise ValueError("array must not contain infs or NaNs")
    return out.T


def nystrom_spectrum(kernel: Kernel, quad: QuadratureRule, n_eigs: int) -> SpectrumEstimate:
    """Dense symmetric eigendecomposition of the discretized operator.

    Deterministic for fixed inputs; negative numerical eigenvalues are
    clamped to zero and counted in the `clamped` diagnostic.

    The solver runs the three steps of LAPACK `dsyevd` on the lower
    triangle one by one, through scipy's f2py wrappers (`lapack.flapack`),
    so that the last one transforms only the kept eigenvectors:

    1. `dsytrd` reduces the matrix to a tridiagonal T = Q^T A Q in the
       matrix's own buffer. `_nystrom_matrix` builds the lower triangle of
       the symmetrized matrix tile pair by tile pair, straight into a
       Fortran-ordered buffer, which the wrapper takes without a copy.
    2. `dstevd` runs on T the divide-and-conquer `dstedc('I')` that `dsyevd`
       runs, and returns all n eigenvalues, ascending, and T's eigenvectors Z.
    3. `dormqr` applies Q to rows 1 to n - 1 of Z, as `dsyevd`'s `dormtr`
       does for the lower triangle, but only to the last columns, from a
       start s: the first kept column, moved back so that the block spans
       at least 192 columns (`BACK_TRANSFORM_MIN`) and starts on a
       multiple of 24 (`BACK_TRANSFORM_ALIGN`). At 4096 nodes with 260
       eigenvalues kept that is 280 columns instead of 4096, and the solve
       takes about 7 s instead of 12 on one x86-64 core.

    Each column of Q Z depends on that column of Z alone, but its last
    bits depend on where it falls in the tiles into which OpenBLAS splits
    the block reflectors' level-3 products. Both numbers are measured, not
    derived, with scipy 1.17's OpenBLAS 0.3.30 on an x86-64 (AVX-512)
    machine, on `matern32` matrices of 100 to 4096 nodes: every block that
    started on a multiple of 24 and spanned 192 columns or more kept
    `dsyevd`'s bits. Unaligned starts (s = 3836 of 4096 nodes, 1740 of
    2000), starts on a multiple of 8 or 12 only (1000 of 2000, 12 of 240)
    and aligned blocks of up to 188 columns (at 260, 380 and 500 nodes,
    among others) differed in the last bits. The eigenvalues always equal
    `dsyevd`'s. With at most 192 nodes, or all n eigenvalues kept, s = 0:
    the full back-transform.

    The checks are those of `scipy.linalg.eigh(A, driver="evd")`: a
    non-finite matrix raises ValueError with eigh's message (each tile is
    checked as it is stored), and a nonzero
    `info` raises ValueError (an illegal argument) or LinAlgError (no
    convergence), naming the routine. The peak is in `dstevd`: beside `A`,
    Z and its work array of n^2 doubles each, 3 n^2 in all, as in `dsyevd`.
    Z is cut to its kept columns before the Householder vectors below
    `A`'s diagonal are copied into the contiguous block `dormqr` reads.
    """
    if n_eigs > quad.size:
        raise InsufficientResolutionError(
            f"requested {n_eigs} eigenvalues from a {quad.size}-node rule"
        )
    sw = np.sqrt(quad.weights)
    A = _nystrom_matrix(kernel, quad.nodes, sw)
    n = A.shape[0]
    lwork, _ = flapack.dsytrd_lwork(n, lower=1)
    c, d, e, tau, info = flapack.dsytrd(A, lower=1, lwork=int(lwork), overwrite_a=1)
    _check_info("dsytrd", info, n)
    lam_all, Z, info = flapack.dstevd(d, e if n > 1 else np.zeros(1))  # the wrapper wants an off-diagonal even at n = 1
    _check_info("dstevd", info, n)
    order = np.argsort(lam_all)[::-1][:n_eigs]
    s = max(0, min(order.min(), n - BACK_TRANSFORM_MIN)) // BACK_TRANSFORM_ALIGN * BACK_TRANSFORM_ALIGN
    U = Z[:, s:].copy(order="F")
    del Z  # n^2 doubles, freed before the reflectors are copied
    if n > 1:
        H = np.asfortranarray(c[1:, : n - 1])  # the Householder vectors, once; the wrapper copies a strided view on each call
        _, work, _ = flapack.dormqr("L", "N", H, tau, U[1:], -1)  # the workspace query
        QZ, _, info = flapack.dormqr("L", "N", H, tau, U[1:], int(work[0]))
        _check_info("dormqr", info, n)
        U[1:] = QZ
    lam = lam_all[order]
    U = U[:, order - s]
    clamped = int(np.sum(lam < 0))
    lam = np.maximum(lam, 0.0)
    V = U / sw[:, None]
    # sign convention: first node value positive
    signs = np.where(V[0, :] < 0, -1.0, 1.0)
    V = V * signs[None, :]
    return SpectrumEstimate(lam, V, quad, source="nystrom", clamped=clamped)


# ---------------------------------------------------------------------------
# closed-form reference spectra


def _brownian_eigenvalues(n: int) -> np.ndarray:
    i = np.arange(1, n + 1)
    return 4.0 / ((2.0 * i - 1.0) ** 2 * np.pi**2)


def _brownian_basis(X: np.ndarray, n: int) -> np.ndarray:
    t = X[:, 0]
    i = np.arange(1, n + 1)
    return np.sqrt(2.0) * np.sin((2.0 * i[None, :] - 1.0) * np.pi * t[:, None] / 2.0)


def _bridge_eigenvalues(n: int) -> np.ndarray:
    i = np.arange(1, n + 1)
    return 1.0 / (np.pi**2 * i**2)


def _bridge_basis(X: np.ndarray, n: int) -> np.ndarray:
    t = X[:, 0]
    i = np.arange(1, n + 1)
    return np.sqrt(2.0) * np.sin(i[None, :] * np.pi * t[:, None])


ANALYTIC_MAX_TERMS = 4096

_ANALYTIC_REGISTRY: dict[str, tuple[Callable, Callable, float]] = {
    "brownian": (_brownian_eigenvalues, _brownian_basis, 0.5),
    "bridge": (_bridge_eigenvalues, _bridge_basis, 1.0 / 6.0),
}


def _registered(kernel_id: str) -> tuple[Callable, Callable, float]:
    """The (eigenvalues, basis, trace) entry of a kernel id in the closed-form registry."""
    entry = _ANALYTIC_REGISTRY.get(kernel_id.strip().lower())
    if entry is None:
        raise NoAnalyticSpectrumError(f"no closed-form eigensystem for kernel id '{kernel_id}'")
    return entry


def analytic_spectrum(
    kernel_id: str, n_eigs: int, quad: QuadratureRule | None = None, node_values: np.ndarray | None = None
) -> SpectrumEstimate:
    """Exact eigensystem for kernels with a registered closed form.

    The returned estimate carries the exact trace and an analytic basis
    evaluator `basis(X, n=n_eigs)` of the first n modes; node values are
    tabulated on `quad` (default: the midpoint rule on the unit interval
    with the 1-d `DEFAULT_POINTS["quadrature"]`), unless `node_values`
    holds them already, as a cache entry does.
    A rule on another box raises NoAnalyticSpectrumError: the closed forms
    hold on the unit interval only.
    """
    lam_fn, basis_fn, trace = _registered(kernel_id)
    if n_eigs > ANALYTIC_MAX_TERMS:
        raise InsufficientResolutionError(f"analytic registry tabulates at most {ANALYTIC_MAX_TERMS} modes")
    quad = quad or midpoint_rule(unit_interval(), DEFAULT_POINTS["quadrature"][0])
    if not has_analytic_spectrum(kernel_id, quad.box):
        raise NoAnalyticSpectrumError(f"the closed form of kernel id '{kernel_id}' holds on [0, 1] only, and the rule covers {quad.box}")
    lam = lam_fn(n_eigs)

    def basis(X: np.ndarray, n: int = n_eigs) -> np.ndarray:
        return basis_fn(X, n)

    V = basis(quad.nodes) if node_values is None else node_values
    return SpectrumEstimate(lam, V, quad, source="analytic", trace=trace, basis=basis)


def analytic_eigenvalues(kernel_id: str, n: int) -> np.ndarray:
    return _registered(kernel_id)[0](n)


def analytic_trace(kernel_id: str) -> float:
    return _registered(kernel_id)[2]


def has_analytic_spectrum(kernel_id: str, box: Box | None) -> bool:
    """Whether a closed-form eigensystem of the kernel holds on the box: a registered id on the unit interval."""
    return kernel_id.strip().lower() in _ANALYTIC_REGISTRY and box == unit_interval()


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

