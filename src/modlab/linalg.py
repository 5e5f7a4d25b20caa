"""Dense complex linear algebra substrate.

Everything downstream runs on two primitives defined here:

- Hermitian eigendecomposition of a symmetrized input (:func:`hermitian_eig`).
  Its :class:`SpectralDecomposition` alone reads the eigenbasis: every
  function of the matrix goes through its ``apply`` or ``function``.
- Antilinear maps, stored as a matrix ``M`` acting by ``psi -> M @ conj(psi)``
  (:class:`AntilinearMap`), with composition, adjoint, and a polar
  decomposition into an antiunitary factor and a positive operator
  (:func:`polar_antilinear`).

Conventions, fixed globally:

- the inner product is conjugate-linear in the first slot and linear in the
  second: ``<phi, psi> = phi^dag psi``;
- the antilinear adjoint ``T*`` satisfies ``<T* phi, psi> = <T psi, phi>``,
  so its matrix is ``transpose(M)``;
- operator norm means largest singular value, ``frob`` the trace norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SYM_TOL = 1e-10  # relative distance from Hermitian that hermitian_eig accepts


class LinalgError(ValueError):
    """Base class for contract violations in this module."""


class EigensolverError(LinalgError):
    """Eigensolver failed to converge or input was not Hermitian enough."""


class FunctionDomainError(LinalgError):
    """Function undefined at an eigenvalue: a complex power of a nonpositive spectrum."""


class SingularMapError(LinalgError):
    """Operation requires an invertible matrix and got a singular one."""


def as_square_array(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex square ndarray, rejecting non-square or non-finite input."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise LinalgError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise LinalgError(f"{name} contains non-finite entries")
    return m


def opnorm(a: np.ndarray) -> float:
    """Operator norm (largest singular value), or NaN when the SVD fails.

    The same bits as ``np.linalg.norm(a, 2)``, which takes this SVD too, in
    half the time on small matrices. A non-finite entry makes the SVD raise;
    the NaN lets the check that asked record a failed sample instead.
    """
    try:
        return float(np.linalg.svd(a, compute_uv=False)[0])
    except np.linalg.LinAlgError:
        return math.nan


def opnorm_stack(a: np.ndarray) -> np.ndarray:
    """Operator norm of each matrix of a (..., d, d) stack: opnorm's bits, one SVD call.

    A batched SVD raises on one non-finite matrix, so only the finite ones are
    decomposed; each other one reads NaN, as opnorm gives it.
    """
    finite = np.isfinite(a).all(axis=(-2, -1))
    out = np.full(finite.shape, math.nan)
    out[finite] = np.linalg.svd(a[finite], compute_uv=False)[..., 0]
    return out


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def rel_residual(x: np.ndarray, y: np.ndarray) -> float:
    """Norm of the difference scaled by max(norms, 1).

    Works for vectors (2-norm) and matrices (Frobenius). The floor of 1 keeps
    the residual meaningful when both sides are near zero.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    scale = max(float(np.linalg.norm(x)), float(np.linalg.norm(y)), 1.0)
    return float(np.linalg.norm(x - y)) / scale


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendata of a Hermitian matrix: ascending eigenvalues, unitary eigenvectors."""

    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # unitary, columns are eigenvectors

    def apply(self, values, v) -> np.ndarray:
        """U (values * U^dag v) for the rows v of a (..., d) array; values broadcast against v."""
        u = self.eigenvectors
        return (values * (np.asarray(v, dtype=complex) @ u.conj())) @ u.T

    def function(self, values) -> np.ndarray:
        """U diag(values) U^dag for values of shape (..., d): shape (..., d, d)."""
        u = self.eigenvectors
        return (u * np.asarray(values)[..., None, :]) @ u.conj().T


def hermitian_eig(h) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix.

    The input is symmetrized as (H + H^dag)/2 before factorization; inputs
    further than SYM_TOL (relative) from Hermitian are rejected. The result is
    LAPACK's ``eigh`` output as is: its accuracy is not checked here (the tests
    measure the reconstruction error).
    """
    m = as_square_array(h, "eigendecomposition input")
    scale = max(frob(m), 1.0)
    if frob(m - m.conj().T) > SYM_TOL * scale:
        raise EigensolverError(
            f"input is not Hermitian within tolerance: asymmetry "
            f"{frob(m - m.conj().T):.3e} > {SYM_TOL:.1e} * {scale:.3e}"
        )
    sym = (m + m.conj().T) / 2.0
    try:
        w, u = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # iteration cap exceeded inside LAPACK
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u)


def power_values(dec: SpectralDecomposition, z) -> np.ndarray:
    """The values exp(z ln w) of Delta^z at a positive spectrum w, shape z.shape + (d,)."""
    w = dec.eigenvalues
    if np.min(w) <= 0.0:
        raise FunctionDomainError(
            f"complex power needs a positive spectrum, min eigenvalue {np.min(w):.3e}"
        )
    return np.exp(np.asarray(z)[..., None] * np.log(w.astype(complex)))


def complex_power(dec: SpectralDecomposition, z) -> np.ndarray:
    """Matrix powers ``Delta^z = U diag(exp(z ln w)) U^dag``, at one z or an array of them.

    The result has shape z.shape + (d, d); each power has the bits of the
    single-exponent formula. For purely imaginary z each power is unitary to
    working precision.
    """
    return dec.function(power_values(dec, z))


@dataclass(frozen=True)
class AntilinearMap:
    """Antilinear operator ``T psi = matrix @ conj(psi)``."""

    matrix: np.ndarray

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        return self.matrix @ np.conj(np.asarray(psi, dtype=complex))

    def adjoint(self) -> "AntilinearMap":
        """Antilinear adjoint, satisfying <T* phi, psi> = <T psi, phi>."""
        return AntilinearMap(self.matrix.T.copy())

    def compose(self, other: "AntilinearMap") -> np.ndarray:
        """Composition with another antilinear map: the LINEAR map N @ conj(M)."""
        return self.matrix @ np.conj(other.matrix)

    def compose_linear(self, linear: np.ndarray) -> "AntilinearMap":
        """T o L for a linear map L: antilinear with matrix M @ conj(L)."""
        return AntilinearMap(self.matrix @ np.conj(linear))


def polar_antilinear(s: AntilinearMap) -> tuple[AntilinearMap, np.ndarray, SpectralDecomposition]:
    """Polar-decompose an invertible antilinear map as S = J o Delta^(1/2).

    Returns ``(J, Delta, hermitian_eig(Delta))`` with ``Delta = M^T conj(M)``
    positive self-adjoint and ``J`` antiunitary with matrix
    ``M conj(Delta^(-1/2))``. When S is an involution (S o S = 1, the case of
    every Tomita operator) J is an involution too and J Delta J = Delta^(-1);
    for a generic invertible antilinear map only antiunitarity of J is
    guaranteed.
    """
    m = s.matrix
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= 1e-14 * sv[0]:
        raise SingularMapError(
            f"antilinear map is numerically singular (sigma_min/sigma_max = "
            f"{sv[-1] / sv[0]:.3e}); the reference vector cannot be separating"
        )
    delta = m.T @ np.conj(m)
    dec = hermitian_eig(delta)
    inv_sqrt = complex_power(dec, -0.5)
    j = AntilinearMap(m @ np.conj(inv_sqrt))
    return j, delta, dec
