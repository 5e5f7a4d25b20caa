"""Dense complex linear algebra substrate.

Everything downstream runs on three primitives defined here:

- Hermitian eigendecomposition of a symmetrized input
  (:func:`hermitian_eig`), plus functional calculus built on it
  (:func:`matrix_function`, :func:`complex_power`).
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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

SYM_TOL = 1e-10  # relative distance from Hermitian that hermitian_eig accepts


class LinalgError(ValueError):
    """Base class for contract violations in this module."""


class EigensolverError(LinalgError):
    """Eigensolver failed to converge or input was not Hermitian enough."""


class FunctionDomainError(LinalgError):
    """Scalar function undefined (non-finite) at an eigenvalue."""


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
    # complex_power's results, keyed by the bits of the exponent
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)


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


def matrix_function(dec: SpectralDecomposition, f: Callable) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its eigendata.

    ``f`` is called once on the eigenvalue array, so it must be vectorized,
    and must be finite at every eigenvalue.
    """
    w = dec.eigenvalues
    with np.errstate(divide="ignore", invalid="ignore"):
        fw = np.asarray(f(w), dtype=complex)
    if not np.isfinite(fw).all():
        bad = w[~np.isfinite(fw)]
        raise FunctionDomainError(f"function undefined at eigenvalue(s) {bad}")
    u = dec.eigenvectors
    return (u * fw) @ u.conj().T


def complex_power(dec: SpectralDecomposition, z: complex) -> np.ndarray:
    """Matrix power ``Delta^z = U diag(exp(z ln w)) U^dag``.

    Requires strictly positive eigenvalues. For purely imaginary z the result
    is unitary to working precision. Results are memoised per decomposition
    and returned read-only, so repeated powers of one Delta cost a lookup.
    """
    key = np.complex128(z).tobytes()  # tells -0.0 from 0.0, unlike ==
    cached = dec._powers.get(key)
    if cached is not None:
        return cached
    w = dec.eigenvalues
    if np.min(w) <= 0.0:
        raise FunctionDomainError(
            f"complex power needs a positive spectrum, min eigenvalue {np.min(w):.3e}"
        )
    fw = np.exp(z * np.log(w.astype(complex)))
    u = dec.eigenvectors
    power = (u * fw) @ u.conj().T
    power.flags.writeable = False
    dec._powers[key] = power
    return power


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


def polar_antilinear(s: AntilinearMap) -> tuple[AntilinearMap, np.ndarray]:
    """Polar-decompose an invertible antilinear map as S = J o Delta^(1/2).

    Returns ``(J, Delta)`` with ``Delta = M^T conj(M)`` positive self-adjoint
    and ``J`` antiunitary with matrix ``M conj(Delta^(-1/2))``. When S is an
    involution (S o S = 1, the case of every Tomita operator) J is an
    involution too and J Delta J = Delta^(-1); for a generic invertible
    antilinear map only antiunitarity of J is guaranteed.
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
    return j, delta
