"""Tomita operator and modular data of a pair (algebra, cyclic-separating vector).

Given an algebra A with orthonormal basis {a_i} and a unit vector omega that
is cyclic and separating, the antilinear Tomita operator S is fixed by
S(a omega) = a^* omega, and its matrix is read off that definition: the
orbit solve gives the elements x_j with x_j omega = e_j, and column j of the
matrix is S e_j = x_j^* omega. Polar decomposition S = J Delta^(1/2) then
yields the modular conjugation J (antiunitary involution) and the modular
operator Delta (positive, invertible), with S^* = J Delta^(-1/2) and
J Delta J = Delta^(-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    AlgebraError,
    NotCyclicError,
    NotSeparatingError,
    OperatorSubspace,
    Orbit,
    orbit,
)
from .linalg import (
    AntilinearMap,
    SpectralDecomposition,
    opnorm_stack,
    polar_antilinear,
)


class ModularBreakdownError(AlgebraError):
    def __init__(self, min_eig: float, kappa: float):
        self.min_eig = min_eig
        self.kappa = kappa
        super().__init__(
            f"modular operator lost positivity (min eigenvalue {min_eig:.3e}, "
            f"condition number {kappa:.3e})"
        )


@dataclass(frozen=True)
class ModularTriple:
    """The standard form (A, A', omega) with its modular data S, J, Delta.

    Each side is held as its orbit map b -> b omega, built and factored once;
    every solve on A or A' reads it.
    """

    orbit: Orbit
    commutant_orbit: Orbit
    s: AntilinearMap
    j: AntilinearMap
    delta: np.ndarray
    delta_spec: SpectralDecomposition
    kappa: float

    @property
    def omega(self) -> np.ndarray:
        return self.orbit.omega

    @property
    def algebra(self) -> OperatorSubspace:
        return self.orbit.space

    @property
    def commutant(self) -> OperatorSubspace:
        return self.commutant_orbit.space

    @cached_property
    def commutant_norms(self) -> np.ndarray:
        """Operator norms of the commutant's basis elements, taken once per triple, read-only."""
        norms = opnorm_stack(self.commutant.basis)
        norms.flags.writeable = False
        return norms

    @property
    def dim(self) -> int:
        return self.omega.shape[0]

    @property
    def s_star(self) -> AntilinearMap:
        return self.s.adjoint()


def tomita_operator(orb: Orbit) -> AntilinearMap:
    """Antilinear S with S(x omega) = x^* omega for every x in the algebra.

    omega must be cyclic (orbit rank d) and separating (orbit rank dim(A)),
    each refused with its own error carrying the rank; together they force
    dim(A) = d. Column j of S's matrix is S e_j = x_j^* omega, for the
    elements x_j = orb.solve(I)[j] with x_j omega = e_j, in one solve that
    refuses cond beyond COND_CAP.
    """
    d, dim, rank = orb.space.dim_space, orb.space.dim, orb.rank
    if rank < d:
        raise NotCyclicError(rank, d)
    if rank < dim:
        raise NotSeparatingError(rank, dim)
    x = orb.solve(np.eye(d))
    return AntilinearMap((x.conj().swapaxes(-1, -2) @ orb.omega).T)


def modular_data(a: OperatorSubspace, omega, commutant: OperatorSubspace) -> ModularTriple:
    """Construct the standard form and its modular data for (A, A', omega).

    The commutant is supplied by the caller, which already holds it; it is
    not recomputed here.
    """
    orb = orbit(a, omega)
    s = tomita_operator(orb)
    j, delta, spec = polar_antilinear(s)
    w = spec.eigenvalues
    kappa = float(w[-1] / w[0]) if w[0] > 0 else np.inf
    if w[0] <= 0.0:
        raise ModularBreakdownError(float(w[0]), kappa)
    return ModularTriple(
        orbit=orb,
        commutant_orbit=orbit(commutant, orb.omega),
        s=s, j=j, delta=delta, delta_spec=spec, kappa=kappa,
    )
