"""Tomita operator and modular data of a pair (algebra, cyclic-separating vector).

Given an algebra A with orthonormal basis {a_i} and a unit vector omega that
is cyclic and separating, the antilinear Tomita operator S is fixed by
S(a omega) = a^* omega. Writing B for the square orbit matrix with columns
a_i omega and B_* for the one with columns a_i^* omega, the matrix of S is
``B_* conj(B)^{-1}``. Polar decomposition S = J Delta^(1/2) then yields the
modular conjugation J (antiunitary involution) and the modular operator
Delta (positive, invertible), with S^* = J Delta^(-1/2) and
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
    cyclic_report,
    orbit,
    separating_report,
)
from .linalg import (
    AntilinearMap,
    SpectralDecomposition,
    opnorm_stack,
    polar_antilinear,
)

COND_CAP = 1e6  # refuse basis solves beyond this condition number


class IllConditionedError(AlgebraError):
    def __init__(self, cond: float):
        self.cond = cond
        super().__init__(
            f"basis matrix condition number {cond:.3e} exceeds cap {COND_CAP:.1e}; "
            "refusing to build an untrustworthy Tomita operator"
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

    Preconditions are enforced, with distinct errors carrying the rank
    evidence: omega must be cyclic (orbit rank d) and separating (trivial
    solve nullspace), which forces dim(A) = d and makes the orbit matrix B
    square and invertible. Solves with cond(B) beyond COND_CAP are refused.
    """
    cyc = cyclic_report(orb)
    if not cyc.full:
        raise NotCyclicError(cyc)
    sep = separating_report(orb)
    if not sep.full:
        raise NotSeparatingError(sep)
    a = orb.space
    if a.dim != a.dim_space:
        # cyclic + separating forces dim(A) = d; reaching here means rank
        # certification and subspace dimension disagree
        raise AlgebraError(
            f"inconsistent certification: dim(A) = {a.dim} != d = {a.dim_space}"
        )
    if orb.cond > COND_CAP:
        raise IllConditionedError(orb.cond)
    b = orb.matrix
    b_star = np.column_stack([x.conj().T @ orb.omega for x in a.basis])
    # M conj(B) = B_*  =>  M = solve on the right
    m = np.linalg.solve(b.conj().T, b_star.T).T
    return AntilinearMap(m)


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
