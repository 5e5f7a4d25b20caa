"""Modular flow and its analytic continuation.

The flow t -> Delta^{-it} x Delta^{it} is unitary conjugation and preserves
norms; continued to complex z it becomes Delta^{-z} a Delta^{z}, which for
well-prepared (tidy) operators stays uniformly bounded on vertical lines and
grows at most exponentially along the real axis. The checks here measure the
two facts that make the whole construction work at desk scale: flowed algebra
elements stay in the algebra, and their commutators with the commutant vanish.
Both run on stacks: :func:`tomita_check` flows the whole algebra basis at all
times at once, :func:`analytic_flow` continues one element to a whole array of
complex times with one batched SVD for their norms, and one kernel,
:func:`commutator_ratio`, takes the norms of a stack's commutators with one
batched SVD, for real and complex times alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_square_array, complex_power, opnorm_stack
from .linalg import opnorm  # noqa: F401  perfbench's tracer tests call modlab.flow.opnorm
from .tomita import ModularTriple

RE_Z_CAP = 12.0  # overflow guard: kappa <= 1e4 keeps kappa^12 inside double range
STRIP_RE_MAX = 3  # the strip scan samples the vertical lines Re z = 0..STRIP_RE_MAX
STRIP_IM_VALUES = (-3.0, -1.0, 0.0, 1.0, 2.5)  # Im z sampled on each vertical line


class FlowDomainError(ValueError):
    pass


@dataclass(frozen=True)
class FlowSample:
    """The continued flow at an array of z: its values (z.shape + (d, d)) and operator norms."""

    value: np.ndarray
    norm: np.ndarray


def modular_flow(triple: ModularTriple, x, t: float) -> np.ndarray:
    """Conjugate x by the modular unitaries: Delta^{-it} x Delta^{it}."""
    m = as_square_array(x)
    if m.shape[0] != triple.dim:
        raise FlowDomainError(
            f"operator dimension {m.shape[0]} does not match triple dimension {triple.dim}"
        )
    u = complex_power(triple.delta_spec, -1j * t)
    return u @ m @ u.conj().T


def analytic_flow(
    triple: ModularTriple,
    a,
    z,
) -> FlowSample:
    """Analytically continued flow Delta^{-z} a Delta^{z}, at one z or an array of them.

    The values have shape z.shape + (d, d); one batched SVD takes their
    norms. The real part of each z is capped at RE_Z_CAP to keep Delta^{±z}
    inside double range under the fixture conditioning budget.
    """
    m = as_square_array(a)
    zs = np.asarray(z, dtype=complex)
    if np.any(np.abs(zs.real) > RE_Z_CAP):
        raise FlowDomainError(f"|Re z| = {np.max(np.abs(zs.real)):.2f} exceeds guard {RE_Z_CAP}")
    points = zs.ravel().tolist()
    left = np.array([complex_power(triple.delta_spec, -x) for x in points])
    right = np.array([complex_power(triple.delta_spec, x) for x in points])
    value = (left @ m @ right).reshape(*zs.shape, *m.shape)
    return FlowSample(value=value, norm=opnorm_stack(value)[()])


def commutator_ratio(xs: np.ndarray, norms_x, basis: np.ndarray, basis_norms) -> np.ndarray:
    """Largest relative commutator |[x, b]| / (|x| |b|) over the basis, per x of an (n, d, d) stack.

    norms_x (n of them, or one for all) and basis_norms are the caller's
    operator norms; a floor of 1e-30 on each scale keeps zero elements from
    dividing by zero. One batched SVD takes all commutator norms, and a NaN
    norm stays in its own sample's ratio.
    """
    x = xs[:, None]
    scale = np.maximum(np.multiply.outer(norms_x, basis_norms), 1e-30)
    return np.max(opnorm_stack(x @ basis - basis @ x) / scale, axis=1, initial=0.0)


def tomita_check(triple: ModularTriple, basis: np.ndarray, t_samples):
    """Membership residuals and largest commutator ratios of the flowed basis, (k, T) each.

    Each Delta^{-it} a Delta^{it} is projected onto the algebra (the residual
    of ``membership_residual``) and commuted with every commutant basis
    element, relative to the operator norms involved; the caller sets the
    tolerance. Commutators are taken one a at a time, T dim(A') matrices.
    """
    u = np.stack([complex_power(triple.delta_spec, -1j * float(t)) for t in t_samples])
    flowed = u @ basis[:, None] @ u.conj().transpose(0, 2, 1)  # (k, T, d, d)
    x = flowed.reshape(-1, triple.dim ** 2)
    f = triple.algebra.flat()
    membership = (np.linalg.norm(x - (x @ f.conj().T) @ f, axis=1)
                  / np.maximum(np.linalg.norm(x, axis=1), 1e-30))
    commutator = [commutator_ratio(fa, norm_a, triple.commutant.basis, triple.commutant_norms)
                  for fa, norm_a in zip(flowed, opnorm_stack(basis))]
    return membership.reshape(len(basis), len(u)), np.array(commutator)


def strip_growth_scan(triple: ModularTriple, a) -> FlowSample:
    """Sample |Delta^{-z} a Delta^{z}| on the strip 0 <= Re z <= STRIP_RE_MAX.

    The samples form a (STRIP_RE_MAX + 1, len(STRIP_IM_VALUES)) grid, row x
    the vertical line Re z = x. Unitary conjugation makes the norm exactly
    constant along each line, so the table doubles as evidence of
    boundedness in imaginary directions; values at integer Re z are
    comparable against the ladder norms measured by the growth audit.
    """
    z = np.arange(STRIP_RE_MAX + 1.0)[:, None] + 1j * np.array(STRIP_IM_VALUES)
    return analytic_flow(triple, a, z)
