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
:func:`commutator_ratio`, sweeps a stack's commutators for real and complex
times alike.

The sweep keeps one number per sample, the largest ratio over the basis, so
from dimension PRUNE_MIN_DIM on it does not decompose every commutator. The
Schatten-8 norm (tr (C^H C)^4)^{1/8}, two batched products of the rescaled
commutator, bounds each operator norm from above; raised by BOUND_MARGIN,
far above its rounding, it also bounds the computed SVD value. Per sample
the largest bound is decomposed first, then only the rivals whose bound
reaches the exact ratio so found. Every other commutator provably cannot
hold the maximum, so the result is the same bits as the full sweep's.
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
PRUNE_MIN_DIM = 8  # below it one SVD of a small matrix costs less than its bound
BOUND_MARGIN = 1e-12  # relative raise of the Schatten-8 bound over its rounding


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
    dividing by zero, and a NaN norm stays in its own sample's ratio. The
    result equals ``np.max(opnorm_stack(c) / scale, axis=1, initial=0.0)``
    bit for bit. Below PRUNE_MIN_DIM that is how it is computed. From there
    on each commutator C gets the upper bound m |(C^H C / m^2)^2|_F^{1/4}
    (1 + BOUND_MARGIN), m = max |c_ij|, which is >= |C|; per sample the SVD
    of the largest bound / scale is taken first, then those of the rivals
    whose bound / scale reaches that exact ratio. A non-finite bound and an
    all-zero commutator always count as rivals. Any other commutator has a
    ratio below one already taken, so it cannot change the maximum.
    """
    x = xs[:, None]
    c = x @ basis - basis @ x
    scale = np.broadcast_to(np.maximum(np.multiply.outer(norms_x, basis_norms), 1e-30),
                            c.shape[:2])
    if c.shape[-1] < PRUNE_MIN_DIM or c.size == 0:
        return np.max(opnorm_stack(c) / scale, axis=1, initial=0.0)
    m = np.max(np.abs(c), axis=(-2, -1))
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite input gives a NaN bound
        unit = c * (1.0 / np.where(m == 0, 1.0, m))[..., None, None]
        gram = unit.conj().swapaxes(-2, -1) @ unit
        bound = (m * np.sqrt(np.sqrt(np.linalg.norm(gram @ gram, axis=(-2, -1))))
                 * (1.0 + BOUND_MARGIN) / scale)
    rows = np.arange(len(c))
    first = np.argmax(bound, axis=1)  # a NaN bound, if any, comes first
    best = opnorm_stack(c[rows, first]) / scale[rows, first]
    ratio = np.zeros(bound.shape)
    ratio[rows, first] = best
    rival = (bound >= best[:, None]) | ~np.isfinite(bound) | (m == 0)
    rival[rows, first] = False
    ratio[rival] = opnorm_stack(c[rival]) / scale[rival]
    return np.max(ratio, axis=1, initial=0.0)


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
