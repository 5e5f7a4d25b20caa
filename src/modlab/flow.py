"""Modular flow and its analytic continuation, from one kernel.

The flow t -> Delta^{-it} x Delta^{it} is unitary conjugation and preserves
norms; continued to complex z it becomes Delta^{-z} x Delta^{z}, which for
well-prepared (tidy) operators stays uniformly bounded on vertical lines and
grows at most exponentially along the real axis. The two are one object, and
:func:`analytic_flow` is the one kernel that computes it: the modular flow at
time t is the continuation at z = i t. It takes an element or a stack of them
at one z or an array of z, with one batched power of Delta per side. The
checks here measure the two facts that make the whole construction work at
desk scale: flowed algebra elements stay in the algebra, and their
commutators with the commutant vanish. :func:`tomita_check` flows the whole
algebra basis at all times at once, and one kernel,
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

import numpy as np

from .algebra import membership_residual
from .linalg import complex_power, opnorm_stack
from .linalg import opnorm  # noqa: F401  perfbench's tracer tests call modlab.flow.opnorm
from .tomita import ModularTriple

RE_Z_CAP = 12.0  # overflow guard: kappa <= 1e4 keeps kappa^12 inside double range
STRIP_RE_MAX = 3  # the strip scan samples the vertical lines Re z = 0..STRIP_RE_MAX
STRIP_IM_VALUES = (-3.0, -1.0, 0.0, 1.0, 2.5)  # Im z sampled on each vertical line
PRUNE_MIN_DIM = 8  # below it one SVD of a small matrix costs less than its bound
BOUND_MARGIN = 1e-12  # relative raise of the Schatten-8 bound over its rounding


class FlowDomainError(ValueError):
    pass


def analytic_flow(triple: ModularTriple, x, z) -> np.ndarray:
    """Analytically continued flow Delta^{-z} x Delta^{z}, the modular flow at z = i t.

    x is one (d, d) operator or a (k, d, d) stack, z one point or an array;
    the values have shape x.shape[:-2] + z.shape + (d, d). The real part of
    each z is capped at RE_Z_CAP to keep Delta^{+-z} inside double range
    under the fixture conditioning budget.
    """
    m = np.asarray(x, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2:] != (triple.dim, triple.dim):
        raise FlowDomainError(
            f"operator shape {m.shape} is not (d, d) or (k, d, d), d = {triple.dim}"
        )
    if not np.isfinite(m).all():
        raise FlowDomainError("operator contains non-finite entries")
    zs = np.asarray(z, dtype=complex)
    if np.any(np.abs(zs.real) > RE_Z_CAP):
        raise FlowDomainError(f"|Re z| = {np.max(np.abs(zs.real)):.2f} exceeds guard {RE_Z_CAP}")
    m = m.reshape(m.shape[:-2] + (1,) * zs.ndim + m.shape[-2:])
    return complex_power(triple.delta_spec, -zs) @ m @ complex_power(triple.delta_spec, zs)


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
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite input gives a NaN ratio
        c = x @ basis - basis @ x
        scale = np.broadcast_to(np.maximum(np.multiply.outer(norms_x, basis_norms), 1e-30),
                                c.shape[:2])
        if c.shape[-1] < PRUNE_MIN_DIM or c.size == 0:
            return np.max(opnorm_stack(c) / scale, axis=1, initial=0.0)
        m = np.max(np.abs(c), axis=(-2, -1))
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
    flowed = analytic_flow(triple, basis, 1j * np.asarray(t_samples, dtype=float))
    commutator = [commutator_ratio(fa, norm_a, triple.commutant.basis, triple.commutant_norms)
                  for fa, norm_a in zip(flowed, opnorm_stack(basis))]
    return membership_residual(flowed, triple.algebra), np.array(commutator)


def strip_growth_scan(triple: ModularTriple, a) -> np.ndarray:
    """|Delta^{-z} a Delta^{z}| sampled on the strip 0 <= Re z <= STRIP_RE_MAX.

    The norms form a (STRIP_RE_MAX + 1, len(STRIP_IM_VALUES)) grid, row x
    the vertical line Re z = x. Unitary conjugation makes the norm exactly
    constant along each line, so the table doubles as evidence of
    boundedness in imaginary directions; values at integer Re z are
    comparable against the ladder norms measured by the growth audit.
    """
    z = np.arange(STRIP_RE_MAX + 1.0)[:, None] + 1j * np.array(STRIP_IM_VALUES)
    return opnorm_stack(analytic_flow(triple, a, z))
