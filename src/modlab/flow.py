"""Modular flow and its analytic continuation.

The flow t -> Delta^{-it} x Delta^{it} is unitary conjugation and preserves
norms; continued to complex z it becomes Delta^{-z} a Delta^{z}, which for
well-prepared (tidy) operators stays uniformly bounded on vertical lines and
grows at most exponentially along the real axis. The checks here measure the
two facts that make the whole construction work at desk scale: flowed algebra
elements stay in the algebra, and their commutators with the commutant vanish
(one kernel, :func:`commutator_ratio`, sweeps them for real and complex times).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import membership_residual
from .linalg import as_square_array, complex_power, opnorm
from .tomita import ModularTriple

RE_Z_CAP = 12.0  # overflow guard: kappa <= 1e4 keeps kappa^12 inside double range
STRIP_RE_MAX = 3  # the strip scan samples the vertical lines Re z = 0..STRIP_RE_MAX
STRIP_IM_VALUES = (-3.0, -1.0, 0.0, 1.0, 2.5)  # Im z sampled on each vertical line


class FlowDomainError(ValueError):
    pass


@dataclass(frozen=True)
class FlowSample:
    """One evaluation of the continued flow: its value and operator norm."""

    z: complex
    value: np.ndarray
    norm: float


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
    z: complex,
) -> FlowSample:
    """Analytically continued flow Delta^{-z} a Delta^{z}.

    The real part of z is capped at RE_Z_CAP to keep Delta^{±z} inside double
    range under the fixture conditioning budget.
    """
    m = as_square_array(a)
    z = complex(z)
    if abs(z.real) > RE_Z_CAP:
        raise FlowDomainError(f"|Re z| = {abs(z.real):.2f} exceeds guard {RE_Z_CAP}")
    left = complex_power(triple.delta_spec, -z)
    right = complex_power(triple.delta_spec, z)
    value = left @ m @ right
    return FlowSample(z=z, value=value, norm=opnorm(value))


def commutator_ratio(x: np.ndarray, norm_x: float, basis) -> float:
    """Largest relative commutator |[x, b]| / (|x| |b|) over the basis elements b.

    norm_x is the caller's operator norm of x; a floor of 1e-30 on the scale
    keeps zero elements from dividing by zero. A NaN ratio is returned, not
    dropped as the builtin ``max`` would drop it.
    """
    ratios = [opnorm(x @ b - b @ x) / max(norm_x * opnorm(b), 1e-30) for b in basis]
    return float(np.max(ratios, initial=0.0))


def tomita_check(
    triple: ModularTriple,
    a,
    t_samples,
) -> list[tuple[float, float]]:
    """Measure algebra invariance of the flow of a at the given times.

    For each t the flowed operator is tested for membership in the algebra and
    for vanishing commutators with every commutant basis element, relative to
    the operator norms involved. Returns one (membership residual, largest
    commutator ratio) pair per time; the caller sets the tolerance.
    """
    m = as_square_array(a)
    norm_a = opnorm(m)
    pairs = []
    for t in t_samples:
        flowed = modular_flow(triple, m, float(t))
        pairs.append((
            membership_residual(flowed, triple.algebra),
            commutator_ratio(flowed, norm_a, triple.commutant.basis),
        ))
    return pairs


def strip_growth_scan(triple: ModularTriple, a) -> list[FlowSample]:
    """Sample |Delta^{-z} a Delta^{z}| on the strip 0 <= Re z <= STRIP_RE_MAX.

    Unitary conjugation makes the norm exactly constant along each vertical
    line, so the table doubles as evidence of boundedness in imaginary
    directions; values at integer Re z are comparable against the ladder
    norms measured by the growth audit.
    """
    samples = []
    for x in range(STRIP_RE_MAX + 1):
        for y in STRIP_IM_VALUES:
            samples.append(analytic_flow(triple, a, complex(x, y)))
    return samples
