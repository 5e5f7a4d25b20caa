"""Tidy operators: spectral windows, stacked orbit solves, and the transfer bounds.

A tidy operator is an algebra element whose vector a omega is confined to a
bounded spectral window of the modular operator: for a window
0 < lambda_1 < lambda_2 and an integer power n, the vector
``Delta^n Theta(lambda_2 - Delta) Theta(Delta - lambda_1) (source) omega``
is realized both by an element of the algebra and by an element of the
commutant (two independent solves that must agree on the vector).

Every solve is :meth:`modlab.algebra.Orbit.solve` on the orbit map
a -> a omega of either side, for one vector or for a (d, m) block of them in
one LAPACK call. The ladder, the growth audit and the resolvent transfer
each hand it all their vectors at once, and take the norms of what comes
back with one batched SVD; the density check keeps its block's coefficients
over A's basis instead, so no SVD runs over d^2 columns. On top of the
construction sit the quantitative checks:

- the resolvent transfer bound |a| <= |a'| / sqrt(2(|z| - Re z)) for the
  solve a omega = (z - Delta)^{-1} a' omega,
- the closed-form exponential bound on windowed ladder norms and its mirror
  under lambda -> 1/lambda, n -> -n,
- the adjoint-ladder and power-conjugation identities relating ladder
  elements across integer steps,
- span and commutant density of covering-window tidy families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (Orbit, OperatorSubspace, commutant, mutual_projection_residual,
                      numerical_rank)
from .linalg import LinalgError, as_square_array, opnorm, opnorm_stack, power_values
from .tomita import ModularTriple

N_CAP = 8  # |n| cap from the kappa <= 1e4 conditioning budget
GROWTH_N_MAX = 6  # ladder range |n| <= 6 of the growth audit, within N_CAP
BOUNDARY_EPS = 1e-9


class WindowError(ValueError):
    pass


class ResolventDomainError(ValueError):
    pass


def _step(x: np.ndarray, eps: float) -> np.ndarray:
    """Step function with the half-value convention within eps of the jump."""
    return np.where(x > eps, 1.0, np.where(x < -eps, 0.0, 0.5))


def spectral_window(
    triple: ModularTriple,
    lambda1: float,
    lambda2: float,
) -> np.ndarray:
    """Spectral projector onto eigenvalues of Delta inside [lambda1, lambda2].

    Eigenvalues within BOUNDARY_EPS (relative) of a window edge receive
    weight 1/2, matching the half-value step convention; away from edges the
    result is an orthogonal projector.
    """
    if not (0.0 < lambda1 < lambda2):
        raise WindowError(f"window must satisfy 0 < lambda1 < lambda2, got ({lambda1}, {lambda2})")
    e1 = BOUNDARY_EPS * max(1.0, abs(lambda1))
    e2 = BOUNDARY_EPS * max(1.0, abs(lambda2))
    w = triple.delta_spec.eigenvalues
    return triple.delta_spec.function(_step(lambda2 - w, e2) * _step(w - lambda1, e1))


@dataclass(frozen=True)
class TidyOperator:
    """A windowed pair: a in A and a' in A' sharing the vector a omega.

    Its ladder elements, for powers n of Delta, come from :func:`ladder`.
    """

    a: np.ndarray
    a_prime: np.ndarray
    vector: np.ndarray


def make_tidy(
    triple: ModularTriple,
    source,
    lambda1: float,
    lambda2: float,
) -> TidyOperator:
    """Build the tidy pair for a source algebra element and window."""
    src = as_square_array(source)
    w = spectral_window(triple, lambda1, lambda2)
    v = w @ (src @ triple.omega)
    a = triple.orbit.solve(v)
    a_prime = triple.commutant_orbit.solve(v)
    return TidyOperator(a=a, a_prime=a_prime, vector=v)


def ladder(
    triple: ModularTriple,
    orb: Orbit,
    tidy: TidyOperator,
    n,
) -> np.ndarray:
    """Ladder element a_n on the orbit's side, solving a_n omega = Delta^n (a omega).

    n is an integer, or an integer array for the stack of its elements
    (shape n.shape + (d, d)), solved in one call.
    """
    ns = np.asarray(n)
    if np.any(np.abs(ns) > N_CAP):
        raise WindowError(f"|n| = {np.max(np.abs(ns))} exceeds the conditioning cap {N_CAP}")
    v = triple.delta_spec.apply(power_values(triple.delta_spec, ns), tidy.vector)
    return orb.solve(np.moveaxis(v, -1, 0))


# ---------------------------------------------------------------------------
# Resolvent transfer
# ---------------------------------------------------------------------------

AXIS_GAP = 1e-6  # |z| - Re(z) floor; the bound degenerates on the positive real axis


def axis_gap(z) -> np.ndarray:
    """|z| - Re z, elementwise, without cancellation near the positive real axis.

    For Re z > 0 the difference is taken as Im(z)^2 / (|z| + Re z), which
    equals it and has no subtraction; elsewhere |z| - Re z adds two
    non-negative numbers.
    """
    zs = np.asarray(z, dtype=complex)
    r, x = np.abs(zs), zs.real
    return np.divide(zs.imag ** 2, r + x, out=np.asarray(r - x), where=x > 0)


@dataclass(frozen=True)
class ResolventTransfer:
    """The solved elements a, their norms, and the transfer bounds |a'| / sqrt(2 (|z| - Re z)).

    One entry per sample, in the shape of the z's the transfer was given.
    """

    a: np.ndarray
    measured_norm: np.ndarray
    bound: np.ndarray


def resolvent_transfer(
    triple: ModularTriple,
    source,
    z,
    mirror: bool = False,
) -> ResolventTransfer:
    """Solve a omega = (z - Delta)^{-1} a' omega and audit the transfer bound, per sample.

    z is one complex number or an array of them, and source the matching
    (d, d) element or (..., d, d) stack; one solve takes every sample and one
    batched SVD every norm. By default the source a' is expected in the
    commutant and the solve runs in the algebra. With ``mirror`` the roles
    swap: the source lies in the algebra and the solve runs in the commutant,
    whose modular operator is Delta^{-1}, so the resolvent is that of
    Delta^{-1}. Each z must lie outside the spectrum of the operator used,
    with |z| - Re(z) > AXIS_GAP.
    """
    zs = np.asarray(z, dtype=complex)
    src = np.asarray(source, dtype=complex)
    d = triple.dim
    if src.shape != zs.shape + (d, d) or not np.isfinite(src).all():
        raise LinalgError(f"sources must be finite {zs.shape + (d, d)}, got shape {src.shape}")
    zf, sources = zs.reshape(-1, 1), src.reshape(-1, d, d)
    gap = axis_gap(zf)
    if np.any(gap <= AXIS_GAP):
        raise ResolventDomainError(f"z = {zf[gap <= AXIS_GAP][0]} is too close to the positive "
                                   f"real axis (|z| - Re z <= {AXIS_GAP})")
    w = triple.delta_spec.eigenvalues
    if mirror:
        name, orb, spectrum = "Delta^(-1)", triple.commutant_orbit, 1.0 / w
    else:
        name, orb, spectrum = "Delta", triple.orbit, w
    inside = np.any(np.abs(zf - spectrum) <= AXIS_GAP, axis=1)
    if inside.any():
        raise ResolventDomainError(f"z = {zf[inside, 0][0]} is inside the spectrum of {name}")
    # row i: U diag(1 / (z_i - spectrum)) U^dag a'_i omega
    a = orb.solve(triple.delta_spec.apply(1.0 / (zf - spectrum), sources @ triple.omega).T)
    norms = opnorm_stack(np.concatenate([a, sources])).reshape(2, *zs.shape)
    return ResolventTransfer(a=a.reshape(src.shape), measured_norm=norms[0][()],
                             bound=(norms[1] / np.sqrt(2.0 * gap.reshape(zs.shape)))[()])


# ---------------------------------------------------------------------------
# Closed-form exponential bounds
# ---------------------------------------------------------------------------


def tidy_bound(lam: float, n: int, norm_source: float) -> float:
    """Closed-form norm bound for one-sided windowed ladder elements, n >= 0.

    Exact evaluation of
    (|a'| / 2 pi) * (2 lam (lam^2 + 4 pi^2)^{n/2} / sqrt(2((lam^2+4pi^2)^{1/2} - lam))
                     + (2 pi)^{n+1} pi / sqrt(4 pi));
    monotone increasing in n and in lam.
    """
    if lam <= 0:
        raise WindowError(f"bound requires lambda > 0, got {lam}")
    lam = float(lam)
    r2 = lam * lam + 4.0 * math.pi * math.pi
    first = 2.0 * lam * r2 ** (n / 2.0) / math.sqrt(2.0 * (math.sqrt(r2) - lam))
    second = (2.0 * math.pi) ** (n + 1) * math.pi / math.sqrt(4.0 * math.pi)
    return norm_source / (2.0 * math.pi) * (first + second)


def growth_audit(triple: ModularTriple, source, lambda1: float, lambda2: float):
    """Measure ladder norms against the closed-form bounds for |n| <= GROWTH_N_MAX.

    Returns (ns, norms, bounds, (slope_pos, slope_neg)) for
    ns = -GROWTH_N_MAX..GROWTH_N_MAX. Both solve families share the windowed
    vector: norms[0] holds the algebra-side ladder norms |a_n| and norms[1]
    the commutant-side |a'_n|. Both families at one n are compared against
    the same bound, the sign-appropriate closed form: tidy_bound(lambda_2, n,
    |a'_0|) for n >= 0 and its mirror tidy_bound(1 / lambda_1, -n, |a_0|) for
    n < 0. The bounds are audited, not asserted: the closed form is derived
    through a contour identity that drops enclosed sigmoid poles, and
    measurements show its n = 0 constant can be exceeded: the worst a-row
    ratio is 1.356 on the default run, 1.364 on direct_sum(2:2,1:1) x 150
    trials and 1.118 on standard_factor(4) x 2 trials, while each step away
    from n = 0 multiplies the slack by roughly 2 pi. An a'-row above its
    bound reads 1 / C(0.9) = 1.0277, a constant of the formula: at n = 0 it
    compares |a'_0| with C(0.9) |a'_0|. The exponential growth rate itself
    is confirmed by the fitted least-squares slopes of log|a_n| against n for
    n >= 0 and of log|a'_n| against -n for n <= 0 (NaN when a norm is not
    finite). Each side's ladder is one stacked solve, and one batched SVD
    takes all 2 + 2 (2 GROWTH_N_MAX + 1) norms.
    """
    base = make_tidy(triple, source, lambda1, lambda2)
    ns = np.arange(-GROWTH_N_MAX, GROWTH_N_MAX + 1)
    norms = opnorm_stack(np.concatenate([
        np.stack([base.a, base.a_prime]),
        ladder(triple, triple.orbit, base, ns),
        ladder(triple, triple.commutant_orbit, base, ns),
    ]))
    norm_a0, norm_a0p = norms[:2].tolist()
    norms = norms[2:].reshape(2, ns.size)
    bounds = np.array([tidy_bound(lambda2, n, norm_a0p) if n >= 0
                       else tidy_bound(1.0 / lambda1, -n, norm_a0) for n in ns.tolist()])
    logs = np.log(np.maximum(norms, 1e-300))
    pos, neg = ns >= 0, ns <= 0
    slopes = (_fit_slope(ns[pos], logs[0, pos]), _fit_slope(-ns[neg], logs[1, neg]))
    return ns, norms, bounds, slopes


def _fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x; NaN when a y is not finite (a broken norm)."""
    if not np.all(np.isfinite(y)):
        return math.nan
    x = x - x.mean()
    return float(x @ (y - y.mean()) / (x @ x))


# ---------------------------------------------------------------------------
# Ladder identities
# ---------------------------------------------------------------------------


def dagger_ladder_check(triple: ModularTriple, tidy: TidyOperator, a_n: np.ndarray,
                        ap_next: np.ndarray):
    """Residuals of the adjoint-ladder identity (a'_{n+1})^* omega = (a_n)^* omega.

    a_n and ap_next are the caller's ladder solves of tidy on the algebra
    side at n and on the commutant side at n + 1, one (d, d) pair or two
    (m, d, d) stacks. Returns (residuals, scales), one per pair: each scale
    is the largest of the two sides' norms and |a omega|, the magnitude that
    solve errors in double precision are relative to (the ladder vectors
    grow like |Delta|^n). The caller's tolerance is a kappa-scaled multiple
    of the scale. A side whose norm is NaN leaves the scale finite, so the
    NaN reaches only the residual.
    """
    lhs = ap_next.conj().swapaxes(-1, -2) @ triple.omega
    rhs = a_n.conj().swapaxes(-1, -2) @ triple.omega
    residual = np.linalg.norm(lhs - rhs, axis=-1)
    scale = np.fmax(np.fmax(np.linalg.norm(lhs, axis=-1), np.linalg.norm(rhs, axis=-1)),
                    np.fmax(np.linalg.norm(tidy.vector), 1e-30))
    return residual, scale


def powers_check(triple: ModularTriple, tidy_a: TidyOperator, tidy_b: TidyOperator, ns,
                 a_n: np.ndarray):
    """Residuals of Delta^n a Delta^{-n} b omega = a_n b omega, one per n of ns.

    a_n is the caller's (len(ns), d, d) ladder stack of tidy_a on the algebra
    side. The two sides travel independent paths: powers of Delta applied in
    its eigenbasis on the left, a ladder solve on the right. Returns
    (residuals, scales): each scale is the largest of the two sides' norms and
    |a| |b omega|, and the caller's tolerance multiplies it by the
    kappa^{(|n| + 1)/2} amplification of the power sandwich. A NaN side leaves
    the scale finite.
    """
    ns = np.asarray(ns)
    if np.any(np.abs(ns) > 6):
        raise WindowError(f"|n| = {np.max(np.abs(ns))} exceeds the power-identity cap 6")
    spec = triple.delta_spec
    b_omega = tidy_b.vector
    inner = tidy_a.a @ spec.apply(power_values(spec, -ns), b_omega)[..., None]
    lhs = spec.apply(power_values(spec, ns), inner[..., 0])
    rhs = a_n @ b_omega
    residual = np.linalg.norm(lhs - rhs, axis=-1)
    scale = np.fmax(np.fmax(np.linalg.norm(lhs, axis=-1), np.linalg.norm(rhs, axis=-1)),
                    np.fmax(opnorm(tidy_a.a) * np.linalg.norm(b_omega), 1e-30))
    return residual, scale


# ---------------------------------------------------------------------------
# Density checks
# ---------------------------------------------------------------------------


def tidy_bicommutant_check(
    triple: ModularTriple,
    windows,
) -> tuple[int, float]:
    """Span rank of the windowed vectors W a_i omega, and the residual of (tidy set)' = A'.

    The tidy set has one algebra element per basis element a_i and window W
    (n = 0), with vector W a_i omega. Its coefficients over A's orthonormal
    basis, C = B^-1 [W_1 B, ..., W_W B] with B the orbit matrix, come from
    one :meth:`Orbit.coefficients` solve, and one SVD of this d x (W dim A)
    matrix gives both records:

    - the span rank, the numerical rank of C: B is invertible, so it is the
      rank of the windowed vectors B C, and a missed eigenspace shows up as a
      deficit of its dimension. When the window projectors sum to 1 (disjoint
      covering windows), C [1; ...; 1] = 1, so sigma_min(C) >= 1 / sqrt(W),
      while sigma_max(C) <= sqrt(W) cond(B) <= sqrt(W) COND_CAP: rank d holds
      at every kappa the solve accepts, for W < 1 / (RANK_TOL COND_CAP);
    - the residual: A's basis is orthonormal, so the elements with C's
      leading left singular vectors as coefficients are an orthonormal basis
      of the tidy span T, and one commutant of it is compared with A'. Given
      A'' = A (``density/algebra-bicommutant``), T' = A' holds exactly when
      T'' = A, as T''' = T' for any set; the engine does not run a second
      time on its own output (T' -> T'').

    The empty leading block keeps an empty window list valid.
    """
    b = triple.orbit.matrix
    block = np.hstack([np.zeros((triple.dim, 0)),
                       *(spectral_window(triple, l1, l2) @ b for (l1, l2) in windows)])
    u, sv, _ = np.linalg.svd(triple.orbit.coefficients(block), full_matrices=False)
    rank = numerical_rank(sv)
    tidy_span = OperatorSubspace(triple.dim, triple.orbit.space.element(u[:, :rank].T))
    return rank, mutual_projection_residual(commutant(tidy_span), triple.commutant)
