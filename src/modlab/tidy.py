"""Tidy operators: spectral windows, basis solves, and the transfer bounds.

A tidy operator is an algebra element whose vector a omega is confined to a
bounded spectral window of the modular operator: for a window
0 < lambda_1 < lambda_2 and an integer power n, the vector
``Delta^n Theta(lambda_2 - Delta) Theta(Delta - lambda_1) (source) omega``
is realized both by an element of the algebra and by an element of the
commutant (two independent solves that must agree on the vector). On top of
the construction sit the quantitative checks:

- the resolvent transfer bound |a| <= |a'| / sqrt(2(|z| - Re z)) for the
  solve a omega = (z - Delta)^{-1} a' omega,
- the closed-form exponential bound on windowed ladder norms and its mirror
  under lambda -> 1/lambda, n -> -n,
- the adjoint-ladder and power-conjugation identities relating ladder
  elements across integer steps,
- span and bicommutant density of covering-window tidy families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    Orbit,
    RankReport,
    bicommutant,
    mutual_projection_residual,
    numerical_rank,
    subspace_orthonormalize,
)
from .linalg import as_square_array, complex_power, matrix_function, opnorm
from .tomita import ModularTriple, IllConditionedError, COND_CAP

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

    return matrix_function(
        triple.delta_spec, lambda w: _step(lambda2 - w, e2) * _step(w - lambda1, e1)
    )


def operator_from_vector(v, orb: Orbit) -> np.ndarray:
    """The unique element a of the orbit's subspace with a omega = v.

    Existence and uniqueness come from omega being cyclic and separating (the
    orbit matrix B with columns b_i omega is square and invertible); the map
    v -> a is linear. Solves with cond(B) beyond the global cap are refused.
    """
    v = np.asarray(v, dtype=complex)
    b = orb.matrix
    if b.shape[0] != b.shape[1]:
        raise ResolventDomainError(
            f"solve needs dim(A) = d, got {b.shape[1]} basis elements at dimension {b.shape[0]}"
        )
    if orb.cond > COND_CAP:
        raise IllConditionedError(orb.cond)
    coeffs = np.linalg.solve(b, v)
    return orb.space.element(coeffs)


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
    a = operator_from_vector(v, triple.orbit)
    a_prime = operator_from_vector(v, triple.commutant_orbit)
    return TidyOperator(a=a, a_prime=a_prime, vector=v)


def ladder(
    triple: ModularTriple,
    orb: Orbit,
    tidy: TidyOperator,
    n: int,
) -> np.ndarray:
    """Ladder element a_n on the orbit's side, solving a_n omega = Delta^n (a omega)."""
    if abs(n) > N_CAP:
        raise WindowError(f"|n| = {abs(n)} exceeds the conditioning cap {N_CAP}")
    v = complex_power(triple.delta_spec, n) @ tidy.vector
    return operator_from_vector(v, orb)


# ---------------------------------------------------------------------------
# Resolvent transfer
# ---------------------------------------------------------------------------

AXIS_GAP = 1e-6  # |z| - Re(z) floor; the bound degenerates on the positive real axis


@dataclass(frozen=True)
class ResolventTransfer:
    """The solved element a, its norm, and the transfer bound |a'| / sqrt(2 (|z| - Re z))."""

    a: np.ndarray
    measured_norm: float
    bound: float


def resolvent_transfer(
    triple: ModularTriple,
    source,
    z: complex,
    mirror: bool = False,
) -> ResolventTransfer:
    """Solve a omega = (z - Delta)^{-1} a' omega and audit the transfer bound.

    By default the source a' is expected in the commutant and the solve runs
    in the algebra. With ``mirror`` the roles swap: the source lies in the
    algebra and the solve runs in the commutant, whose modular operator is
    Delta^{-1}, so the resolvent is that of Delta^{-1}. z must lie outside the
    spectrum of the operator used, with |z| - Re(z) > AXIS_GAP.
    """
    z = complex(z)
    src = as_square_array(source)
    if abs(z) - z.real <= AXIS_GAP:
        raise ResolventDomainError(
            f"z = {z} is too close to the positive real axis (|z| - Re z <= {AXIS_GAP})"
        )
    if mirror:
        name, orb = "Delta^(-1)", triple.commutant_orbit
        spectrum = 1.0 / triple.delta_spec.eigenvalues
        f = lambda x: 1.0 / (z - 1.0 / x)  # noqa: E731
    else:
        name, orb = "Delta", triple.orbit
        spectrum = triple.delta_spec.eigenvalues
        f = lambda x: 1.0 / (z - x)  # noqa: E731
    if np.min(np.abs(z - spectrum)) <= AXIS_GAP:
        raise ResolventDomainError(f"z = {z} is inside the spectrum of {name}")
    v = matrix_function(triple.delta_spec, f) @ (src @ triple.omega)
    a = operator_from_vector(v, orb)
    return ResolventTransfer(
        a=a, measured_norm=opnorm(a), bound=opnorm(src) / math.sqrt(2.0 * (abs(z) - z.real))
    )


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


def mirrored_tidy_bound(lam: float, n: int, norm_source: float) -> float:
    """Mirror of the closed-form bound under lambda -> 1/lambda, n -> -n.

    Bounds the commutant-side ladder for n <= 0 in terms of the algebra-side
    source norm.
    """
    return tidy_bound(1.0 / lam, -n, norm_source)


@dataclass(frozen=True)
class BoundAuditRow:
    """One measured-versus-bound record for a ladder element."""

    lambda1: float
    lambda2: float
    n: int
    family: str  # "a" (algebra side) or "a_prime" (commutant side)
    measured_norm: float
    bound_value: float

    @property
    def ratio(self) -> float:
        return self.measured_norm / self.bound_value

    @property
    def passed(self) -> bool:
        return self.measured_norm <= self.bound_value * (1.0 + 1e-9)


@dataclass(frozen=True)
class GrowthAudit:
    rows: list[BoundAuditRow]
    slope_pos: float  # least-squares slope of log|a_n| for n >= 0
    slope_neg: float  # slope of log|a'_n| against -n for n <= 0
    bound_slope_pos: float
    bound_slope_neg: float


def growth_audit(
    triple: ModularTriple,
    source,
    lambda1: float,
    lambda2: float,
) -> GrowthAudit:
    """Measure ladder norms against the closed-form bounds for |n| <= GROWTH_N_MAX.

    Both solve families share the windowed vector. The bound paired with each
    row is the sign-appropriate closed form: the lambda_2 formula (source norm
    taken from the n = 0 commutant partner) for n >= 0, and its mirror at
    lambda_1 (source norm from the n = 0 algebra partner) for n < 0; the
    partner family at the same n is compared against the same value as a
    cross-check. Rows carry pass flags instead of raising: the closed form is
    derived through a contour identity that drops enclosed sigmoid poles, and
    measurements show its n = 0 constant can be exceeded (by a factor up to
    about 1.6 on these fixture families) while each step away from n = 0
    multiplies the slack by roughly 2 pi. The exponential growth rate itself
    is confirmed by the fitted slopes.
    """
    base = make_tidy(triple, source, lambda1, lambda2)
    norm_a0 = opnorm(base.a)
    norm_a0p = opnorm(base.a_prime)
    rows: list[BoundAuditRow] = []
    logs_pos, logs_neg = [], []
    for n in range(-GROWTH_N_MAX, GROWTH_N_MAX + 1):
        an = ladder(triple, triple.orbit, base, n)
        apn = ladder(triple, triple.commutant_orbit, base, n)
        if n >= 0:
            bound = tidy_bound(lambda2, n, norm_a0p)
        else:
            bound = mirrored_tidy_bound(lambda1, n, norm_a0)
        for family, op in (("a", an), ("a_prime", apn)):
            rows.append(
                BoundAuditRow(
                    lambda1=lambda1,
                    lambda2=lambda2,
                    n=n,
                    family=family,
                    measured_norm=opnorm(op),
                    bound_value=bound,
                )
            )
        if n >= 0:
            logs_pos.append((n, math.log(max(opnorm(an), 1e-300))))
        if n <= 0:
            logs_neg.append((-n, math.log(max(opnorm(apn), 1e-300))))
    slope_pos = _fit_slope(logs_pos)
    slope_neg = _fit_slope(logs_neg)
    return GrowthAudit(
        rows=rows,
        slope_pos=slope_pos,
        slope_neg=slope_neg,
        bound_slope_pos=0.5 * math.log(lambda2**2 + 4 * math.pi**2),
        bound_slope_neg=0.5 * math.log(1.0 / lambda1**2 + 4 * math.pi**2),
    )


def _fit_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope; NaN when a point is not finite (a broken norm)."""
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    if not np.all(np.isfinite(ys)):
        return math.nan
    return float(np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# Ladder identities
# ---------------------------------------------------------------------------


def dagger_ladder_check(
    triple: ModularTriple,
    tidy: TidyOperator,
    n: int,
    tol_base: float,
) -> tuple[float, float]:
    """Residual of the adjoint-ladder identity (a'_{n+1})^* omega = (a_n)^* omega.

    Returns (residual, tolerance). The tolerance scales with the ladder vector
    magnitude: solve errors in double precision are relative to the solved
    vectors, which grow like |Delta|^n.
    """
    if abs(n) + 1 > N_CAP:
        raise WindowError(f"|n| + 1 = {abs(n) + 1} exceeds the conditioning cap {N_CAP}")
    a_n = ladder(triple, triple.orbit, tidy, n)
    ap_n1 = ladder(triple, triple.commutant_orbit, tidy, n + 1)
    lhs = ap_n1.conj().T @ triple.omega
    rhs = a_n.conj().T @ triple.omega
    residual = float(np.linalg.norm(lhs - rhs))
    scale = max(
        float(np.linalg.norm(lhs)),
        float(np.linalg.norm(rhs)),
        float(np.linalg.norm(tidy.vector)),
        1e-30,
    )
    tol = tol_base * math.sqrt(triple.kappa) * triple.dim * scale
    return residual, tol


def powers_check(
    triple: ModularTriple,
    tidy_a: TidyOperator,
    tidy_b: TidyOperator,
    n: int,
    tol_base: float,
) -> tuple[float, float]:
    """Residual of Delta^n a Delta^{-n} b omega = a_n b omega.

    The two sides travel independent paths: matrix powers of Delta on the
    left, a ladder solve on the right. Tolerance carries the kappa^{|n|/2}
    amplification of the power sandwich.
    """
    if abs(n) > 6:
        raise WindowError(f"|n| = {abs(n)} exceeds the power-identity cap 6")
    d_pow = complex_power(triple.delta_spec, n)
    d_neg = complex_power(triple.delta_spec, -n)
    b_omega = tidy_b.vector
    lhs = d_pow @ (tidy_a.a @ (d_neg @ b_omega))
    a_n = ladder(triple, triple.orbit, tidy_a, n)
    rhs = a_n @ b_omega
    residual = float(np.linalg.norm(lhs - rhs))
    scale = max(
        float(np.linalg.norm(lhs)),
        float(np.linalg.norm(rhs)),
        opnorm(tidy_a.a) * float(np.linalg.norm(b_omega)),
        1e-30,
    )
    tol = tol_base * triple.kappa ** ((abs(n) + 1) / 2.0) * triple.dim * scale
    return residual, tol


# ---------------------------------------------------------------------------
# Density checks
# ---------------------------------------------------------------------------


def tidy_span_check(
    triple: ModularTriple,
    windows,
) -> RankReport:
    """Numerical rank of the span of the windowed vectors W a_i omega.

    One vector per algebra basis element a_i and window W. Full rank d is
    expected exactly when the windows cover the spectrum of Delta; a missed
    eigenspace shows up as a rank deficit of its dimension.
    """
    vs = []
    for (l1, l2) in windows:
        w = spectral_window(triple, l1, l2)
        for b in triple.algebra.basis:
            vs.append(w @ (b @ triple.omega))
    stack = np.column_stack(vs) if vs else np.zeros((triple.dim, 0))
    sv = np.linalg.svd(stack, compute_uv=False)
    return RankReport(rank=numerical_rank(sv), required=triple.dim)


def tidy_bicommutant_check(
    triple: ModularTriple,
    windows,
) -> float:
    """Mutual projection residual between (tidy set)'' and the algebra.

    The tidy set is built from every algebra basis element and every window
    (n = 0, two-sided solves). Covering windows must regenerate the algebra.
    """
    ops = []
    for (l1, l2) in windows:
        for b in triple.algebra.basis:
            t = make_tidy(triple, b, l1, l2)
            ops.append(t.a)
    tidy_span = subspace_orthonormalize(ops, dim_space=triple.dim)
    regenerated = bicommutant(tidy_span)
    return mutual_projection_residual(regenerated, triple.algebra)
