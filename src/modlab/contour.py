"""Contour-integral functional calculus with a residue audit.

The integral computed here is

    (1 / 2 pi i) \\oint_gamma z^n f_k(z) (z - Delta)^{-1} psi dz,

where f_k is the sigmoid 1 / (1 + exp(k (z - lambda))) and gamma surrounds
the positive real axis: two horizontal half-lines at height +-half_height
(default 2 pi) truncated at T, closed on the left by a half-circle of radius
half_height. For positive integer k the sigmoid takes its real-axis values on
the default half-lines, and its poles never touch the contour.

The sigmoid has poles strictly inside the default contour, at
z_m = lambda + i pi (2m + 1) / k with residue -1/k. The residue theorem
therefore equates the quadrature with ``spectral oracle + pole sum``, where
the oracle Delta^n f_k(Delta) psi is evaluated purely through the
eigendecomposition. Both the corrected discrepancy (against oracle + poles)
and the uncorrected one (against the oracle alone) are measured; only the
corrected identity is asserted anywhere, the uncorrected behavior is
tabulated as data.

The quadrature is evaluated on half the contour. Delta is Hermitian, lambda
is real and k is an integer, so the integrand g(z) = z^n f_k(z) is real on
the real axis and g(conj z) = conj g(z) (Schwarz reflection); the nodes and
poles are conjugation-symmetric and the weights satisfy w(conj z) =
-conj w(z). A node and its mirror image therefore add up to 2i Im of one
term, and each eigencomponent is (1/pi) sum Im(g(z) w(z) / (z - w_j)) psi_j
over the nodes with Im z <= 0 (a self-conjugate node at z = -half_height
gets weight 1/2).

``contour_apply`` refines by nested trapezoid levels. The trapezoid rule of
step h/2 is the mean of the trapezoid and midpoint rules of step h, so each
midpoint pass (``contour_quadrature_fixed``) turns the current level into the
next one and every node is evaluated once. A Romberg table over the levels
extrapolates away the even powers of the step; refinement stops when two
successive diagonal entries agree to QUAD_TOL. ``node_count`` is the full
rule of the last level, 2 n_line + n_circ (intervals on the two half-lines
and the half-circle); ``NODE_CAP`` bounds the evaluations of one integral,
all levels together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import matrix_function
from .tomita import ModularTriple

QUAD_TOL = 1e-8
HALF_HEIGHT = 2.0 * math.pi  # Im z of the default half-lines, where exp(+-2 pi i k) = 1
SIGMOID_FINAL_TOL = 1e-6  # sigmoid-limit error required at the largest k
LAMBDA_GAP = 0.05  # smallest distance of lambda from spec(Delta) in the sigmoid limit
NODE_CAP = 2**20  # cumulative evaluations per integral
NODES_PER_UNIT = 8  # starting half-line nodes per unit of truncation
HALFCIRCLE_NODES = 64  # starting half-circle nodes
POLE_NODE_GAP = 1e-8


class ContourError(ValueError):
    pass


class NodeCollisionError(ContourError):
    """A sigmoid pole sits on (or numerically on) a quadrature node."""


def sigmoid(z, k: int, lam: float):
    """Overflow-safe sigmoid 1 / (1 + exp(k (z - lambda))), elementwise.

    Takes a scalar or an array of points and returns the same shape, complex.
    k must be a positive integer: only then do the half-lines at Im z = +-2 pi
    reproduce the real-axis values (exp(+-2 pi i k) = 1) and stay clear of the
    poles.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ContourError(f"sigmoid steepness must be a positive integer, got {k!r}")
    w = k * (np.asarray(z, dtype=complex) - lam)
    pos = w.real > 0.0
    # exp is taken of the argument with nonpositive real part only
    e = np.exp(np.where(pos, -w, w))
    return (np.where(pos, e, 1.0) / (1.0 + e))[()]


def sigmoid_poles(k: int, lam: float, half_height: float) -> np.ndarray:
    """Poles of the sigmoid enclosed by the contour: lambda + i pi (2m+1)/k."""
    poles = []
    m = 0
    while math.pi * (2 * m + 1) / k < half_height:
        im = math.pi * (2 * m + 1) / k
        poles.append(lam + 1j * im)
        poles.append(lam - 1j * im)
        m += 1
    return np.array(poles, dtype=complex)


@dataclass(frozen=True)
class ContourSpec:
    """Geometry of the truncated contour: half-line height and truncation T."""

    half_height: float = HALF_HEIGHT
    truncation: float = 40.0

    def validate(self, lam: float) -> None:
        if self.truncation <= lam:
            raise ContourError(
                f"truncation {self.truncation} must exceed lambda = {lam}"
            )
        if self.half_height <= 0:
            raise ContourError("half_height must be positive")


def choose_contour(
    triple: ModularTriple,
    n: int,
    k: int,
    lam: float,
) -> ContourSpec:
    """Pick a truncation making the discarded tail negligible.

    T satisfies exp(-k (T - lambda)) (T^2 + 4 pi^2)^{n/2} < QUAD_TOL and lies
    beyond the spectrum of Delta.
    """
    eig_max = float(triple.delta_spec.eigenvalues[-1])
    t = max(lam + 1.0, 1.1 * eig_max + 1.0, HALF_HEIGHT)
    for _ in range(60):
        tail = math.exp(-k * (t - lam)) * (t * t + 4 * math.pi**2) ** (n / 2.0)
        if tail < QUAD_TOL:
            break
        t *= 1.3
    return ContourSpec(truncation=t)


def _contour_nodes(spec: ContourSpec, n_line: int, n_circ: int, midpoint: bool):
    """Nodes and weights of a composite rule on the lower half of the contour.

    The full rule splits each half-line into n_line intervals and the
    half-circle into n_circ; it is mapped onto itself by conjugation, with
    w(conj z) = -conj w(z). The midpoint rule evaluates the interval
    midpoints, never the corners; the trapezoid rule evaluates the interval
    ends, with weight 1/2 at u = 0, u = T and theta = 3 pi/2 (the corner
    z = -ih, one node shared by the half-line and the half-circle).
    Returned are the nodes with Im z <= 0, their weights and the number of
    half-line nodes: the bottom half-line z = u - ih (dz = +du) first, then
    the half-circle z = h e^{i theta} (dz = i h e^{i theta} dtheta) for theta
    in [pi, 3 pi/2). A node on theta = pi is its own mirror image; its weight
    is halved.
    """
    h = spec.half_height
    t = spec.truncation
    shift = 0.5 if midpoint else 0.0  # node offset in units of the step
    du = t / n_line
    u = (np.arange(n_line + (not midpoint)) + shift) * du
    z_line = u - 1j * h
    w_line = np.full(u.size, du, dtype=complex)
    dth = math.pi / n_circ
    first = math.ceil(n_circ / 2 - shift)  # the first node with theta >= pi
    theta = math.pi / 2 + (np.arange(first, n_circ) + shift) * dth
    rot = np.exp(1j * theta)
    z_circ = h * rot
    w_circ = 1j * h * rot * dth
    if first + shift == n_circ / 2:
        w_circ[0] *= 0.5
    if not midpoint:
        # i h e^{3 pi i/2} dtheta = h dtheta: the half-circle's share of the corner
        w_line[0] = 0.5 * (du + h * dth)
        w_line[-1] *= 0.5
    return np.concatenate([z_line, z_circ]), np.concatenate([w_line, w_circ]), u.size


def _half_rule(triple: ModularTriple, n: int, k: int, lam: float, psi: np.ndarray,
               spec: ContourSpec, n_line: int, n_circ: int, midpoint: bool) -> np.ndarray:
    """Evaluate one composite rule of ``_contour_nodes`` on the lower half.

    Eigencomponent j is (1/pi) sum Im(z^n f_k(z) w(z) / (z - w_j)) psi_j.
    Raises NodeCollisionError when a sigmoid pole lies on a node.
    """
    z, wts, n_on_line = _contour_nodes(spec, n_line, n_circ, midpoint)
    poles = sigmoid_poles(k, lam, spec.half_height)
    if poles.size:
        # the line nodes share Im z = -h and the poles Re z = lambda, so
        # their nearest pair is separable; the half-circle nodes are few
        line_gap = math.hypot(np.min(np.abs(z[:n_on_line].real - lam)),
                              np.min(np.abs(spec.half_height - np.abs(poles.imag))))
        circ_gap = np.min(np.abs(z[n_on_line:, None] - poles[None, :]))
        if min(line_gap, circ_gap) < POLE_NODE_GAP:
            raise NodeCollisionError(
                f"a sigmoid pole lies within {POLE_NODE_GAP:.1e} of a quadrature "
                "node; choose a different node count or half_height"
            )
    w_eig = triple.delta_spec.eigenvalues
    u = triple.delta_spec.eigenvectors
    psi_eig = u.conj().T @ psi
    integrand = z**n * sigmoid(z, k, lam) * wts
    comps = (integrand[:, None] / (z[:, None] - w_eig[None, :])).imag.sum(axis=0)
    return (u @ (comps * psi_eig)) / math.pi


@dataclass(frozen=True)
class QuadratureResult:
    """Quadrature value, its node count and pole data."""

    value: np.ndarray
    node_count: int
    pole_correction: np.ndarray  # the pole sum; corrected_value = value - pole_correction
    corrected_value: np.ndarray


def spectral_oracle(triple: ModularTriple, n: int, k: int, lam: float, psi) -> np.ndarray:
    """Reference value Delta^n f_k(Delta) psi, computed via eigendata only."""
    psi = np.asarray(psi, dtype=complex)
    w = triple.delta_spec.eigenvalues.astype(complex)
    vals = w**n * sigmoid(w, k, lam)
    u = triple.delta_spec.eigenvectors
    return (u * vals) @ (u.conj().T @ psi)


def pole_sum(
    triple: ModularTriple,
    n: int,
    k: int,
    lam: float,
    psi,
    half_height: float = HALF_HEIGHT,
) -> np.ndarray:
    """Sum of the enclosed sigmoid-pole residues z_m^n (-1/k) (z_m - Delta)^{-1} psi.

    Summed in the eigenbasis of Delta, one resolvent per pole and eigenvalue.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ContourError(f"steepness must be a positive integer, got {k!r}")
    psi = np.asarray(psi, dtype=complex)
    poles = sigmoid_poles(k, lam, half_height)
    w = triple.delta_spec.eigenvalues
    u = triple.delta_spec.eigenvectors
    weights = (poles**n * (-1.0 / k))[:, None] / (poles[:, None] - w[None, :])
    return u @ (weights.sum(axis=0) * (u.conj().T @ psi))


def contour_quadrature_fixed(
    triple: ModularTriple,
    n: int,
    k: int,
    lam: float,
    psi,
    spec: ContourSpec,
    n_line: int,
    n_circ: int,
) -> np.ndarray:
    """Single-pass midpoint rule at a fixed resolution, without pole correction.

    Evaluates the lower half of the contour only (see the module docstring):
    eigencomponent j is (1/pi) sum Im(z^n f_k(z) w(z) / (z - w_j)) psi_j.
    """
    psi = np.asarray(psi, dtype=complex)
    return _half_rule(triple, n, k, lam, psi, spec, n_line, n_circ, midpoint=True)


def _romberg_row(prev: list, trapezoid):
    """Row j of the Romberg table from row j - 1 and the trapezoid value T_j.

    R(j, 0) = T_j and R(j, m) = R(j, m-1) + (R(j, m-1) - R(j-1, m-1)) / (4^m - 1):
    entry m is exact for errors in h^2, ..., h^{2m}.
    """
    row = [trapezoid]
    for m in range(1, len(prev) + 1):
        row.append(row[m - 1] + (row[m - 1] - prev[m - 1]) / (4**m - 1))
    return row


def contour_apply(
    triple: ModularTriple,
    n: int,
    k: int,
    lam: float,
    psi,
    spec: ContourSpec | None = None,
) -> QuadratureResult:
    """Quadrature of the contour integral, refined by nested trapezoid levels.

    Level 0 is the trapezoid rule T(h) on NODES_PER_UNIT half-line intervals
    per unit of T and HALFCIRCLE_NODES half-circle intervals. Each pass adds
    the midpoint rule M(h) of ``contour_quadrature_fixed``, whose nodes are
    exactly the ones T(h/2) adds, so T(h/2) = (T(h) + M(h)) / 2 and no node
    is evaluated twice; then both counts double. Every level extends a
    Romberg table R(j, m) = R(j, m-1) + (R(j, m-1) - R(j-1, m-1)) / (4^m - 1),
    and refinement stops once two successive diagonal entries R(j, j) differ
    by less than QUAD_TOL, comparing no earlier than level 2. ContourError is
    raised when the next pass would take the evaluations of the integral past
    NODE_CAP. The returned value is the last diagonal entry, its node count
    the full rule of the last level, 2 n_line + n_circ. The pole correction
    is the enclosed-residue sum; subtracting it from the value reproduces the
    spectral oracle.
    """
    if lam <= 0:
        raise ContourError(f"lambda must be positive, got {lam}")
    if n < 0:
        raise ContourError(f"power must be a nonnegative integer, got {n}")
    psi = np.asarray(psi, dtype=complex)
    if spec is None:
        spec = choose_contour(triple, n, k, lam)
    spec.validate(lam)
    eig_max = float(triple.delta_spec.eigenvalues[-1])
    if eig_max >= spec.truncation:
        raise ContourError(
            f"spectrum not enclosed: max eigenvalue {eig_max:.3e} >= T = {spec.truncation:.3e}"
        )
    n_line = max(8, int(spec.truncation * NODES_PER_UNIT))
    n_circ = HALFCIRCLE_NODES
    prev = [_half_rule(triple, n, k, lam, psi, spec, n_line, n_circ, midpoint=False)]
    evaluations = n_line + 1 + n_circ // 2
    err = math.inf
    while True:
        step = n_line + n_circ // 2  # midpoint nodes of one pass, n_circ even
        if evaluations + step > NODE_CAP:
            raise ContourError(
                f"quadrature did not converge below {QUAD_TOL:.1e} within the "
                f"node cap (last diagonal change {err:.3e})"
            )
        mid = contour_quadrature_fixed(triple, n, k, lam, psi, spec, n_line, n_circ)
        evaluations += step
        n_line *= 2
        n_circ *= 2
        row = _romberg_row(prev, 0.5 * (prev[0] + mid))  # T(h/2) = (T(h) + M(h)) / 2
        if len(row) > 2:  # level 2 or later
            err = float(np.linalg.norm(row[-1] - prev[-1]))
            if err < QUAD_TOL:
                break
        prev = row
    value = row[-1]
    correction = pole_sum(triple, n, k, lam, psi, spec.half_height)
    return QuadratureResult(
        value=value,
        node_count=2 * n_line + n_circ,
        pole_correction=correction,
        corrected_value=value - correction,
    )


# ---------------------------------------------------------------------------
# Sigmoid-to-step limit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmoidLimitRow:
    k: int
    error: float


@dataclass(frozen=True)
class SigmoidLimitResult:
    rows: list[SigmoidLimitRow]
    final_error: float
    passed: bool


def sigmoid_limit_check(
    triple: ModularTriple,
    n: int,
    lam: float,
    psi,
) -> SigmoidLimitResult:
    """Convergence of Delta^n f_k(Delta) psi to the windowed Delta^n Theta(lambda - Delta) psi.

    lambda must keep a distance of at least LAMBDA_GAP from the spectrum. The
    error sequence must be non-increasing from some k0 on (an absolute floor
    of 1e-14 absorbs rounding jitter near machine precision) and must end
    below SIGMOID_FINAL_TOL at k_max = ceil(40 / gap).
    """
    psi = np.asarray(psi, dtype=complex)
    w = triple.delta_spec.eigenvalues
    gap = float(np.min(np.abs(w - lam)))
    if gap < LAMBDA_GAP:
        raise ContourError(
            f"lambda = {lam} is {gap:.3f} from the spectrum, closer than {LAMBDA_GAP}"
        )
    k_max = int(math.ceil(40.0 / gap))
    k_list, k = [], 1
    while k < k_max:
        k_list.append(k)
        k *= 2
    k_list.append(k_max)
    theta_vec = matrix_function(
        triple.delta_spec, lambda x: x**n * np.where(x < lam, 1.0, 0.0)
    ) @ psi
    rows = []
    for k in k_list:
        approx = spectral_oracle(triple, n, k, lam, psi)
        rows.append(SigmoidLimitRow(k=k, error=float(np.linalg.norm(approx - theta_vec))))
    k0 = None
    for start in range(len(rows)):
        tail = rows[start:]
        ok = all(
            tail[i + 1].error <= tail[i].error * (1 + 1e-9) + 1e-14
            for i in range(len(tail) - 1)
        )
        if ok:
            k0 = rows[start].k
            break
    final_error = rows[-1].error
    passed = k0 is not None and final_error <= SIGMOID_FINAL_TOL
    return SigmoidLimitResult(rows=rows, final_error=final_error, passed=passed)
