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
gets weight 1/2). Node counts (``node_count``, ``NODE_CAP``) count the nodes
of the full rule, 2 n_line + n_circ, twice the number of evaluations.
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
NODE_CAP = 2**20  # total evaluations per integral
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


def _contour_nodes(spec: ContourSpec, n_line: int, n_circ: int):
    """Midpoint nodes and weights on the lower half of the contour.

    The full rule puts n_line midpoint nodes on each half-line and n_circ on
    the half-circle, at half-offsets so the corner points are never
    evaluated; it is mapped onto itself by conjugation, with w(conj z) =
    -conj w(z). Returned here are its nodes with Im z <= 0 and their weights:
    the bottom half-line z = u - ih (dz = +du) first, then the half-circle
    z = h e^{i theta} (dz = i h e^{i theta} dtheta) for theta in [pi, 3 pi/2).
    An odd n_circ puts a node on theta = pi, its own mirror image; its
    weight is halved.
    """
    h = spec.half_height
    t = spec.truncation
    du = t / n_line
    u = (np.arange(n_line) + 0.5) * du
    z_line = u - 1j * h
    w_line = np.full(n_line, du, dtype=complex)
    dth = math.pi / n_circ
    theta = math.pi / 2 + (np.arange(n_circ // 2, n_circ) + 0.5) * dth
    rot = np.exp(1j * theta)
    z_circ = h * rot
    w_circ = 1j * h * rot * dth
    if n_circ % 2:
        w_circ[0] *= 0.5
    return np.concatenate([z_line, z_circ]), np.concatenate([w_line, w_circ])


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
    """Single-pass quadrature at a fixed resolution, without pole correction.

    Evaluates the lower half of the contour only (see the module docstring):
    eigencomponent j is (1/pi) sum Im(z^n f_k(z) w(z) / (z - w_j)) psi_j.
    """
    psi = np.asarray(psi, dtype=complex)
    z, wts = _contour_nodes(spec, n_line, n_circ)
    poles = sigmoid_poles(k, lam, spec.half_height)
    if poles.size:
        # the line nodes share Im z = -h and the poles Re z = lambda, so
        # their nearest pair is separable; the half-circle nodes are few
        line_gap = math.hypot(np.min(np.abs(z[:n_line].real - lam)),
                              np.min(np.abs(spec.half_height - np.abs(poles.imag))))
        circ_gap = np.min(np.abs(z[n_line:, None] - poles[None, :]))
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


def contour_apply(
    triple: ModularTriple,
    n: int,
    k: int,
    lam: float,
    psi,
    spec: ContourSpec | None = None,
) -> QuadratureResult:
    """Quadrature of the contour integral, refined by step halving.

    Starting from NODES_PER_UNIT half-line nodes per unit of T and
    HALFCIRCLE_NODES on the half-circle, the node counts double until two
    successive Romberg extrapolants agree to QUAD_TOL or the evaluation cap
    is reached. The returned pole correction is the enclosed-residue sum;
    subtracting it from the raw value reproduces the spectral oracle.
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
    # step-halving with one Romberg level: raw midpoint values are second
    # order in the step, the extrapolants (4 I(h/2) - I(h)) / 3 fourth order
    n_line = max(8, int(spec.truncation * NODES_PER_UNIT))
    n_circ = HALFCIRCLE_NODES
    raw_prev = contour_quadrature_fixed(triple, n, k, lam, psi, spec, n_line, n_circ)
    extrap_prev = None
    err = math.inf
    while True:
        n_line *= 2
        n_circ *= 2
        raw = contour_quadrature_fixed(triple, n, k, lam, psi, spec, n_line, n_circ)
        nodes = 2 * n_line + n_circ
        extrap = (4.0 * raw - raw_prev) / 3.0
        if extrap_prev is not None:
            err = float(np.linalg.norm(extrap - extrap_prev))
            if err < QUAD_TOL:
                break
        if 2 * (2 * n_line + n_circ) > NODE_CAP:
            raise ContourError(
                f"quadrature did not converge below {QUAD_TOL:.1e} within the "
                f"node cap (last step change {err:.3e})"
            )
        raw_prev = raw
        extrap_prev = extrap
    correction = pole_sum(triple, n, k, lam, psi, spec.half_height)
    return QuadratureResult(
        value=extrap,
        node_count=nodes,
        pole_correction=correction,
        corrected_value=extrap - correction,
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
