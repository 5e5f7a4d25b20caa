"""Contour-integral functional calculus with a residue audit.

The integral computed here is

    (1 / 2 pi i) \\oint_gamma z^n f_k(z) (z - Delta)^{-1} psi dz,

where f_k is the sigmoid 1 / (1 + exp(k (z - lambda))) and gamma surrounds
the positive real axis: two horizontal half-lines at Im z = +-HALF_HEIGHT =
+-2 pi truncated at T, closed on the left by a half-circle of radius 2 pi.
The height is fixed: for positive integer k, exp(+-2 pi i k) = 1, so the
sigmoid takes its real-axis values on the half-lines.

The sigmoid's poles inside the contour are the 2k points
z_m = lambda +- i pi (2m + 1) / k, m < k, each with residue -1/k. The residue
theorem therefore equates the quadrature with ``spectral oracle + pole sum``,
where the oracle Delta^n f_k(Delta) psi is evaluated purely through the
eigendecomposition. Both the corrected discrepancy (against oracle + poles)
and the uncorrected one (against the oracle alone) are measured; only the
corrected identity is asserted anywhere, the uncorrected behavior is
tabulated as data.

No quadrature node can meet a pole, enclosed or not. Every pole lies at
least pi/k from the lines Im z = +-2 pi, where the half-line nodes sit. A
half-circle node z has Re z <= 0 < lambda, so |z - pole|^2 >=
(2 pi - |Im pole|)^2 >= (pi/k)^2. An integral whose pi/k falls below
POLE_NODE_GAP is refused up front.

The quadrature is evaluated on half the contour. Delta is Hermitian, lambda
is real and k is an integer, so the integrand g(z) = z^n f_k(z) is real on
the real axis and g(conj z) = conj g(z) (Schwarz reflection); the nodes and
poles are conjugation-symmetric and the weights satisfy w(conj z) =
-conj w(z). A node and its mirror image therefore add up to 2i Im of one
term, and each eigencomponent is (1/pi) sum Im(g(z) w(z) / (z - w_j)) psi_j
over the nodes with Im z <= 0 (a self-conjugate node at z = -2 pi gets
weight 1/2).

``contour_apply`` evaluates a family of integrals (n, k, T) that share
Delta, lambda and psi. Integrals with the same truncation share its node
sets: each rule's nodes and resolvent table 1/(z - w_j) are built once, and
one matmul takes every integral's eigencomponents,
Im(g C) = Re g Im C + Im g Re C. Each integral is refined by nested
trapezoid levels: the trapezoid rule of step h/2 is the mean of the
trapezoid and midpoint rules of step h, so each midpoint pass turns the
current level into the next one and every node is evaluated once. Each keeps
its own Romberg table over the levels, which extrapolates away the even
powers of the step, and leaves the family once two successive diagonal
entries agree to QUAD_TOL. ``node_count`` is the full rule of its last
level, 2 n_line + n_circ (intervals on the two half-lines and the
half-circle); ``NODE_CAP`` bounds the evaluations of one integral, all
levels together. A failed integral (a refused argument, the node cap
reached) gets its ContourError in its own slot, and the others finish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .linalg import matrix_function
from .tomita import ModularTriple

QUAD_TOL = 1e-8
HALF_HEIGHT = 2.0 * math.pi  # Im z of the half-lines, where exp(+-2 pi i k) = 1
SIGMOID_FINAL_TOL = 1e-6  # sigmoid-limit error required at the largest k
LAMBDA_GAP = 0.05  # smallest distance of lambda from spec(Delta) in the sigmoid limit
NODE_CAP = 2**20  # cumulative evaluations per integral
NODES_PER_UNIT = 8  # starting half-line nodes per unit of truncation
HALFCIRCLE_NODES = 64  # starting half-circle nodes
POLE_NODE_GAP = 1e-3  # smallest pole-to-contour distance pi/k: k <= 3,141, 2k poles to sum


class ContourError(ValueError):
    pass


def _check_steepness(k) -> None:
    """Refuse a steepness that is not a positive integer (or an array of them)."""
    if isinstance(k, (int, np.integer)) and k >= 1:
        return
    ks = np.asarray(k)
    if ks.dtype.kind not in "iu" or not ks.size or ks.min() < 1:
        raise ContourError(f"sigmoid steepness must be a positive integer, got {k!r}")


def sigmoid(z, k, lam: float):
    """Overflow-safe sigmoid 1 / (1 + exp(k (z - lambda))), elementwise.

    Takes a scalar or an array of points, and an integer k or an integer array
    that broadcasts against them, and returns the broadcast shape, complex.
    k must be positive: only then do the half-lines at Im z = +-2 pi
    reproduce the real-axis values (exp(+-2 pi i k) = 1) and stay clear of the
    poles.
    """
    _check_steepness(k)
    w = k * (np.asarray(z, dtype=complex) - lam)
    pos = w.real > 0.0
    # exp is taken of the argument with nonpositive real part only
    e = np.exp(np.where(pos, -w, w))
    return (np.where(pos, e, 1.0) / (1.0 + e))[()]


def sigmoid_poles(k: int, lam: float) -> np.ndarray:
    """The 2k sigmoid poles inside the contour: lambda +- i pi (2m+1)/k for m < k, in pairs."""
    im = math.pi * (2 * np.arange(k) + 1) / k
    return lam + 1j * np.column_stack([im, -im]).ravel()


def choose_contour(triple: ModularTriple, n: int, k: int, lam: float) -> float:
    """Pick a truncation T making the discarded tail negligible.

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
    return t


def _contour_nodes(t: float, n_line: int, n_circ: int, midpoint: bool):
    """Nodes and weights of a composite rule on the lower half of the contour.

    The full rule splits each half-line into n_line intervals and the
    half-circle into n_circ; it is mapped onto itself by conjugation, with
    w(conj z) = -conj w(z). The midpoint rule evaluates the interval
    midpoints, never the corners; the trapezoid rule evaluates the interval
    ends, with weight 1/2 at u = 0, u = T and theta = 3 pi/2 (the corner
    z = -ih, h = HALF_HEIGHT, one node shared by the half-line and the
    half-circle). Returned are the nodes with Im z <= 0 and their weights:
    the bottom half-line z = u - ih (dz = +du) first, then the half-circle
    z = h e^{i theta} (dz = i h e^{i theta} dtheta) for theta in
    [pi, 3 pi/2). A node on theta = pi is its own mirror image; its weight is
    halved.
    """
    h = HALF_HEIGHT
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
    return np.concatenate([z_line, z_circ]), np.concatenate([w_line, w_circ])


def _half_rule(triple: ModularTriple, integrands, lam: float, psi_eig: np.ndarray,
               t: float, n_line: int, n_circ: int, midpoint: bool) -> np.ndarray:
    """Evaluate one composite rule of ``_contour_nodes`` for a family of (n, k).

    psi_eig holds the eigencomponents U^dag psi. Eigencomponent j of
    integrand (n, k) is (1/pi) sum Im(g(z) / (z - w_j)) psi_j with
    g = z^n f_k(z) w(z); the nodes and the resolvent table are shared.
    Returns one row of d values per integrand.
    """
    z, wts = _contour_nodes(t, n_line, n_circ, midpoint)
    powers = {n: z**n for n, _ in integrands}
    sigmoids = {k: sigmoid(z, k, lam) for _, k in integrands}
    g = np.array([powers[n] * sigmoids[k] * wts for n, k in integrands])
    resolvent = 1.0 / (z[:, None] - triple.delta_spec.eigenvalues)
    comps = g.real @ resolvent.imag + g.imag @ resolvent.real
    return (comps * psi_eig) @ triple.delta_spec.eigenvectors.T / math.pi


@dataclass(frozen=True)
class QuadratureResult:
    """Quadrature value, its node count and pole data."""

    value: np.ndarray
    node_count: int
    pole_correction: np.ndarray  # the pole sum; corrected_value = value - pole_correction
    corrected_value: np.ndarray


def spectral_oracle(triple: ModularTriple, n: int, k, lam: float, psi) -> np.ndarray:
    """Reference value Delta^n f_k(Delta) psi, computed via eigendata only.

    k is an integer, or an integer array of shape (K, 1) for the K vectors of
    a steepness ladder as the rows of a (K, d) array.
    """
    psi = np.asarray(psi, dtype=complex)
    w = triple.delta_spec.eigenvalues.astype(complex)
    vals = w**n * sigmoid(w, k, lam)
    u = triple.delta_spec.eigenvectors
    return (vals * (u.conj().T @ psi)) @ u.T


def pole_sum(triple: ModularTriple, n: int, k: int, lam: float, psi) -> np.ndarray:
    """Sum of the enclosed sigmoid-pole residues z_m^n (-1/k) (z_m - Delta)^{-1} psi.

    Summed in the eigenbasis of Delta, one resolvent per pole and eigenvalue.
    """
    _check_steepness(k)
    psi = np.asarray(psi, dtype=complex)
    poles = sigmoid_poles(k, lam)
    w = triple.delta_spec.eigenvalues
    u = triple.delta_spec.eigenvectors
    weights = (poles**n * (-1.0 / k))[:, None] / (poles[:, None] - w[None, :])
    return u @ (weights.sum(axis=0) * (u.conj().T @ psi))


def contour_quadrature_fixed(triple: ModularTriple, n: int, k: int, lam: float, psi,
                             truncation: float, n_line: int, n_circ: int) -> np.ndarray:
    """Single-pass midpoint rule at a fixed resolution, without pole correction.

    Evaluates only the lower half of the contour truncated at T = truncation
    (see the module docstring): eigencomponent j is
    (1/pi) sum Im(z^n f_k(z) w(z) / (z - w_j)) psi_j. At height 2 pi no node
    meets a pole. Neither failure of ``contour_apply`` applies: the arguments
    are not checked, and one pass has no node cap.
    """
    psi_eig = triple.delta_spec.eigenvectors.conj().T @ np.asarray(psi, dtype=complex)
    return _half_rule(triple, [(n, k)], lam, psi_eig, truncation, n_line, n_circ,
                      midpoint=True)[0]


def _romberg_row(prev: list, trapezoid):
    """Row j of the Romberg table from row j - 1 and the trapezoid value T_j.

    R(j, 0) = T_j and R(j, m) = R(j, m-1) + (R(j, m-1) - R(j-1, m-1)) / (4^m - 1):
    entry m is exact for errors in h^2, ..., h^{2m}.
    """
    row = [trapezoid]
    for m in range(1, len(prev) + 1):
        row.append(row[m - 1] + (row[m - 1] - prev[m - 1]) / (4**m - 1))
    return row


def _checked_truncation(triple: ModularTriple, n, k, lam: float, t: float | None) -> float:
    """The truncation of one integral (``choose_contour``'s when t is None), validated."""
    if lam <= 0:
        raise ContourError(f"lambda must be positive, got {lam}")
    if n < 0:
        raise ContourError(f"power must be a nonnegative integer, got {n}")
    _check_steepness(k)
    if math.pi / k < POLE_NODE_GAP:
        raise ContourError(f"steepness k = {k} puts sigmoid poles within pi/k = "
                           f"{math.pi / k:.1e} of the contour, below {POLE_NODE_GAP:.1e}")
    if t is None:
        t = choose_contour(triple, n, k, lam)
    eig_max = float(triple.delta_spec.eigenvalues[-1])
    if not t > max(lam, eig_max):
        raise ContourError(f"truncation T = {t:.3e} must exceed lambda = {lam} and "
                           f"the max eigenvalue {eig_max:.3e}")
    return t


def _refine(triple: ModularTriple, family: list, lam: float, psi: np.ndarray, t: float) -> dict:
    """Refine the integrals (n, k) truncated at t together; (n, k) -> result or error.

    Each level's Romberg row holds one (m, d) entry per column, a row of it
    per integral still refining; a done integral leaves the rows.
    """
    n_line = max(8, int(t * NODES_PER_UNIT))
    n_circ = HALFCIRCLE_NODES
    psi_eig = triple.delta_spec.eigenvectors.conj().T @ psi
    prev = [_half_rule(triple, family, lam, psi_eig, t, n_line, n_circ, midpoint=False)]
    out = {}
    evaluations = n_line + 1 + n_circ // 2
    err = np.full(len(family), math.inf)
    while family:
        step = n_line + n_circ // 2  # midpoint nodes of one pass, n_circ even
        if evaluations + step > NODE_CAP:
            out.update((nk, ContourError(f"quadrature did not converge below {QUAD_TOL:.1e} "
                                         f"within the node cap (last diagonal change {e:.3e})"))
                       for nk, e in zip(family, err))
            break
        mid = _half_rule(triple, family, lam, psi_eig, t, n_line, n_circ, midpoint=True)
        evaluations += step
        n_line *= 2
        n_circ *= 2
        row = _romberg_row(prev, 0.5 * (prev[0] + mid))  # T(h/2) = (T(h) + M(h)) / 2
        if len(row) > 2:  # level 2 or later
            err = np.linalg.norm(row[-1] - prev[-1], axis=1)
            done = err < QUAD_TOL
            for (n, k), value in zip(compress(family, done), row[-1][done]):
                poles = pole_sum(triple, n, k, lam, psi)
                out[n, k] = QuadratureResult(value, 2 * n_line + n_circ, poles, value - poles)
            family, row, err = list(compress(family, ~done)), [r[~done] for r in row], err[~done]
        prev = row
    return out


def contour_apply(
    triple: ModularTriple,
    integrands,
    lam: float,
    psi,
) -> list[QuadratureResult | ContourError]:
    """Quadratures of a family of contour integrals, refined by nested trapezoid levels.

    integrands is a sequence of (n, k, T), T a truncation or None for
    ``choose_contour``'s; all share Delta, lambda and psi, and every contour
    sits at height 2 pi. Returned is one slot per integrand, in order: its
    QuadratureResult, or the ContourError that stopped it. Integrals with one
    truncation are refined together and identical integrands are evaluated
    once.

    Level 0 is the trapezoid rule T(h) on NODES_PER_UNIT half-line intervals
    per unit of T and HALFCIRCLE_NODES half-circle intervals. Each pass adds
    the midpoint rule M(h), whose nodes are exactly the ones T(h/2) adds, so
    T(h/2) = (T(h) + M(h)) / 2 and no node is evaluated twice; then both
    counts double. Every level extends each integral's Romberg table
    R(j, m) = R(j, m-1) + (R(j, m-1) - R(j-1, m-1)) / (4^m - 1), and an
    integral is done once two successive diagonal entries R(j, j) differ by
    less than QUAD_TOL, comparing no earlier than level 2. The value is the
    last diagonal entry, its node count the full rule of the last level,
    2 n_line + n_circ. The pole correction is the enclosed-residue sum;
    subtracting it from the value reproduces the spectral oracle.

    No node meets a pole (see the module docstring). An integral fails with
    ContourError for one of two reasons: a refused argument (lambda <= 0,
    n < 0, k not a positive integer, pi/k below POLE_NODE_GAP, T not beyond
    lambda and spec(Delta)), or a next pass that would take its evaluations
    past NODE_CAP.
    """
    psi = np.asarray(psi, dtype=complex)
    slots, families = [], {}  # truncation -> its distinct (n, k), in order (dict keys)
    for n, k, t in integrands:
        try:
            t = _checked_truncation(triple, n, k, lam, t)
        except ContourError as exc:
            slots.append(exc)
            continue
        slots.append((t, (n, k)))
        families.setdefault(t, {})[n, k] = None
    done = {t: _refine(triple, list(f), lam, psi, t) for t, f in families.items()}
    return [s if isinstance(s, ContourError) else done[s[0]][s[1]] for s in slots]


# ---------------------------------------------------------------------------
# Sigmoid-to-step limit
# ---------------------------------------------------------------------------


def sigmoid_limit_check(
    triple: ModularTriple,
    n: int,
    lam: float,
    psi,
) -> tuple[np.ndarray, np.ndarray]:
    """Convergence of Delta^n f_k(Delta) psi to the windowed Delta^n Theta(lambda - Delta) psi.

    lambda must keep a distance of at least LAMBDA_GAP from the spectrum.
    Returns the steepness ladder k = 1, 2, 4, ..., k_max = ceil(40 / gap) and
    the error at each k, the whole ladder evaluated as one (K, d) array. The
    check passes when the last error, the one at k_max, is at most
    SIGMOID_FINAL_TOL.
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
    ks = np.array(k_list)
    approx = spectral_oracle(triple, n, ks[:, None], lam, psi)
    return ks, np.linalg.norm(approx - theta_vec, axis=1)
