import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modlab import contour
from modlab.algebra import commutant, subspace_orthonormalize
from modlab.contour import (
    NODES_PER_UNIT,
    POLE_NODE_GAP,
    QUAD_TOL,
    SIGMOID_FINAL_TOL,
    ContourError,
    choose_contour,
    contour_apply,
    contour_quadrature_fixed,
    pole_sum,
    sigmoid,
    sigmoid_limit_check,
    sigmoid_poles,
    spectral_oracle,
)
from modlab.fixtures import AlgebraSpec, generate_fixture
from modlab.linalg import matrix_function
from modlab.tomita import modular_data
from rotated import rotated_triple


def elementary(d, i, j):
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def apply_one(triple, n, k, lam, psi, trunc=None):
    """The one slot of a one-integrand family: its QuadratureResult or its ContourError."""
    [slot] = contour_apply(triple, [(n, k, trunc)], lam, psi)
    return slot


def trapezoid_rule(triple, n, k, lam, psi, trunc, n_line, n_circ):
    """The trapezoid rule of one integrand at a fixed resolution."""
    psi_eig = triple.delta_spec.eigenvectors.conj().T @ np.asarray(psi, dtype=complex)
    return contour._half_rule(triple, [(n, k)], lam, psi_eig, trunc, n_line, n_circ,
                              midpoint=False)[0]


def two_qubit_triple():
    a = subspace_orthonormalize(
        [np.kron(elementary(2, i, j), np.eye(2)) for i in range(2) for j in range(2)]
    )
    omega = np.array([np.sqrt(2 / 3), 0, 0, np.sqrt(1 / 3)], dtype=complex)
    return modular_data(a, omega, commutant(a))


# ---------------------------------------------------------------------------
# sigmoid scalar function
# ---------------------------------------------------------------------------


def test_sigmoid_half_at_lambda():
    assert abs(sigmoid(2.0, 3, 2.0) - 0.5) <= 1e-14


def test_sigmoid_periodic_on_half_lines():
    # with integer steepness the shifted line reproduces the real-axis value
    for t in (-1.0, 0.3, 4.0):
        line = sigmoid(t + 2j * math.pi, 3, 1.0)
        real = sigmoid(t, 3, 1.0)
        assert abs(line - real) <= 1e-13


def test_sigmoid_limits():
    assert abs(sigmoid(-40.0, 2, 1.0) - 1.0) <= 1e-14
    assert abs(sigmoid(40.0, 2, 1.0)) <= 1e-14


def test_sigmoid_matches_formula_away_from_poles():
    for z in (0.5 + 1j, -2.0 - 0.3j, 3.7 + 2.9j):
        direct = 1.0 / (1.0 + np.exp(2 * (z - 1.5)))
        assert abs(sigmoid(z, 2, 1.5) - direct) <= 1e-14 * max(1.0, abs(direct))


def test_sigmoid_rejects_non_integer_steepness():
    with pytest.raises(ContourError):
        sigmoid(1.0, 1.5, 1.0)
    with pytest.raises(ContourError):
        sigmoid(1.0, 0, 1.0)
    with pytest.raises(ContourError):
        sigmoid(np.array([1.0, 2.0]), 1.5, 1.0)


def test_sigmoid_scalar_and_array_bit_identical():
    # the quadrature and the oracle evaluate arrays, the tests scalars: one
    # function serves both and must give the same bits, overflow-safe on
    # either side of the real-part switch
    rng = np.random.default_rng(11)
    z = rng.uniform(-60.0, 60.0, 20_000) + 1j * rng.uniform(-8.0, 8.0, 20_000)
    for k, lam in ((1, 0.7), (2, 1.5), (8, 2.9)):
        values = sigmoid(z, k, lam)
        assert values.shape == z.shape and np.isfinite(values).all()
        assert np.array_equal(values, np.array([sigmoid(x, k, lam) for x in z]))


# ---------------------------------------------------------------------------
# pole enumeration
# ---------------------------------------------------------------------------


def test_pole_enumeration_k1():
    # poles at lambda +- i pi, both inside |Im| < 2 pi
    poles = sigmoid_poles(1, 1.0)
    assert len(poles) == 2
    assert np.allclose(sorted(p.imag for p in poles), [-math.pi, math.pi])


def test_pole_enumeration_k4():
    # (2m+1) pi / 4 < 2 pi gives m <= 3: eight poles
    poles = sigmoid_poles(4, 1.0)
    assert len(poles) == 8


def test_pole_enumeration_order_and_bits():
    # the pair lambda + i y, lambda - i y for m = 0, 1, ..., each y = pi (2m + 1) / k
    for k, lam in ((1, 1.0), (3, 0.4), (8, 2.5)):
        expected = []
        for m in range(k):
            y = math.pi * (2 * m + 1) / k
            expected += [lam + 1j * y, lam - 1j * y]
        assert np.array_equal(sigmoid_poles(k, lam), np.array(expected))


# ---------------------------------------------------------------------------
# spectral oracle
# ---------------------------------------------------------------------------


def test_oracle_identity_delta_far_lambda():
    fix = generate_fixture(AlgebraSpec.maximal_abelian(3), seed=0)
    rng = np.random.default_rng(1)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    out = spectral_oracle(fix.triple, 0, 50, 2.0, psi)
    # f_k(1) with k (2 - 1) = 50: essentially 1
    assert np.linalg.norm(out - psi) <= 1e-14 * np.linalg.norm(psi)


def test_oracle_eigenvector_scalar_arithmetic():
    t = two_qubit_triple()
    # |01> is the eigenvalue-2 eigenvector
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0
    out = spectral_oracle(t, 1, 3, 3.0, psi)
    scalar = 2.0 * (1.0 / (1.0 + math.exp(3 * (2.0 - 3.0))))
    assert np.linalg.norm(out - scalar * psi) <= 1e-13


def test_oracle_linearity():
    t = two_qubit_triple()
    rng = np.random.default_rng(2)
    p1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    p2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lhs = spectral_oracle(t, 1, 2, 1.3, 2.0 * p1 - 1j * p2)
    rhs = 2.0 * spectral_oracle(t, 1, 2, 1.3, p1) - 1j * spectral_oracle(t, 1, 2, 1.3, p2)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


# ---------------------------------------------------------------------------
# quadrature with residue correction
# ---------------------------------------------------------------------------


def test_residue_closure_identity_delta():
    fix = generate_fixture(AlgebraSpec.maximal_abelian(3), seed=3)
    rng = np.random.default_rng(4)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi /= np.linalg.norm(psi)
    q = apply_one(fix.triple, 0, 4, 2.0, psi)
    oracle = spectral_oracle(fix.triple, 0, 4, 2.0, psi)
    assert np.linalg.norm(q.corrected_value - oracle) <= 1e-7


def test_residue_closure_ensemble_two_qubit():
    t = two_qubit_triple()
    rng = np.random.default_rng(5)
    lam = 3.0
    for n in (0, 1, 2):
        for k in (1, 2, 4, 8):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            q = apply_one(t, n, k, lam, psi)
            oracle = spectral_oracle(t, n, k, lam, psi)
            assert np.linalg.norm(q.corrected_value - oracle) <= 1e-7


def test_eigenvector_with_power_oracle():
    t = two_qubit_triple()
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0  # eigenvalue 2
    q = apply_one(t, 1, 2, 3.0, psi)
    scalar = 2.0 * (1.0 / (1.0 + math.exp(2 * (2.0 - 3.0))))
    assert np.linalg.norm(q.corrected_value - scalar * psi) <= 1e-7


@pytest.mark.parametrize("spec", [
    AlgebraSpec.standard_factor(2),
    AlgebraSpec.standard_factor(3),
    AlgebraSpec.direct_sum([(2, 2), (1, 1)]),  # degenerate spectrum
    AlgebraSpec.maximal_abelian(4),
], ids=lambda s: s.label())
def test_residue_closure_across_models(spec):
    t = generate_fixture(spec, seed=43).triple
    rng = np.random.default_rng(44)
    w = t.delta_spec.eigenvalues
    lam = float(np.sqrt(w[0] * w[-1]))
    for n in (0, 1, 2):
        for k in (1, 2, 4, 8):
            psi = rng.standard_normal(t.dim) + 1j * rng.standard_normal(t.dim)
            psi /= np.linalg.norm(psi)
            q = apply_one(t, n, k, lam, psi)
            oracle = spectral_oracle(t, n, k, lam, psi)
            assert np.linalg.norm(q.corrected_value - oracle) <= 10 * QUAD_TOL


def test_trapezoid_level_is_mean_of_trapezoid_and_midpoint():
    # T(h/2) = (T(h) + M(h)) / 2: the grid of step h/2 is the grid of step h
    # plus the midpoint nodes of step h, with the same weights halved
    t = two_qubit_triple()
    rng = np.random.default_rng(45)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    for n, k, lam in ((0, 1, 3.0), (2, 8, 1.3)):
        trunc = choose_contour(t, n, k, lam)
        n_line = max(8, int(trunc * NODES_PER_UNIT))
        n_circ = 64
        coarse = trapezoid_rule(t, n, k, lam, psi, trunc, n_line, n_circ)
        mid = contour_quadrature_fixed(t, n, k, lam, psi, trunc, n_line, n_circ)
        ref = trapezoid_rule(t, n, k, lam, psi, trunc, 2 * n_line, 2 * n_circ)
        err = np.linalg.norm(0.5 * (coarse + mid) - ref)
        assert err <= 1e-13 * max(1.0, np.linalg.norm(ref))


def test_contour_apply_passes_double_and_never_repeat(monkeypatch):
    t = two_qubit_triple()
    passes = []
    nodes = contour._contour_nodes

    def recording(trunc, n_line, n_circ, midpoint):
        if midpoint:  # the midpoint passes; the one trapezoid grid is level 0
            passes.append((n_line, n_circ))
        return nodes(trunc, n_line, n_circ, midpoint)

    monkeypatch.setattr(contour, "_contour_nodes", recording)
    q = apply_one(t, 2, 8, 1.3, np.ones(4))
    assert len(passes) >= 2 and len(set(passes)) == len(passes)
    for (l0, c0), (l1, c1) in zip(passes, passes[1:]):
        assert (l1, c1) == (2 * l0, 2 * c0)
    # the last level is the trapezoid rule of step half the last pass
    assert q.node_count == 2 * (2 * passes[-1][0]) + 2 * passes[-1][1]
    # a zero vector agrees at once, but the first comparison is at level 2
    passes.clear()
    apply_one(t, 2, 8, 1.3, np.zeros(4))
    assert len(passes) == 2


def test_romberg_row_removes_even_powers_of_the_step():
    # T(h) = I + a h^2 + b h^4 + c h^6: the diagonal entry of row m is exact
    # once m >= the number of error terms
    exact, coeffs = 0.7, (0.3, -1.1, 2.5)
    rows = []
    for j in range(4):
        h = 0.5**j
        trapezoid = exact + sum(c * h ** (2 * i + 2) for i, c in enumerate(coeffs))
        rows.append(contour._romberg_row(rows[-1] if rows else [], trapezoid))
    assert abs(rows[2][2] - exact) > 1e-6  # two levels of extrapolation leave h^6
    assert abs(rows[3][3] - exact) <= 1e-14


def test_uncorrected_discrepancy_equals_pole_norm():
    # value - oracle = pole_sum up to quadrature error: the uncorrected
    # mismatch is exactly the enclosed-pole contribution
    t = two_qubit_triple()
    rng = np.random.default_rng(6)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    q = apply_one(t, 0, 1, 3.0, psi)
    oracle = spectral_oracle(t, 0, 1, 3.0, psi)
    diff = q.value - oracle
    assert np.linalg.norm(diff - q.pole_correction) <= 1e-7
    assert np.linalg.norm(q.pole_correction) > 1e-3  # poles genuinely matter


def test_convergence_order_at_least_three():
    t = two_qubit_triple()
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    n, k, lam = 1, 2, 3.0
    trunc = choose_contour(t, n, k, lam)
    target = spectral_oracle(t, n, k, lam, psi) + pole_sum(t, n, k, lam, psi)
    n_line = max(8, int(trunc * 2))
    d1 = np.linalg.norm(contour_quadrature_fixed(t, n, k, lam, psi, trunc, n_line, 32) - target)
    d2 = np.linalg.norm(contour_quadrature_fixed(t, n, k, lam, psi, trunc, 2 * n_line, 64) - target)
    assert d1 / d2 >= 3.0


def _full_rule(triple, n, k, lam, psi, trunc, n_line, n_circ, midpoint=True):
    """The midpoint or trapezoid rule on the whole contour, by an N x d broadcast.

    Top half-line from T toward the axis, left half-circle, bottom half-line
    outward; (1/2 pi i) sum z^n f_k(z) w(z) / (z - w_j) psi_j per eigencomponent.
    The trapezoid rule evaluates each piece's end points, the two corners twice.
    """
    h, t = 2 * math.pi, trunc

    def piece(count):
        if midpoint:
            return np.arange(count) + 0.5, np.ones(count)
        ends = np.ones(count + 1)
        ends[[0, -1]] = 0.5
        return np.arange(count + 1.0), ends

    s_line, c_line = piece(n_line)
    s_circ, c_circ = piece(n_circ)
    du = t / n_line
    u = s_line * du
    theta = math.pi / 2 + s_circ * (math.pi / n_circ)
    z = np.concatenate([(t - u) + 1j * h, h * np.exp(1j * theta), u - 1j * h])
    w = np.concatenate([-du * c_line, 1j * h * np.exp(1j * theta) * math.pi / n_circ * c_circ,
                        du * c_line])
    eig, vec = triple.delta_spec.eigenvalues, triple.delta_spec.eigenvectors
    comps = (z**n * sigmoid(z, k, lam) * w)[:, None] / (z[:, None] - eig[None, :])
    return vec @ (comps.sum(axis=0) * (vec.conj().T @ psi)) / (2j * math.pi)


@pytest.mark.parametrize("spec", [
    AlgebraSpec.standard_factor(2),
    AlgebraSpec.standard_factor(3),
    AlgebraSpec.direct_sum([(2, 2), (1, 1)]),  # degenerate spectrum
    AlgebraSpec.maximal_abelian(4),
], ids=lambda s: s.label())
def test_half_contour_rule_equals_full_rule(spec):
    t = generate_fixture(spec, seed=41).triple
    rng = np.random.default_rng(42)
    psi = rng.standard_normal(t.dim) + 1j * rng.standard_normal(t.dim)
    psi /= np.linalg.norm(psi)
    w = t.delta_spec.eigenvalues
    lam = float(np.sqrt(w[0] * w[-1]))
    worst = 0.0
    for n in (0, 1, 2):
        for k in (1, 2, 4, 8):
            trunc = choose_contour(t, n, k, lam)
            n_line = max(8, int(trunc * NODES_PER_UNIT))
            # an odd midpoint count, an even trapezoid count puts a node on the real axis
            for n_circ, midpoint in ((64, True), (65, True), (64, False), (65, False)):
                ref = _full_rule(t, n, k, lam, psi, trunc, n_line, n_circ, midpoint)
                if midpoint:
                    half = contour_quadrature_fixed(t, n, k, lam, psi, trunc, n_line, n_circ)
                else:
                    half = trapezoid_rule(t, n, k, lam, psi, trunc, n_line, n_circ)
                err = np.linalg.norm(half - ref) / max(1.0, np.linalg.norm(ref))
                worst = max(worst, err)
    assert worst <= 1e-12


def test_truncation_robustness():
    t = two_qubit_triple()
    rng = np.random.default_rng(8)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    trunc = choose_contour(t, 0, 1, 3.0)
    v1, v2 = (q.value for q in contour_apply(t, [(0, 1, trunc), (0, 1, 2 * trunc)], 3.0, psi))
    assert np.linalg.norm(v1 - v2) < 1e-8


def test_contour_requires_enclosed_spectrum():
    t = two_qubit_triple()
    psi = np.array([1.0, 0, 0, 0], dtype=complex)
    # T = 1 lies below the top eigenvalue 2, T = 0.4 below lambda; NaN is no truncation
    for bad in (1.0, 0.4, math.nan):
        assert isinstance(apply_one(t, 0, 2, 0.5, psi, trunc=bad), ContourError)


def test_contour_rejects_negative_power_or_lambda():
    t = two_qubit_triple()
    psi = np.array([1.0, 0, 0, 0], dtype=complex)
    assert isinstance(apply_one(t, -1, 2, 1.0, psi), ContourError)
    assert isinstance(apply_one(t, 0, 2, -1.0, psi), ContourError)
    # a refused integrand fills its own slot; the others are evaluated
    slots = contour_apply(t, [(0, 2, None), (-1, 2, None), (0, 1.5, None)], 1.0, psi)
    assert isinstance(slots[0], contour.QuadratureResult)
    assert all(isinstance(s, ContourError) for s in slots[1:])


# ---------------------------------------------------------------------------
# families of integrals
# ---------------------------------------------------------------------------


def _family(t, lam):
    """Every (n, k) of the contour suite on its own contour, the truncation
    pair (the first repeats (0, 1)), and (2, 8) on the doubled contour."""
    base = choose_contour(t, 0, 1, lam)
    return ([(n, k, None) for n in (0, 1, 2) for k in (1, 2, 4, 8)]
            + [(0, 1, base), (0, 1, 2 * base), (2, 8, 2 * base)])


@pytest.mark.parametrize("spec", [
    AlgebraSpec.standard_factor(2),
    AlgebraSpec.standard_factor(3),
    AlgebraSpec.direct_sum([(2, 2), (1, 1)]),
], ids=lambda s: s.label())
def test_family_member_equals_its_one_integrand_call(spec):
    t = generate_fixture(spec, seed=46).triple
    rng = np.random.default_rng(47)
    psi = rng.standard_normal(t.dim) + 1j * rng.standard_normal(t.dim)
    w = t.delta_spec.eigenvalues
    lam = float(np.sqrt(w[0] * w[-1]))
    family = _family(t, lam)
    results = contour_apply(t, family, lam, psi)
    assert len(results) == len(family)
    for (n, k, trunc), q in zip(family, results):
        alone = apply_one(t, n, k, lam, psi, trunc=trunc)
        assert q.node_count == alone.node_count
        for got, ref in ((q.value, alone.value), (q.corrected_value, alone.corrected_value)):
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
        assert np.array_equal(q.pole_correction, alone.pole_correction)


def test_failed_integrands_leave_the_others_bit_identical(monkeypatch):
    t = two_qubit_triple()
    psi = np.array([1.0, 2.0, -1.0j, 0.5])
    trunc, lam = 10.0, 7 * 10.0 / 80
    healthy = [(0, 2, trunc), (1, 4, trunc)]
    clean = contour_apply(t, healthy, lam, psi)
    # a refused argument on the same contour, a negative power
    mixed = contour_apply(t, [(-1, 2, trunc)] + healthy, lam, psi)
    assert type(mixed[0]) is ContourError and "power" in str(mixed[0])
    for q, ref in zip(mixed[1:], clean):
        assert np.array_equal(q.value, ref.value) and q.node_count == ref.node_count
    # a node cap that an integral on a 16 times longer contour cannot meet
    monkeypatch.setattr(contour, "NODE_CAP", max(q.node_count for q in clean) // 2 + 1)
    capped = contour_apply(t, healthy + [(0, 2, 16 * trunc)], lam, psi)
    assert type(capped[-1]) is ContourError and "node cap" in str(capped[-1])
    for q, ref in zip(capped, clean):
        assert np.array_equal(q.value, ref.value) and q.node_count == ref.node_count


def test_steepness_beyond_the_pole_gap_is_refused(monkeypatch):
    # pi/k < POLE_NODE_GAP is refused in its own slot; pi/k >= POLE_NODE_GAP
    # passes the checks, and its pole sum of 2k poles fits in memory
    t = two_qubit_triple()
    psi = np.array([1.0, 0, 0, 0], dtype=complex)
    k_last = math.floor(math.pi / POLE_NODE_GAP)
    assert contour._checked_truncation(t, 0, k_last, 1.0, 10.0) == 10.0
    assert np.isfinite(contour.pole_sum(t, 0, k_last, 1.0, psi)).all()
    # with a node cap below level 0, an accepted k_last + 1 would stop at the cap
    monkeypatch.setattr(contour, "NODE_CAP", 1)
    slots = contour_apply(t, [(0, k_last + 1, None), (0, 2, None)], 1.0, psi)
    assert type(slots[0]) is ContourError and "pi/k" in str(slots[0])
    assert type(slots[1]) is ContourError and "node cap" in str(slots[1])


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(1e-9, 50.0), k=st.integers(1, 64), excess=st.floats(1e-6, 100.0),
       n_line=st.integers(1, 500), n_circ=st.integers(1, 500), midpoint=st.booleans())
def test_no_node_comes_within_pi_over_k_of_a_pole(lam, k, excess, n_line, n_circ, midpoint):
    # every node of either rule keeps pi/k from every pole lambda +- i pi (2m+1)/k,
    # the enclosed ones (m < k) and the nearest two outside the contour
    z, _ = contour._contour_nodes(lam + excess, n_line, n_circ, midpoint)
    im = math.pi * (2 * np.arange(k + 2) + 1) / k
    poles = lam + 1j * np.concatenate([im, -im])
    assert np.abs(z[:, None] - poles).min() >= (math.pi / k) * (1 - 1e-12)


def test_family_closes_on_a_complex_eigenbasis():
    # the rotated fixture's eigenvectors are complex: a missing conj in the
    # eigencomponents shows here; the references are independent of the module
    t = rotated_triple(4)
    assert np.abs(t.delta_spec.eigenvectors.imag).max() > 0.1
    rng = np.random.default_rng(48)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = t.delta_spec.eigenvalues
    lam = float(np.sqrt(w[0] * w[-1]))
    family = [(n, k, None) for n in (0, 2) for k in (1, 4)]
    for (n, k, _), q in zip(family, contour_apply(t, family, lam, psi)):
        oracle = matrix_function(t.delta_spec, lambda x: x**n * sigmoid(x, k, lam)) @ psi
        assert np.linalg.norm(spectral_oracle(t, n, k, lam, psi) - oracle) <= 1e-13
        poles = sum(z**n * (-1.0 / k) * np.linalg.solve(z * np.eye(4) - t.delta, psi)
                    for z in sigmoid_poles(k, lam))
        assert np.linalg.norm(q.pole_correction - poles) <= 1e-12
        assert np.linalg.norm(q.value - oracle - poles) <= 10 * QUAD_TOL


def test_duplicate_integrand_costs_no_node_evaluation(monkeypatch):
    t = two_qubit_triple()
    psi = np.array([1.0, 2.0, -1.0j, 0.5])
    calls, rows = [], []
    nodes, rule = contour._contour_nodes, contour._half_rule

    def counting(trunc, n_line, n_circ, midpoint):
        calls.append((trunc, n_line, n_circ, midpoint))
        return nodes(trunc, n_line, n_circ, midpoint)

    def row_counting(triple, integrands, *args, **kwargs):
        rows.append(len(integrands))  # integrands evaluated on the node set
        return rule(triple, integrands, *args, **kwargs)

    monkeypatch.setattr(contour, "_contour_nodes", counting)
    monkeypatch.setattr(contour, "_half_rule", row_counting)
    [single] = contour_apply(t, [(0, 1, None)], 3.0, psi)
    once = len(calls)
    assert rows == [1] * once
    calls.clear()
    rows.clear()
    trunc = choose_contour(t, 0, 1, 3.0)
    repeated = contour_apply(t, [(0, 1, None), (0, 1, trunc), (0, 1, None)], 3.0, psi)
    assert len(calls) == once and len(set(calls)) == once and rows == [1] * once
    for q in repeated:
        assert np.array_equal(q.value, single.value) and q.node_count == single.node_count
    # two integrals on one contour share each level's node set
    calls.clear()
    contour_apply(t, [(0, 1, trunc), (2, 1, trunc)], 3.0, psi)
    assert len(set(calls)) == len(calls)


# ---------------------------------------------------------------------------
# sigmoid-to-step limit
# ---------------------------------------------------------------------------


def test_sigmoid_limit_below_spectrum_envelope():
    # scalar tail bound: error <= max |e^n| exp(-k gap) for support below lambda
    t = two_qubit_triple()
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0  # eigenvalue 1 component only
    lam = 3.0
    gap = 1.0
    ks, errors = sigmoid_limit_check(t, 0, lam, psi)
    for k, error in zip(ks, errors):
        assert error <= math.exp(-k * gap) + 1e-14
    assert errors[-1] <= SIGMOID_FINAL_TOL


def test_sigmoid_limit_above_spectrum_envelope():
    t = two_qubit_triple()
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0  # eigenvalue 2 component, above lambda
    lam = 1.3
    gap = 0.7
    ks, errors = sigmoid_limit_check(t, 0, lam, psi)
    for k, error in zip(ks, errors):
        assert error <= math.exp(-k * gap) + 1e-14
    assert errors[-1] <= SIGMOID_FINAL_TOL


def test_sigmoid_limit_identity_delta_scalar_arithmetic():
    fix = generate_fixture(AlgebraSpec.maximal_abelian(4), seed=9)
    rng = np.random.default_rng(10)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lam = 2.0
    ks, errors = sigmoid_limit_check(fix.triple, 0, lam, psi)
    for k, error in zip(ks, errors):
        expected = (1.0 - 1.0 / (1.0 + math.exp(k * (1.0 - lam)))) * np.linalg.norm(psi)
        assert abs(error - expected) <= 1e-12 * max(expected, 1.0)


def test_sigmoid_limit_default_klist_and_pass():
    fix = generate_fixture(AlgebraSpec.standard_factor(2), seed=17)
    rng = np.random.default_rng(11)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    w = fix.triple.delta_spec.eigenvalues
    lam = float(w[-1]) + 1.0
    ks, errors = sigmoid_limit_check(fix.triple, 1, lam, psi)
    assert errors[-1] <= SIGMOID_FINAL_TOL
    assert ks[-1] == math.ceil(40.0 / np.min(np.abs(w - lam)))


@pytest.mark.parametrize("spec", [
    AlgebraSpec.standard_factor(3),
    AlgebraSpec.direct_sum([(2, 2), (1, 1)]),
], ids=lambda s: s.label())
def test_sigmoid_limit_ladder_matches_the_per_k_oracle(spec):
    t = generate_fixture(spec, seed=12).triple
    rng = np.random.default_rng(13)
    psi = rng.standard_normal(t.dim) + 1j * rng.standard_normal(t.dim)
    w = t.delta_spec.eigenvalues
    lam = float(w[-1]) + 0.7
    theta = (t.delta_spec.eigenvectors * np.where(w < lam, w**2, 0.0)) @ (
        t.delta_spec.eigenvectors.conj().T @ psi)
    ks, errors = sigmoid_limit_check(t, 2, lam, psi)
    assert len(ks) > 3
    for k, error in zip(ks, errors):
        oracle = matrix_function(t.delta_spec, lambda x: x**2 * sigmoid(x, k, lam)) @ psi
        ref = float(np.linalg.norm(oracle - theta))
        assert abs(error - ref) <= 1e-14 * max(ref, np.linalg.norm(theta))


def test_sigmoid_takes_an_integer_steepness_array():
    z = np.array([0.3 + 2.0j, 4.0 - 1.0j, -2.5 + 0.0j])
    ks = np.array([[1], [3], [8]])
    ladder = sigmoid(z, ks, 1.2)
    assert ladder.shape == (3, 3)
    for row, k in zip(ladder, ks.ravel()):
        assert np.array_equal(row, sigmoid(z, int(k), 1.2))
    for bad in (np.array([[1.0], [2.0]]), np.array([[1], [0]])):
        with pytest.raises(ContourError):
            sigmoid(z, bad, 1.2)


def test_sigmoid_limit_rejects_lambda_near_spectrum():
    t = two_qubit_triple()
    psi = np.array([1.0, 0, 0, 0], dtype=complex)
    with pytest.raises(ContourError):
        sigmoid_limit_check(t, 0, 1.01, psi)
