import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modlab.algebra import IllConditionedError, Orbit, membership_residual, subspace_orthonormalize
from modlab.fixtures import AlgebraSpec, covering_windows, generate_fixture, parse_spec
from modlab.linalg import complex_power, matrix_function, rel_residual
from modlab.tidy import (
    ResolventDomainError,
    WindowError,
    axis_gap,
    dagger_ladder_check,
    growth_audit,
    ladder,
    make_tidy,
    mirrored_tidy_bound,
    powers_check,
    resolvent_transfer,
    spectral_window,
    tidy_bicommutant_check,
    tidy_bound,
    tidy_span_check,
)
from modlab.tomita import modular_data
from rotated import rotated_triple

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def elementary(d, i, j):
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def two_qubit():
    a = subspace_orthonormalize(
        [np.kron(elementary(2, i, j), np.eye(2)) for i in range(2) for j in range(2)]
    )
    comm = subspace_orthonormalize(
        [np.kron(np.eye(2), elementary(2, i, j)) for i in range(2) for j in range(2)]
    )
    omega = np.array([np.sqrt(2 / 3), 0, 0, np.sqrt(1 / 3)], dtype=complex)
    return a, comm, omega, modular_data(a, omega, comm)


# ---------------------------------------------------------------------------
# spectral windows
# ---------------------------------------------------------------------------


def test_window_covering_full_spectrum_is_identity():
    _, _, _, t = two_qubit()
    w = spectral_window(t, 0.1, 100.0)
    assert np.allclose(w, np.eye(4), atol=1e-12)


def test_window_selects_single_eigenspace():
    # eigenvalue membership oracle: only the eigenvalue-2 eigenspace |01>
    # falls in (1.5, 2.5)
    _, _, _, t = two_qubit()
    w = spectral_window(t, 1.5, 2.5)
    oracle = np.zeros((4, 4), dtype=complex)
    oracle[1, 1] = 1.0
    assert np.allclose(w, oracle, atol=1e-12)
    assert np.allclose(w @ w, w, atol=1e-12)


def test_window_boundary_hit_gives_half_weight():
    # the step convention assigns weight 1/2 on an exact boundary eigenvalue
    _, _, _, t = two_qubit()
    w = spectral_window(t, 1.5, 2.0)
    oracle = np.zeros((4, 4), dtype=complex)
    oracle[1, 1] = 0.5
    assert np.allclose(w, oracle, atol=1e-12)


def test_window_rejects_bad_ordering():
    _, _, _, t = two_qubit()
    with pytest.raises(WindowError):
        spectral_window(t, 2.5, 1.5)
    with pytest.raises(WindowError):
        spectral_window(t, -1.0, 1.5)


def test_spectral_window_half_value_convention():
    # the step is 1 inside the window, 0 outside and 1/2 on an edge; the
    # eigenvalue-2 eigenspace |01> of the two-qubit Delta is the probe
    _, _, _, t = two_qubit()
    u = t.delta_spec.eigenvectors
    top = int(np.argmax(t.delta_spec.eigenvalues))

    def weight(l1, l2):
        return (u.conj().T @ spectral_window(t, l1, l2) @ u)[top, top]

    assert abs(weight(1.7, 2.3) - 1.0) <= 1e-12
    assert abs(weight(2.3, 3.0)) <= 1e-12
    assert abs(weight(2.0, 3.0) - 0.5) <= 1e-12


def test_spectral_window_matches_elementwise_step():
    # reference: the step evaluated one eigenvalue at a time in Python
    def step(x, eps):
        return 1.0 if x > eps else (0.0 if x < -eps else 0.5)

    fix = generate_fixture(AlgebraSpec.direct_sum([(2, 2), (1, 1)]), seed=3)
    t = fix.triple
    w = t.delta_spec.eigenvalues
    windows = covering_windows(t) + [(w[0], w[-1]), (0.1, float(w[2])), (1.5, 2.5)]
    for l1, l2 in windows:
        e1, e2 = 1e-9 * max(1.0, l1), 1e-9 * max(1.0, l2)
        ref = matrix_function(
            t.delta_spec, lambda ws: np.array([step(l2 - x, e2) * step(x - l1, e1) for x in ws])
        )
        assert np.array_equal(spectral_window(t, l1, l2), ref)


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


def test_orbit_solve_identity():
    a, _, omega, t = two_qubit()
    out = t.orbit.solve(omega)
    assert rel_residual(out, np.eye(4)) <= 1e-12


def test_orbit_solve_membership_round_trip():
    a, _, omega, t = two_qubit()
    x = np.kron(SX, np.eye(2))
    out = t.orbit.solve(x @ omega)
    assert rel_residual(out, x) <= 1e-12


def test_orbit_solve_random_residual():
    a, _, omega, t = two_qubit()
    rng = np.random.default_rng(0)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    out = t.orbit.solve(v)
    assert np.linalg.norm(out @ omega - v) <= 1e-10 * np.linalg.norm(v)


def test_orbit_solve_linear():
    a, _, omega, t = two_qubit()
    rng = np.random.default_rng(1)
    v1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lhs = t.orbit.solve(2.0 * v1 - 1j * v2)
    rhs = 2.0 * t.orbit.solve(v1) - 1j * t.orbit.solve(v2)
    assert rel_residual(lhs, rhs) <= 1e-12


def test_orbit_solve_uses_the_cached_singular_values(monkeypatch):
    # the orbit matrix and its SVD are built once, in modular_data
    _, _, omega, t = two_qubit()

    def no_svd(*args, **kwargs):
        raise AssertionError("Orbit.solve must not factor the orbit again")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    out = t.commutant_orbit.solve(omega)
    assert rel_residual(out, np.eye(4)) <= 1e-12


def test_orbit_solve_refuses_ill_conditioned_orbit():
    _, _, omega, t = two_qubit()
    skewed = dataclasses.replace(t.orbit, singular_values=np.array([1e7, 1.0, 1.0, 1.0]))
    with pytest.raises(IllConditionedError):
        skewed.solve(omega)


# ---------------------------------------------------------------------------
# make_tidy
# ---------------------------------------------------------------------------


def test_make_tidy_full_window_recovers_source():
    a, comm, omega, t = two_qubit()
    x = np.kron(SX, np.eye(2))
    tidy = make_tidy(t, x, 0.1, 100.0)
    assert rel_residual(tidy.a, x) <= 1e-10
    assert np.linalg.norm(tidy.a_prime @ omega - x @ omega) <= 1e-10


def test_make_tidy_identity_source_narrow_window():
    # spectral projection oracle: omega lives in the eigenvalue-1 eigenspace,
    # so the (1.5, 2.5) window annihilates it
    a, comm, omega, t = two_qubit()
    tidy = make_tidy(t, np.eye(4), 1.5, 2.5)
    assert np.linalg.norm(tidy.vector) <= 1e-12
    assert np.linalg.norm(tidy.a) <= 1e-10


def test_make_tidy_vector_and_power_scaling():
    # Delta^2 scales the eigenvalue-2 eigenspace by 4; the ladder solves on
    # both sides realize the scaled vector
    a, comm, omega, t = two_qubit()
    x = np.kron(SX, np.eye(2))
    tidy = make_tidy(t, x, 1.5, 2.5)
    a2 = ladder(t, t.orbit, tidy, 2)
    a2_prime = ladder(t, t.commutant_orbit, tidy, 2)
    assert rel_residual(a2 @ omega, 4.0 * tidy.vector) <= 1e-10
    assert rel_residual(a2_prime @ omega, 4.0 * tidy.vector) <= 1e-10
    assert rel_residual(tidy.a @ omega, tidy.vector) <= 1e-10
    assert rel_residual(tidy.a_prime @ omega, tidy.vector) <= 1e-10
    for op, space in ((tidy.a, a), (a2, a), (tidy.a_prime, comm), (a2_prime, comm)):
        assert membership_residual(op, space) <= 1e-10


def test_ladder_rejects_large_power():
    a, comm, _, t = two_qubit()
    tidy = make_tidy(t, np.eye(4), 0.5, 2.5)
    with pytest.raises(WindowError):
        ladder(t, t.orbit, tidy, 9)


# ---------------------------------------------------------------------------
# resolvent transfer
# ---------------------------------------------------------------------------


def test_resolvent_bound_at_minus_one():
    # direct evaluation: sqrt(2 (1 + 1)) = 2
    a, comm, omega, t = two_qubit()
    src = comm.basis[1]
    out = resolvent_transfer(t, src, -1.0 + 0.0j)
    assert abs(out.bound - np.linalg.norm(src, 2) / 2.0) <= 1e-12
    assert out.measured_norm <= out.bound * (1 + 1e-9)


def test_resolvent_bound_at_2pi_i():
    a, comm, omega, t = two_qubit()
    src = np.kron(np.eye(2), SX)
    out = resolvent_transfer(t, src, 2j * np.pi)
    assert abs(out.bound - 1.0 / math.sqrt(4 * math.pi)) <= 1e-12
    assert out.measured_norm <= out.bound * (1 + 1e-9)
    # the solve really lands in the algebra and reproduces the vector
    resolvent_vec = np.linalg.solve(2j * np.pi * np.eye(4) - t.delta, src @ omega)
    assert np.linalg.norm(out.a @ omega - resolvent_vec) <= 1e-10


def test_resolvent_transfer_ensemble_zero_violations():
    rng = np.random.default_rng(5)
    fixes = [
        generate_fixture(AlgebraSpec.standard_factor(2), seed=21),
        generate_fixture(AlgebraSpec.direct_sum([(2, 2), (1, 1)]), seed=22),
        generate_fixture(AlgebraSpec.maximal_abelian(4), seed=23),
    ]
    checked = 0
    for fix in fixes:
        w = fix.triple.delta_spec.eigenvalues
        done = 0
        while done < 70:
            r = math.exp(rng.uniform(math.log(0.2 * w[0]), math.log(5 * w[-1])))
            theta = rng.uniform(0.05, 2 * math.pi - 0.05)
            z = r * complex(math.cos(theta), math.sin(theta))
            if abs(z) - z.real <= 1e-5 or np.min(np.abs(z - w)) <= 1e-5:
                continue
            comm = fix.triple.commutant
            c = rng.standard_normal(comm.dim) + 1j * rng.standard_normal(comm.dim)
            out = resolvent_transfer(fix.triple, comm.element(c), z)
            assert out.measured_norm <= out.bound * (1 + 1e-9)
            done += 1
        checked += done
    assert checked >= 200


def test_resolvent_transfer_mirror_role_swap():
    a, comm, omega, t = two_qubit()
    src = np.kron(SX, np.eye(2))
    out = resolvent_transfer(t, src, 1j, mirror=True)
    assert membership_residual(out.a, comm) <= 1e-10
    assert out.measured_norm <= out.bound * (1 + 1e-9)
    # the commutant's modular operator is Delta^(-1)
    resolvent_vec = np.linalg.solve(1j * np.eye(4) - np.linalg.inv(t.delta), src @ omega)
    assert np.linalg.norm(out.a @ omega - resolvent_vec) <= 1e-10


def test_resolvent_rejects_points_near_axis_or_spectrum():
    a, comm, _, t = two_qubit()
    with pytest.raises(ResolventDomainError):
        resolvent_transfer(t, comm.basis[0], 3.0 + 0j)  # positive real axis
    with pytest.raises(ResolventDomainError):
        resolvent_transfer(t, comm.basis[0], 2.0 + 1e-9j)  # inside spectrum
    with pytest.raises(ResolventDomainError):
        resolvent_transfer(t, a.basis[0], 0.5 + 1e-9j, mirror=True)  # inside spec(Delta^-1)


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def test_tidy_bound_reference_value():
    # independent arithmetic for lambda = 1, n = 0, unit source norm
    r2 = 1.0 + 4 * math.pi**2
    first = 2.0 / math.sqrt(2 * (math.sqrt(r2) - 1.0))
    second = (2 * math.pi) * math.pi / math.sqrt(4 * math.pi)
    expected = (first + second) / (2 * math.pi)
    value = tidy_bound(1.0, 0, 1.0)
    assert abs(value - expected) <= 1e-14
    assert abs(value - 0.983) <= 1e-3


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=50.0),
    st.integers(min_value=0, max_value=7),
)
def test_tidy_bound_monotone_and_ratio_bracket(lam, n):
    b0 = tidy_bound(lam, n, 1.0)
    b1 = tidy_bound(lam, n + 1, 1.0)
    assert b1 > b0
    ratio = b1 / b0
    growth = math.sqrt(lam**2 + 4 * math.pi**2)
    assert 2 * math.pi - 1e-9 <= ratio <= growth + 1e-9
    # monotone in lambda as well
    assert tidy_bound(lam * 1.1, n, 1.0) > b0


def test_mirrored_bound_matches_displayed_formula():
    # the mirror at (lambda, n) must equal the direct formula at (1/lambda, -n)
    for lam in (0.3, 1.0, 2.7):
        for n in (0, -1, -4):
            direct = (1.0 / (2 * math.pi)) * (
                2 * (1 / lam) * ((1 / lam) ** 2 + 4 * math.pi**2) ** (-n / 2)
                / math.sqrt(2 * (math.sqrt((1 / lam) ** 2 + 4 * math.pi**2) - 1 / lam))
                + (2 * math.pi) ** (-n + 1) * math.pi / math.sqrt(4 * math.pi)
            )
            assert abs(mirrored_tidy_bound(lam, n, 1.0) - direct) <= 1e-12 * direct


# ---------------------------------------------------------------------------
# growth audit
# ---------------------------------------------------------------------------


def test_growth_audit_trivial_delta_constant_norms():
    fix = generate_fixture(AlgebraSpec.maximal_abelian(4), seed=2)
    src = fix.triple.algebra.basis[1]
    audit = growth_audit(fix.triple, src, 0.5, 2.0)
    norms = [r.measured_norm for r in audit.rows if r.family == "a"]
    assert max(norms) - min(norms) <= 1e-10 * max(norms)
    assert all(r.passed for r in audit.rows)


def test_growth_audit_single_eigenvalue_window_scales_exactly():
    # eigenvalue scaling oracle: on the eigenvalue-2 window the ladder gains
    # a factor 2 in operator norm per step
    a, comm, omega, t = two_qubit()
    src = np.kron(SX, np.eye(2))
    audit = growth_audit(t, src, 1.5, 2.5)
    a_rows = {r.n: r for r in audit.rows if r.family == "a"}
    for n in range(-3, 3):
        assert abs(a_rows[n + 1].measured_norm - 2.0 * a_rows[n].measured_norm) \
            <= 1e-9 * a_rows[n + 1].measured_norm
    assert abs(audit.slope_pos - math.log(2.0)) <= 1e-6


def test_growth_audit_rows_and_bound_sides():
    fix = generate_fixture(AlgebraSpec.standard_factor(2), seed=13)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    src = fix.triple.algebra.element(c)
    audit = growth_audit(fix.triple, src, 0.9, 1.5)
    assert len(audit.rows) == 2 * 13
    families = {r.family for r in audit.rows}
    assert families == {"a", "a_prime"}
    for r in audit.rows:
        assert r.measured_norm >= 0 and r.bound_value > 0
        # away from n = 0 the bound gains a factor ~2 pi per step and clears
        # the measurement comfortably; at n = 0 the displayed constant can be
        # exceeded (the audit exists to record exactly that), so no assertion
        if abs(r.n) >= 1:
            assert r.passed


def test_growth_audit_n0_constant_is_violated_on_reference_instance():
    # exactly solvable instance: on the (1.5, 2.5) window of the p = (2/3, 1/3)
    # standard form the unique algebra-side solve is E_01 (x) 1 with operator
    # norm 1, its commutant partner has norm 1/sqrt(2), and the closed-form
    # value at n = 0 is about 0.819: the displayed constant is genuinely too
    # small, consistent with the enclosed-pole gap in the contour identity
    a, comm, omega, t = two_qubit()
    src = np.kron(SX, np.eye(2))
    audit = growth_audit(t, src, 1.5, 2.5)
    row = next(r for r in audit.rows if r.family == "a" and r.n == 0)
    assert abs(row.measured_norm - 1.0) <= 1e-10
    assert abs(row.bound_value - tidy_bound(2.5, 0, 1 / math.sqrt(2))) <= 1e-12
    assert not row.passed
    assert 1.2 <= row.ratio <= 1.25


# ---------------------------------------------------------------------------
# ladder identities
# ---------------------------------------------------------------------------


def test_dagger_ladder_trivial_delta():
    fix = generate_fixture(AlgebraSpec.maximal_abelian(4), seed=4)
    wins = covering_windows(fix.triple)
    tidy = make_tidy(fix.triple, fix.triple.algebra.basis[2], wins[0][0], wins[0][1])
    res, tol = dagger_ladder_check(fix.triple, tidy, ladder(fix.triple, fix.triple.orbit, tidy, 0),
                                   ladder(fix.triple, fix.triple.commutant_orbit, tidy, 1), 1e-9)
    assert res <= max(tol, 1e-12)
    # abelian case: a' = a and the identity holds exactly
    assert rel_residual(tidy.a, tidy.a_prime) <= 1e-10


def test_dagger_ladder_two_qubit_range():
    a, comm, omega, t = two_qubit()
    rng = np.random.default_rng(6)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    tidy = make_tidy(t, a.element(c), 0.4, 2.6)
    ns = np.array([0, 1, 2, -1, -2])
    residuals, tols = dagger_ladder_check(t, tidy, ladder(t, t.orbit, tidy, ns),
                                          ladder(t, t.commutant_orbit, tidy, ns + 1), 1e-9)
    assert residuals.shape == tols.shape == (5,)
    for res, tol in zip(residuals, tols):
        assert res <= max(tol, 1e-9)


def test_powers_check_zero_is_exact():
    a, comm, omega, t = two_qubit()
    rng = np.random.default_rng(7)
    tidy_a = make_tidy(t, a.element(rng.standard_normal(4) + 1j * rng.standard_normal(4)),
                       0.4, 2.6)
    tidy_b = make_tidy(t, a.element(rng.standard_normal(4) + 1j * rng.standard_normal(4)),
                       0.4, 2.6)
    [res], [tol] = powers_check(t, tidy_a, tidy_b, [0], ladder(t, t.orbit, tidy_a, [0]), 1e-9)
    assert res <= 1e-12


def test_powers_check_range():
    a, comm, omega, t = two_qubit()
    rng = np.random.default_rng(8)
    tidy_a = make_tidy(t, a.element(rng.standard_normal(4) + 1j * rng.standard_normal(4)),
                       0.4, 2.6)
    tidy_b = make_tidy(t, a.element(rng.standard_normal(4) + 1j * rng.standard_normal(4)),
                       1.5, 2.5)
    ns = [1, 2, 3, -1, -3]
    residuals, tols = powers_check(t, tidy_a, tidy_b, ns, ladder(t, t.orbit, tidy_a, ns), 1e-9)
    for res, tol in zip(residuals, tols):
        assert res <= max(tol, 1e-9)


# ---------------------------------------------------------------------------
# density checks
# ---------------------------------------------------------------------------


def test_tidy_span_full_window_is_cyclic_span():
    a, comm, omega, t = two_qubit()
    assert tidy_span_check(t, [(0.1, 100.0)]) == 4


def test_tidy_span_split_windows_full_rank():
    a, comm, omega, t = two_qubit()
    assert tidy_span_check(t, [(0.3, 1.4), (1.4, 3.0)]) == 4


def test_tidy_span_missing_eigenspace_deficit():
    # projector rank arithmetic: dropping the eigenvalue-2 eigenspace (|01>,
    # dimension 1) reduces the span rank by exactly 1
    a, comm, omega, t = two_qubit()
    assert tidy_span_check(t, [(0.3, 1.4)]) == 3


def test_tidy_bicommutant_full_window():
    a, comm, omega, t = two_qubit()
    assert tidy_bicommutant_check(t, [(0.1, 100.0)]) <= 1e-9


def test_tidy_bicommutant_partial_covering_windows():
    a, comm, omega, t = two_qubit()
    wins = covering_windows(t)
    assert len(wins) >= 2
    assert tidy_bicommutant_check(t, wins) <= 1e-9


def test_tidy_bicommutant_abelian():
    fix = generate_fixture(AlgebraSpec.maximal_abelian(4), seed=9)
    wins = covering_windows(fix.triple)
    assert tidy_bicommutant_check(fix.triple, wins) <= 1e-9


# ---------------------------------------------------------------------------
# stacked solves against per-column loops
# ---------------------------------------------------------------------------


STACK_CASES = ["standard_factor(2)", "standard_factor(3)", "direct_sum(2:2,1:1)", "rotated"]


def stack_case(label):
    return rotated_triple(4) if label == "rotated" else generate_fixture(parse_spec(label), 2).triple


def loop_solve(v, orb):
    """The element with a omega = v for one vector: its own solve, then sum_i c_i b_i."""
    coeffs = np.linalg.solve(orb.matrix, v)
    return sum(c * b for c, b in zip(coeffs, orb.space.basis))


def assert_close(got, ref, rel=1e-14):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


def random_elements(space, rng, m):
    c = rng.standard_normal((m, space.dim)) + 1j * rng.standard_normal((m, space.dim))
    return np.tensordot(c, space.basis, axes=(1, 0))


@pytest.mark.parametrize("label", STACK_CASES)
def test_stacked_orbit_solve_matches_the_column_loop(label):
    t = stack_case(label)
    rng = np.random.default_rng(31)
    block = rng.standard_normal((t.dim, 6)) + 1j * rng.standard_normal((t.dim, 6))
    for orb in (t.orbit, t.commutant_orbit):
        stack = orb.solve(block)
        assert_close(stack, np.array([loop_solve(v, orb) for v in block.T]))
        assert_close(stack @ t.omega, block.T, rel=1e-12)
        assert_close(orb.solve(block[:, 2]), stack[2])


def test_stacked_orbit_solve_refuses_ill_conditioned_orbit():
    _, _, omega, t = two_qubit()
    skewed = dataclasses.replace(t.orbit, singular_values=np.array([1e7, 1.0, 1.0, 1.0]))
    with pytest.raises(IllConditionedError):
        skewed.solve(np.stack([omega, omega], axis=1))


@pytest.mark.parametrize("label", STACK_CASES)
def test_ladder_stack_matches_the_per_n_loop(label):
    t = stack_case(label)
    rng = np.random.default_rng(32)
    wins = covering_windows(t)
    tidy = make_tidy(t, random_elements(t.algebra, rng, 1)[0], wins[0][0], wins[-1][1])
    ns = np.arange(-3, 5)
    for orb in (t.orbit, t.commutant_orbit):
        loop = np.array([loop_solve(complex_power(t.delta_spec, int(n)) @ tidy.vector, orb)
                         for n in ns])
        assert_close(ladder(t, orb, tidy, ns), loop)
        assert_close(ladder(t, orb, tidy, ns.reshape(2, 4)), loop.reshape(2, 4, t.dim, t.dim))
    with pytest.raises(WindowError):
        ladder(t, t.orbit, tidy, [0, 9])


@pytest.mark.parametrize("label", STACK_CASES)
def test_growth_audit_matches_the_per_n_loop(label):
    t = stack_case(label)
    rng = np.random.default_rng(33)
    src = random_elements(t.algebra, rng, 1)[0]
    for l1, l2 in ((0.3, 0.9), (0.9, 1.5), (0.5, 3.0)):
        audit = growth_audit(t, src, l1, l2)
        tidy = make_tidy(t, src, l1, l2)
        norm_a0, norm_a0p = np.linalg.norm(tidy.a, 2), np.linalg.norm(tidy.a_prime, 2)
        for row in audit.rows:
            orb = t.orbit if row.family == "a" else t.commutant_orbit
            ref = np.linalg.norm(
                loop_solve(complex_power(t.delta_spec, row.n) @ tidy.vector, orb), 2)
            assert abs(row.measured_norm - ref) <= 1e-14 * max(ref, norm_a0, norm_a0p)
            bound = (tidy_bound(l2, row.n, norm_a0p) if row.n >= 0
                     else mirrored_tidy_bound(l1, row.n, norm_a0))
            assert abs(row.bound_value - bound) <= 1e-14 * bound


def stable_gap(z):
    """|z| - Re z, as Im(z)^2 / (|z| + Re z) when Re z > 0, where the difference cancels."""
    return z.imag ** 2 / (abs(z) + z.real) if z.real > 0 else abs(z) - z.real


def test_transfer_bound_near_the_positive_axis_matches_a_high_precision_gap():
    t = stack_case("direct_sum(2:2,1:1)")
    z = complex(float(t.delta_spec.eigenvalues[-1]), 0.3)
    src = random_elements(t.commutant, np.random.default_rng(35), 1)[0]
    out = resolvent_transfer(t, src[None], np.array([z]))
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        x, y = decimal.Decimal(z.real), decimal.Decimal(z.imag)
        gap = (x * x + y * y).sqrt() - x
        assert abs(decimal.Decimal(float(axis_gap(z))) - gap) <= decimal.Decimal(1e-16) * gap
        # |z| - Re z by subtraction is off by about 2e-14 of the gap here
        bound = decimal.Decimal(np.linalg.norm(src, 2)) / (2 * gap).sqrt()
        assert abs(decimal.Decimal(float(out.bound[0])) - bound) <= decimal.Decimal(1e-15) * bound


@pytest.mark.parametrize("label", STACK_CASES)
@pytest.mark.parametrize("mirror", [False, True], ids=["transfer", "mirror"])
def test_stacked_resolvent_transfer_matches_the_per_sample_loop(label, mirror):
    t = stack_case(label)
    rng = np.random.default_rng(34)
    w = t.delta_spec.eigenvalues
    zs = np.array([-1.0 + 0.5j, 2j * math.pi, 0.7 - 0.2j, -3.0 - 4.0j, float(w[-1]) + 0.3j])
    sources = random_elements(t.algebra if mirror else t.commutant, rng, len(zs))
    out = resolvent_transfer(t, sources, zs, mirror=mirror)
    orb = t.commutant_orbit if mirror else t.orbit
    for i, (z, src) in enumerate(zip(zs, sources)):
        f = (lambda x: 1.0 / (z - 1.0 / x)) if mirror else (lambda x: 1.0 / (z - x))
        a = loop_solve(matrix_function(t.delta_spec, f) @ (src @ t.omega), orb)
        assert_close(out.a[i], a)
        norm = np.linalg.norm(a, 2)
        assert abs(out.measured_norm[i] - norm) <= 1e-14 * norm
        bound = np.linalg.norm(src, 2) / math.sqrt(2.0 * stable_gap(z))
        assert abs(out.bound[i] - bound) <= 1e-14 * bound
        one = resolvent_transfer(t, src, z, mirror=mirror)
        assert_close(one.a, out.a[i])
        assert abs(one.measured_norm - out.measured_norm[i]) <= 1e-14 * norm


def test_stacked_resolvent_transfer_refuses_any_bad_point():
    a, comm, _, t = two_qubit()
    with pytest.raises(ResolventDomainError):
        resolvent_transfer(t, comm.basis[:2], np.array([-1.0 + 0j, 3.0 + 0j]))
    with pytest.raises(ResolventDomainError):
        resolvent_transfer(t, comm.basis[:2], np.array([-1.0 + 0j, 2.0 + 1e-9j]))


def test_tidy_bicommutant_builds_each_window_once_and_solves_one_side(monkeypatch):
    from modlab import tidy

    fix = generate_fixture(AlgebraSpec.direct_sum([(2, 2), (1, 1)]), seed=5)
    t = fix.triple
    wins = covering_windows(t)
    windows, orbits = [], []
    window, solve = tidy.spectral_window, Orbit.solve
    monkeypatch.setattr(tidy, "spectral_window",
                        lambda *args: windows.append(args[1:]) or window(*args))
    monkeypatch.setattr(Orbit, "solve", lambda orb, v: orbits.append(orb) or solve(orb, v))
    assert tidy_bicommutant_check(t, wins) <= 1e-9
    assert windows == list(wins)
    assert len(orbits) == len(wins) and all(orb is t.orbit for orb in orbits)
