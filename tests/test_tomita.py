import numpy as np
import pytest

from modlab.algebra import (
    NotCyclicError,
    NotSeparatingError,
    commutant,
    orbit,
    subspace_orthonormalize,
)
from modlab.linalg import complex_power, rel_residual
from modlab.fixtures import AlgebraSpec, generate_fixture
from modlab.tomita import modular_data, tomita_operator
from rotated import rotated_triple


def elementary(d, i, j):
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def standard_form(p, phases=None):
    """A = M_n (x) 1_n with omega = sum_i c_i |ii>, |c_i|^2 = p_i."""
    n = len(p)
    a = subspace_orthonormalize(
        [np.kron(elementary(n, i, j), np.eye(n)) for i in range(n) for j in range(n)]
    )
    c = np.sqrt(np.asarray(p, dtype=complex))
    if phases is not None:
        c = c * np.exp(1j * np.asarray(phases))
    omega = np.zeros(n * n, dtype=complex)
    for i in range(n):
        omega[i * n + i] = c[i]
    return a, omega


TWO_QUBIT = standard_form([2 / 3, 1 / 3])


def test_abelian_real_positive_omega_gives_plain_conjugation():
    d = 4
    a = subspace_orthonormalize([elementary(d, i, i) for i in range(d)])
    omega = np.array([0.5, 0.6, 0.4, np.sqrt(1 - 0.77)], dtype=complex)
    s = tomita_operator(orbit(a, omega))
    assert np.allclose(s.matrix, np.eye(d), atol=1e-12)
    triple = modular_data(a, omega, commutant(a))
    assert np.allclose(triple.delta, np.eye(d), atol=1e-10)


def test_abelian_complex_omega_closed_form():
    # closed form: S = diag(omega_i / conj(omega_i)) o conj
    d = 3
    a = subspace_orthonormalize([elementary(d, i, i) for i in range(d)])
    rng = np.random.default_rng(8)
    omega = np.sqrt(rng.dirichlet(np.ones(d))) * np.exp(2j * np.pi * rng.random(d))
    s = tomita_operator(orbit(a, omega))
    oracle = np.diag(omega / np.conj(omega))
    assert np.allclose(s.matrix, oracle, atol=1e-12)
    triple = modular_data(a, omega, commutant(a))
    assert np.allclose(triple.delta, np.eye(d), atol=1e-10)


def test_standard_form_s_fixes_omega():
    a, omega = TWO_QUBIT
    s = tomita_operator(orbit(a, omega))
    assert np.linalg.norm(s(omega) - omega) <= 1e-12


def test_standard_form_delta_eigenvalues():
    # independent closed-form oracle: Delta = rho (x) conj(rho)^{-1}
    a, omega = TWO_QUBIT
    triple = modular_data(a, omega, commutant(a))
    assert np.allclose(triple.delta_spec.eigenvalues, [0.5, 1.0, 1.0, 2.0], atol=1e-10)
    rho = np.diag([2 / 3, 1 / 3]).astype(complex)
    oracle = np.kron(rho, np.linalg.inv(np.conj(rho)))
    assert rel_residual(triple.delta, oracle) <= 1e-10


def test_standard_form_with_phases_keeps_closed_form():
    a, omega = standard_form([0.55, 0.45], phases=[0.3, -1.2])
    triple = modular_data(a, omega, commutant(a))
    rho = np.diag([0.55, 0.45]).astype(complex)
    assert rel_residual(triple.delta, np.kron(rho, np.linalg.inv(np.conj(rho)))) <= 1e-10


def test_maximally_mixed_standard_form_trivial_delta():
    a, omega = standard_form([0.5, 0.5])
    triple = modular_data(a, omega, commutant(a))
    assert np.allclose(triple.delta, np.eye(4), atol=1e-10)


def _assert_triple_invariants(fix, tol_scale=1e-9):
    t = fix.triple
    d = t.dim
    tol = tol_scale * np.sqrt(t.kappa) * d
    omega = t.omega
    # S(a omega) = a* omega on the basis (bounded-operator domain statement)
    for a in t.algebra.basis:
        assert rel_residual(t.s(a @ omega), a.conj().T @ omega) <= tol
    # the adjoint S* is the Tomita operator of the commutant
    for b in t.commutant.basis:
        assert rel_residual(t.s_star(b @ omega), b.conj().T @ omega) <= tol
    assert np.linalg.norm(t.s(omega) - omega) <= tol
    assert np.linalg.norm(t.j(omega) - omega) <= tol
    assert np.linalg.norm(t.delta @ omega - omega) <= tol
    # polar identities
    assert rel_residual(t.s.matrix, t.j.compose_linear(complex_power(t.delta_spec, 0.5)).matrix) <= tol
    assert rel_residual(t.s_star.matrix, t.j.compose_linear(complex_power(t.delta_spec, -0.5)).matrix) <= tol
    jdj = t.j.matrix @ np.conj(t.delta @ t.j.matrix)
    assert rel_residual(jdj, complex_power(t.delta_spec, -1.0)) <= tol
    eye = np.eye(d)
    assert rel_residual(t.j.compose(t.j), eye) <= tol
    assert rel_residual(t.s.compose(t.s), eye) <= tol


def test_direct_sum_fixture_all_invariants():
    fix = generate_fixture(AlgebraSpec.direct_sum([(2, 2), (1, 1)]), seed=42)
    assert fix.dim == 5
    _assert_triple_invariants(fix)


def test_standard_factor_fixture_invariants_and_spectral_symmetry():
    fix = generate_fixture(AlgebraSpec.standard_factor(3), seed=5)
    _assert_triple_invariants(fix)
    w = fix.triple.delta_spec.eigenvalues
    inv = np.sort(1.0 / w)
    assert np.max(np.abs(np.sort(w) - inv) / np.sort(w)) <= 1e-9


def test_antiunitarity_of_j():
    fix = generate_fixture(AlgebraSpec.standard_factor(2), seed=1)
    rng = np.random.default_rng(2)
    j = fix.triple.j
    for _ in range(100):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lhs = np.vdot(j(psi), j(phi))
        rhs = np.vdot(phi, psi)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


def test_not_cyclic_error_carries_rank_report():
    a = subspace_orthonormalize(
        [np.kron(elementary(2, i, j), np.eye(2)) for i in range(2) for j in range(2)]
    )
    v00 = np.zeros(4, dtype=complex)
    v00[0] = 1.0
    with pytest.raises(NotCyclicError) as exc:
        tomita_operator(orbit(a, v00))
    assert exc.value.rank == 2
    assert exc.value.required == 4


def test_not_separating_error_distinct():
    # rectangular block: separating fails while cyclicity fails differently;
    # build a case that is cyclic but not separating: commutant of M_2 (x) 1_3
    a = subspace_orthonormalize(
        [np.kron(np.eye(2), elementary(3, i, j)) for i in range(3) for j in range(3)]
    )
    rng = np.random.default_rng(3)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v /= np.linalg.norm(v)
    # dim(A) = 9 > d = 6, so separation must fail before cyclicity does
    with pytest.raises(NotSeparatingError) as exc:
        tomita_operator(orbit(a, v))
    assert exc.value.rank < exc.value.required == 9


def test_s_star_is_tomita_operator_of_commutant():
    fix = generate_fixture(AlgebraSpec.standard_factor(2), seed=9)
    s_prime = tomita_operator(fix.triple.commutant_orbit)
    assert rel_residual(s_prime.matrix, fix.triple.s_star.matrix) <= 1e-9 * np.sqrt(fix.triple.kappa)


ORACLE_CASES = {
    "rotated": lambda: rotated_triple(4),
    "direct_sum(2:2,1:1)": lambda: generate_fixture(AlgebraSpec.direct_sum([(2, 2), (1, 1)]), 2).triple,
}


@pytest.mark.parametrize("label", ORACLE_CASES)
def test_s_read_off_its_definition_matches_the_orbit_quotient(label):
    # oracle: S = B_* conj(B)^{-1}, with B's columns a_i omega and B_*'s a_i^* omega
    t = ORACLE_CASES[label]()
    a, omega, b = t.algebra, t.omega, t.orbit.matrix
    b_star = np.column_stack([x.conj().T @ omega for x in a.basis])
    oracle = np.linalg.solve(b.conj().T, b_star.T).T
    s = tomita_operator(t.orbit)
    assert np.max(np.abs(s.matrix - oracle)) <= 1e-12 * np.linalg.cond(b) * np.max(np.abs(oracle))
    rng = np.random.default_rng(17)
    c = rng.standard_normal((20, a.dim)) + 1j * rng.standard_normal((20, a.dim))
    for x in np.tensordot(c, a.basis, axes=(1, 0)):
        assert np.linalg.norm(s(x @ omega) - x.conj().T @ omega) <= 1e-12 * np.linalg.norm(x)
