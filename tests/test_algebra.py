import tracemalloc

import numpy as np
import pytest

from modlab.algebra import (
    RANK_TOL,
    AlgebraError,
    _commutator_stack,
    bicommutant,
    close_to_algebra,
    commutant,
    is_algebra,
    is_cyclic,
    is_separating,
    membership_residual,
    mutual_projection_residual,
    subspace_orthonormalize,
)
from modlab.fixtures import AlgebraSpec, algebra_basis_matrices, commutant_basis_matrices

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def elementary(d, i, j):
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def m2_tensor_1() -> list:
    return [np.kron(elementary(2, i, j), np.eye(2)) for i in range(2) for j in range(2)]


def one_tensor_m2() -> list:
    return [np.kron(np.eye(2), elementary(2, i, j)) for i in range(2) for j in range(2)]


# ---------------------------------------------------------------------------
# orthonormalization
# ---------------------------------------------------------------------------


def test_orthonormalize_identity_alone():
    sub = subspace_orthonormalize([np.eye(3)])
    assert sub.dim == 1
    assert np.allclose(np.abs(sub.basis[0]), np.eye(3) / np.sqrt(3))
    assert sub.contains_identity


def test_orthonormalize_collapses_linear_dependence():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    sub = subspace_orthonormalize([x, 2 * x])
    assert sub.dim == 1


def test_orthonormalize_pauli_set():
    sub = subspace_orthonormalize([np.eye(2), SX, SY, SZ])
    assert sub.dim == 4
    flat = sub.flat()
    gram = flat.conj() @ flat.T
    # pairwise trace inner products: orthonormality of the output basis
    assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_orthonormalize_preserves_span():
    rng = np.random.default_rng(1)
    mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(6)]
    sub = subspace_orthonormalize(mats)
    for m in mats:
        assert np.linalg.norm(m - sub.project(m)) <= 1e-10 * np.linalg.norm(m)


def test_orthonormalize_empty():
    sub = subspace_orthonormalize([], dim_space=3)
    assert sub.dim == 0 and sub.dim_space == 3


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def test_closure_of_nothing_is_scalars():
    sub = close_to_algebra([], dim_space=3)
    assert sub.dim == 1
    assert sub.contains_identity


def test_closure_of_sigma_x():
    # sigma_x^2 = 1, so the closure is span{1, sigma_x} worked out by hand
    sub = close_to_algebra([SX])
    assert sub.dim == 2
    assert membership_residual(np.eye(2), sub) <= 1e-10
    assert membership_residual(SX, sub) <= 1e-10
    assert is_algebra(sub)


def test_closure_of_elementary_tensor_generators():
    gens = [np.kron(elementary(2, 0, 1), np.eye(2))]
    sub = close_to_algebra(gens)
    known = subspace_orthonormalize(m2_tensor_1())
    assert sub.dim == 4
    assert mutual_projection_residual(sub, known) <= 1e-9


def test_closure_rejects_dimension_mismatch():
    with pytest.raises(AlgebraError):
        close_to_algebra([np.eye(2), np.eye(3)])


# ---------------------------------------------------------------------------
# commutant / bicommutant
# ---------------------------------------------------------------------------


def test_commutant_of_full_matrix_algebra_is_scalars():
    full = close_to_algebra([elementary(3, 0, 1), elementary(3, 1, 2)])
    assert full.dim == 9
    c = commutant(full)
    assert c.dim == 1
    assert membership_residual(np.eye(3), c) <= 1e-10


def test_commutant_of_m2_tensor_1():
    a = subspace_orthonormalize(m2_tensor_1())
    c = commutant(a)
    known = subspace_orthonormalize(one_tensor_m2())
    assert c.dim == 4
    assert mutual_projection_residual(c, known) <= 1e-9


def test_commutant_of_diagonal_algebra_is_itself():
    diag = subspace_orthonormalize([elementary(3, i, i) for i in range(3)])
    c = commutant(diag)
    # elementwise commutation oracle: diagonal matrices commute exactly with
    # diagonal matrices only
    assert c.dim == 3
    assert mutual_projection_residual(c, diag) <= 1e-9


def test_bicommutant_of_scalars_is_scalars():
    scalars = subspace_orthonormalize([np.eye(2)])
    assert mutual_projection_residual(bicommutant(scalars), scalars) <= 1e-9


def test_bicommutant_of_m2_tensor_1_is_itself():
    a = subspace_orthonormalize(m2_tensor_1())
    assert mutual_projection_residual(bicommutant(a), a) <= 1e-9


def test_bicommutant_matches_closure_of_generators():
    closed = close_to_algebra([SX])
    gen_span = subspace_orthonormalize([np.eye(2), SX])
    assert mutual_projection_residual(bicommutant(gen_span), closed) <= 1e-9


def test_commutant_idempotence_triple():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = close_to_algebra([g + g.conj().T])
    c1 = commutant(a)
    c3 = commutant(commutant(c1))
    assert mutual_projection_residual(c1, c3) <= 1e-9


# ---------------------------------------------------------------------------
# commutant kernel: the R-factor nullspace against the kron/SVD reference
# ---------------------------------------------------------------------------

KERNEL_SPECS = (
    AlgebraSpec.standard_factor(2),
    AlgebraSpec.standard_factor(3),
    AlgebraSpec.standard_factor(4),
    AlgebraSpec.direct_sum([(2, 2), (1, 1)]),
    AlgebraSpec.maximal_abelian(4),
)


def span_one_e12() -> list:
    # span{1, E_12} in M_3 is not an algebra (E_12^dag is missing)
    return [np.eye(3, dtype=complex), elementary(3, 0, 1)]


def span_one_e12_commutant() -> list:
    # [x, E_12] = 0 iff x_11 = x_22 and x_21 = x_31 = x_23 = 0
    return [elementary(3, 0, 0) + elementary(3, 1, 1)] + [
        elementary(3, i, j) for i, j in ((0, 1), (0, 2), (2, 1), (2, 2))
    ]


def kernel_cases() -> list:
    cases = [
        pytest.param(algebra_basis_matrices(s), commutant_basis_matrices(s), id=s.label())
        for s in KERNEL_SPECS
    ]
    return cases + [pytest.param(span_one_e12(), span_one_e12_commutant(), id="span{1,E_12}")]


def reference_stack(a):
    eye = np.eye(a.dim_space)
    return np.concatenate([np.kron(eye, b.T) - np.kron(b, eye) for b in a.basis], axis=0)


def reference_commutant(a):
    # the SVD of the whole stack; the reduced form has the same singular values
    # and right singular vectors as the full one (the stack has at least d^2 rows)
    d = a.dim_space
    _, sv, vh = np.linalg.svd(reference_stack(a), full_matrices=False)
    null_rows = vh[sv <= RANK_TOL * max(float(sv[0]), 1.0)]
    return subspace_orthonormalize(list(null_rows.conj().reshape(-1, d, d)))


@pytest.mark.parametrize("mats,_closed", kernel_cases())
def test_commutant_kernel_matches_kron_svd_reference(mats, _closed):
    a = subspace_orthonormalize(mats)
    assert np.array_equal(_commutator_stack(a), reference_stack(a))
    got, ref = commutant(a), reference_commutant(a)
    assert got.dim == ref.dim
    assert got.contains_identity == ref.contains_identity
    assert mutual_projection_residual(got, ref) <= 1e-12


@pytest.mark.parametrize("mats,closed", kernel_cases())
def test_commutant_commutes_with_unitary_conjugation(mats, closed):
    # every fixture basis is block-diagonal; a seeded random unitary U moves A
    # to a generic basis, where commutant(U A U*) must be U A' U*
    d = mats[0].shape[0]
    rng = np.random.default_rng(70 + d)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))

    def conjugated(ms):
        return subspace_orthonormalize([u @ m @ u.conj().T for m in ms])

    got = commutant(conjugated(mats))
    expected = conjugated(closed)
    assert got.dim == expected.dim
    assert mutual_projection_residual(got, expected) <= 1e-9


def test_commutant_memory_is_stack_plus_one_copy():
    a = subspace_orthonormalize(algebra_basis_matrices(AlgebraSpec.standard_factor(4)))
    d = a.dim_space
    stack_bytes = a.dim * d**4 * 16  # 16 MiB; the stack's left singular factor is 256 MiB
    tracemalloc.start()
    try:
        commutant(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * stack_bytes


def test_commutant_at_d25_equals_closed_form():
    # the top of the supported range: standard_factor(5), d = 25, A' = 1 (x) M_5
    spec = AlgebraSpec.standard_factor(5)
    a = subspace_orthonormalize(algebra_basis_matrices(spec))
    c = commutant(a)
    assert c.dim == 25 and c.contains_identity
    assert mutual_projection_residual(c, subspace_orthonormalize(commutant_basis_matrices(spec))) <= 1e-9


# ---------------------------------------------------------------------------
# cyclic / separating
# ---------------------------------------------------------------------------


def test_full_algebra_any_unit_vector_cyclic():
    full = close_to_algebra([elementary(3, 0, 1), elementary(3, 1, 2)])
    rng = np.random.default_rng(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v /= np.linalg.norm(v)
    assert is_cyclic(full, v)


def test_product_state_not_cyclic_not_separating():
    a = subspace_orthonormalize(m2_tensor_1())
    v00 = np.zeros(4, dtype=complex)
    v00[0] = 1.0
    # rank of {(E_ij (x) 1)|00>} is 2 < 4
    assert not is_cyclic(a, v00)
    # (E_11 (x) 1)|00> = 0 with E_11 != 0
    assert not is_separating(a, v00)


def test_entangled_state_cyclic_and_separating():
    a = subspace_orthonormalize(m2_tensor_1())
    omega = np.array([np.sqrt(2 / 3), 0, 0, np.sqrt(1 / 3)], dtype=complex)
    assert is_cyclic(a, omega)
    assert is_separating(a, omega)


def test_scalars_always_separating():
    scalars = subspace_orthonormalize([np.eye(4)])
    v = np.array([1.0, 0, 0, 0], dtype=complex)
    assert is_separating(scalars, v)


def test_separating_equivalent_to_commutant_cyclicity():
    # cross-check the two definitions on random instances, including
    # rectangular-multiplicity blocks where cyclic and separating differ
    rng = np.random.default_rng(4)
    cases = []
    for _ in range(20):
        d = int(rng.integers(2, 5))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        cases.append(close_to_algebra([g + g.conj().T]))
    cases.append(subspace_orthonormalize([np.kron(e, np.eye(3)) for e in
                                          [elementary(2, i, j) for i in range(2) for j in range(2)]]))
    cases.append(subspace_orthonormalize([np.kron(np.eye(3), e) for e in
                                          [elementary(2, i, j) for i in range(2) for j in range(2)]]))
    checked = 0
    for a in cases:
        c = commutant(a)
        for _ in range(3):
            v = rng.standard_normal(a.dim_space) + 1j * rng.standard_normal(a.dim_space)
            v /= np.linalg.norm(v)
            assert is_separating(a, v) == is_cyclic(c, v)
            checked += 1
    assert checked >= 50


def test_cyclic_separating_forces_dim_equal_d():
    a = subspace_orthonormalize(m2_tensor_1())
    omega = np.array([np.sqrt(0.5), 0, 0, np.sqrt(0.5)], dtype=complex)
    if is_cyclic(a, omega) and is_separating(a, omega):
        assert a.dim == a.dim_space


def test_membership_residual_values():
    a = subspace_orthonormalize(one_tensor_m2())
    assert membership_residual(a.basis[2], a) <= 1e-12
    assert membership_residual(np.eye(4), a) <= 1e-12
    # E_12 (x) 1 is trace-orthogonal to every 1 (x) E_ij, so the full norm survives
    x = np.kron(elementary(2, 0, 1), np.eye(2))
    assert abs(membership_residual(x, a) - 1.0) <= 1e-12


def test_element_and_project_bits_equal_tensordot():
    rng = np.random.default_rng(17)
    # a one-element basis is where ``coeffs @ flat`` would differ
    spaces = [
        subspace_orthonormalize(m2_tensor_1()),
        subspace_orthonormalize([rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))]),
        subspace_orthonormalize([rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
                                 for _ in range(7)]),
    ]
    for a in spaces:
        d = a.dim_space
        for _ in range(5):
            c = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert np.array_equal(a.element(c), np.tensordot(c, a.basis, axes=(0, 0)))
            assert np.array_equal(a.project(x),
                                  np.tensordot(a.coefficients(x), a.basis, axes=(0, 0)))
