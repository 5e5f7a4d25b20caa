import dataclasses
import tracemalloc

import numpy as np
import pytest

import modlab.algebra as algebra
from modlab.algebra import (
    PAIR_MIN_DIM,
    RANK_TOL,
    AlgebraError,
    _commutator_stack,
    bicommutant,
    commutant,
    membership_residual,
    mutual_projection_residual,
    orbit,
    subspace_orthonormalize,
)
from modlab.fixtures import (
    AlgebraSpec,
    algebra_basis_matrices,
    commutant_basis_matrices,
    generate_fixture,
)
from modlab.linalg import hermitian_eig
from rotated import rotated_triple

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


def full_matrix_algebra(d):
    return subspace_orthonormalize([elementary(d, i, j) for i in range(d) for j in range(d)])


def spectral_algebra(h):
    """The algebra generated by a Hermitian h: the span of its spectral projectors."""
    dec = hermitian_eig(h)
    w, u = dec.eigenvalues, dec.eigenvectors
    groups = np.split(np.arange(w.size), np.flatnonzero(np.diff(w) > 1e-9) + 1)
    return subspace_orthonormalize([u[:, g] @ u[:, g].conj().T for g in groups])


# ---------------------------------------------------------------------------
# orthonormalization
# ---------------------------------------------------------------------------


def test_orthonormalize_identity_alone():
    sub = subspace_orthonormalize([np.eye(3)])
    assert sub.dim == 1
    assert np.allclose(np.abs(sub.basis[0]), np.eye(3) / np.sqrt(3))
    assert membership_residual(np.eye(3), sub) <= 1e-10


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
    assert np.max(membership_residual(np.array(mats), sub)) <= 1e-10


def test_orthonormalize_empty():
    sub = subspace_orthonormalize(np.zeros((0, 3, 3)))
    assert sub.dim == 0 and sub.dim_space == 3 and sub.basis.shape == (0, 3, 3)


def test_orthonormalize_rejects_dimension_mismatch():
    with pytest.raises(AlgebraError):
        subspace_orthonormalize([np.eye(2), np.eye(3)])


@pytest.mark.parametrize("mats", [
    np.eye(3),  # one matrix, not a stack of them
    np.ones((2, 3, 4)),  # not square
    np.stack([np.eye(3), np.full((3, 3), np.nan)]),
    np.stack([np.eye(3), np.full((3, 3), np.inf)]),
], ids=["2-D", "non-square", "nan", "inf"])
def test_orthonormalize_refuses_what_is_not_a_finite_square_stack(mats):
    with pytest.raises(AlgebraError, match="stack"):
        subspace_orthonormalize(mats)


def test_orthonormalize_takes_a_list_as_the_stack_it_makes():
    mats = [np.eye(2), np.diag([1.0, 0.0]), SX]
    a, b = subspace_orthonormalize(mats), subspace_orthonormalize(np.stack(mats))
    assert a.dim_space == b.dim_space == 2 and np.array_equal(a.basis, b.basis)


# ---------------------------------------------------------------------------
# closure: the algebra generated by a self-adjoint set is its bicommutant
# ---------------------------------------------------------------------------


def test_closure_of_nothing_is_scalars():
    # the commutant of the zero subspace is M_3, whose commutant is C 1
    sub = bicommutant(subspace_orthonormalize(np.zeros((0, 3, 3))))
    assert sub.dim == 1
    assert membership_residual(np.eye(3), sub) <= 1e-10


def test_closure_of_sigma_x():
    # sigma_x^2 = 1, so the closure is span{1, sigma_x} worked out by hand
    for sub in (bicommutant(subspace_orthonormalize([SX])), spectral_algebra(SX)):
        assert sub.dim == 2
        assert membership_residual(np.eye(2), sub) <= 1e-10
        assert membership_residual(SX, sub) <= 1e-10


def test_closure_of_elementary_tensor_generators():
    g = np.kron(elementary(2, 0, 1), np.eye(2))
    sub = bicommutant(subspace_orthonormalize([g, g.conj().T]))
    known = subspace_orthonormalize(m2_tensor_1())
    assert sub.dim == 4
    assert mutual_projection_residual(sub, known) <= 1e-9


# ---------------------------------------------------------------------------
# commutant / bicommutant
# ---------------------------------------------------------------------------


def test_commutant_of_full_matrix_algebra_is_scalars():
    full = full_matrix_algebra(3)
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
    closed = spectral_algebra(SX)
    gen_span = subspace_orthonormalize([np.eye(2), SX])
    assert mutual_projection_residual(bicommutant(gen_span), closed) <= 1e-9


def test_commutant_idempotence_triple():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = spectral_algebra(g + g.conj().T)
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
    AlgebraSpec.maximal_abelian(9),
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
    return subspace_orthonormalize(null_rows.conj().reshape(-1, d, d))


@pytest.mark.parametrize("mats,_closed", kernel_cases())
def test_commutant_kernel_matches_kron_svd_reference(mats, _closed):
    a = subspace_orthonormalize(mats)
    d = a.dim_space
    full = _commutator_stack(a.basis, *np.divmod(np.arange(d * d), d))  # every index pair
    assert np.array_equal(full, reference_stack(a))
    # a pattern's stack is the full stack's columns at its index pairs
    rows, cols = np.nonzero(np.random.default_rng(d).random((d, d)) < 0.4)
    assert np.array_equal(_commutator_stack(a.basis, rows, cols), full[:, rows * d + cols])
    got, ref = commutant(a), reference_commutant(a)
    eye = np.eye(d)
    assert got.dim == ref.dim
    assert membership_residual(eye, got) <= 1e-10
    assert membership_residual(eye, ref) <= 1e-10
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


def traced_commutant(a):
    tracemalloc.start()
    try:
        c = commutant(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return c, peak


def eigenspace_stack_bytes(n):
    # standard_factor(n): h has n eigenvalues of multiplicity n, so the
    # pattern holds n^3 of the d^2 = n^4 index pairs, and the stack 2 d^2 n^3 entries
    return 2 * n**4 * n**3 * 16


def test_commutant_memory_is_stack_plus_one_copy():
    a = subspace_orthonormalize(algebra_basis_matrices(AlgebraSpec.standard_factor(4)))
    assert a.dim >= PAIR_MIN_DIM
    _, peak = traced_commutant(a)
    assert peak <= 3 * eigenspace_stack_bytes(4)  # 0.5 MiB; the full stack would be 16 MiB


def test_commutant_at_d25_equals_closed_form():
    # standard_factor(5), d = 25, A' = 1 (x) M_5
    spec = AlgebraSpec.standard_factor(5)
    a = subspace_orthonormalize(algebra_basis_matrices(spec))
    c = commutant(a)
    assert c.dim == 25 and membership_residual(np.eye(25), c) <= 1e-10
    assert mutual_projection_residual(c, subspace_orthonormalize(commutant_basis_matrices(spec))) <= 1e-9


def assert_closed_form_within_three_stacks(n):
    spec = AlgebraSpec.standard_factor(n)
    a = subspace_orthonormalize(algebra_basis_matrices(spec))
    c, peak = traced_commutant(a)
    assert peak <= 3 * eigenspace_stack_bytes(n)
    assert c.dim == n * n and membership_residual(np.eye(n * n), c) <= 1e-10
    assert mutual_projection_residual(c, subspace_orthonormalize(commutant_basis_matrices(spec))) <= 1e-9


def test_commutant_at_d36_equals_closed_form():
    # standard_factor(6), d = 36, A' = 1 (x) M_6, within three eigenspace stacks (8.5 MiB each)
    assert_closed_form_within_three_stacks(6)


def test_commutant_at_d49_equals_closed_form():
    # the top of the supported range: standard_factor(7), d = 49, within three
    # eigenspace stacks (25 MiB each)
    assert_closed_form_within_three_stacks(7)


def nilpotent_corner() -> list:
    # S = {[[0, X], [0, 0]] : X in M_3} is not closed under adjoints:
    # h = x1 + x1^dag lies outside S, and S' (dim 10: x_11 = x_22 blocks,
    # x_12 free, x_21 = 0) need not commute with it
    return [np.kron(elementary(2, 0, 1), elementary(3, i, j)) for i in range(3) for j in range(3)]


def count_stacks(monkeypatch) -> list:
    """Record (elements, pattern size) of every commutator stack that is built."""
    stacks = []

    def counting_stack(xs, rows, cols):
        stacks.append((len(xs), len(rows)))
        return _commutator_stack(xs, rows, cols)

    monkeypatch.setattr(algebra, "_commutator_stack", counting_stack)
    return stacks


def test_commutant_builds_only_the_full_stack_for_a_set_not_closed_under_adjoints(monkeypatch):
    a = subspace_orthonormalize(nilpotent_corner())
    assert a.dim >= PAIR_MIN_DIM
    stacks = count_stacks(monkeypatch)
    got = commutant(a)
    assert stacks == [(a.dim, 36)]
    ref = reference_commutant(a)
    assert got.dim == ref.dim == 10
    assert mutual_projection_residual(got, ref) <= 1e-12


def test_commutant_falls_back_to_full_stack_below_the_gap_margin(monkeypatch):
    # the gap is at most 1, so a margin of 2 rejects every eigenspace stack
    a = subspace_orthonormalize(algebra_basis_matrices(AlgebraSpec.standard_factor(3)))
    monkeypatch.setattr(algebra, "PAIR_GAP_MIN", 2.0)
    stacks = count_stacks(monkeypatch)
    got = commutant(a)
    assert stacks == [(2, 27), (9, 81)]
    assert mutual_projection_residual(got, reference_commutant(a)) <= 1e-12


def eigenspace_cases() -> list:
    specs = (AlgebraSpec.standard_factor(3), AlgebraSpec.standard_factor(4),
             AlgebraSpec.direct_sum([(3, 3), (1, 1)]), AlgebraSpec.maximal_abelian(9))
    cases = [pytest.param(algebra_basis_matrices(s), commutant_basis_matrices(s), id=s.label())
             for s in specs]
    cases += [pytest.param(commutant_basis_matrices(s), algebra_basis_matrices(s),
                           id=f"commutant-{s.label()}") for s in specs]
    # standard_factor(4) conjugated by a seeded unitary: a generic, complex basis
    spec = AlgebraSpec.standard_factor(4)
    g = np.random.default_rng(16).standard_normal((2, 16, 16))
    q, _ = np.linalg.qr(g[0] + 1j * g[1])
    rotated = [q @ m @ q.conj().T for m in (algebra_basis_matrices(spec), commutant_basis_matrices(spec))]
    return cases + [pytest.param(*rotated, id="rotated")]


@pytest.mark.parametrize("mats,closed", eigenspace_cases())
def test_commutant_of_every_model_takes_the_eigenspace_route(monkeypatch, mats, closed):
    a = subspace_orthonormalize(mats)
    d = a.dim_space
    assert a.dim >= PAIR_MIN_DIM
    stacks = count_stacks(monkeypatch)
    got = commutant(a)
    [(k, size)] = stacks  # no full stack
    assert k == 2 and size < d * d
    assert mutual_projection_residual(got, subspace_orthonormalize(closed)) <= 1e-9


def test_commutant_falls_back_when_the_pair_does_not_generate_the_algebra(monkeypatch):
    # x1 = x2 = E_11 (x) 1 / sqrt(3) generates only C p + C (1 - p): the
    # eigenspace stack's nullspace holds every block-diagonal y (dim 9 + 36),
    # and the leak certificate against the whole basis refuses it
    a = subspace_orthonormalize(algebra_basis_matrices(AlgebraSpec.standard_factor(3)))
    p = np.kron(elementary(3, 0, 0), np.eye(3)) / np.sqrt(3)
    coeffs = np.stack([a.flat().conj() @ p.ravel()] * 2)  # <b_i, p>, twice
    monkeypatch.setattr(algebra, "_pair_coefficients", lambda k: coeffs)
    stacks = count_stacks(monkeypatch)
    got = commutant(a)
    assert stacks == [(2, 45), (9, 81)]
    assert mutual_projection_residual(got, reference_commutant(a)) <= 1e-12


def test_commutant_falls_back_when_the_clustering_fails_its_certificate(monkeypatch):
    # a zero cluster tolerance splits h's multiple eigenvalues at rounding
    # gaps, far below 2 err / RANK_TOL; the route refuses before any stack
    a = subspace_orthonormalize(algebra_basis_matrices(AlgebraSpec.standard_factor(3)))
    monkeypatch.setattr(algebra, "CLUSTER_TOL", 0.0)
    stacks = count_stacks(monkeypatch)
    got = commutant(a)
    assert stacks == [(9, 81)]
    assert mutual_projection_residual(got, reference_commutant(a)) <= 1e-12


def test_commutant_is_deterministic():
    a = subspace_orthonormalize(algebra_basis_matrices(AlgebraSpec.standard_factor(3)))
    assert a.dim >= PAIR_MIN_DIM
    assert np.array_equal(commutant(a).basis, commutant(a).basis)
    fix = generate_fixture(AlgebraSpec.standard_factor(3), seed=5)
    assert np.array_equal(commutant(fix.triple.algebra).basis, fix.triple.commutant.basis)


# ---------------------------------------------------------------------------
# cyclic / separating
# ---------------------------------------------------------------------------


def test_full_algebra_any_unit_vector_cyclic():
    full = full_matrix_algebra(3)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v /= np.linalg.norm(v)
    assert orbit(full, v).rank >= 3


def test_product_state_not_cyclic_not_separating():
    a = subspace_orthonormalize(m2_tensor_1())
    v00 = np.zeros(4, dtype=complex)
    v00[0] = 1.0
    # rank of {(E_ij (x) 1)|00>} is 2 < 4
    assert orbit(a, v00).rank == 2 < a.dim_space
    # (E_11 (x) 1)|00> = 0 with E_11 != 0
    assert orbit(a, v00).rank < a.dim


def test_entangled_state_cyclic_and_separating():
    a = subspace_orthonormalize(m2_tensor_1())
    omega = np.array([np.sqrt(2 / 3), 0, 0, np.sqrt(1 / 3)], dtype=complex)
    orb = orbit(a, omega)
    assert orb.rank >= a.dim_space and orb.rank >= a.dim


def test_scalars_always_separating():
    scalars = subspace_orthonormalize([np.eye(4)])
    v = np.array([1.0, 0, 0, 0], dtype=complex)
    assert orbit(scalars, v).rank >= scalars.dim


def test_separating_equivalent_to_commutant_cyclicity():
    # cross-check the two definitions on random instances, including
    # rectangular-multiplicity blocks where cyclic and separating differ
    rng = np.random.default_rng(4)
    cases = []
    for _ in range(20):
        d = int(rng.integers(2, 5))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        cases.append(spectral_algebra(g + g.conj().T))
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
            assert (orbit(a, v).rank >= a.dim) == (orbit(c, v).rank >= c.dim_space)
            checked += 1
    assert checked >= 50


def test_cyclic_separating_forces_dim_equal_d():
    a = subspace_orthonormalize(m2_tensor_1())
    omega = np.array([np.sqrt(0.5), 0, 0, np.sqrt(0.5)], dtype=complex)
    orb = orbit(a, omega)
    if orb.rank >= a.dim_space and orb.rank >= a.dim:
        assert a.dim == a.dim_space


def test_solve_of_a_non_square_orbit_is_refused():
    # scalars at d = 4: omega is separating but not cyclic, one column for four rows
    scalars = subspace_orthonormalize([np.eye(4)])
    orb = orbit(scalars, np.array([1.0, 0, 0, 0], dtype=complex))
    assert orb.matrix.shape == (4, 1)
    with pytest.raises(AlgebraError, match="dim = d"):
        orb.solve(np.ones(4))


def test_membership_residual_values():
    a = subspace_orthonormalize(one_tensor_m2())
    assert membership_residual(a.basis[2], a) <= 1e-12
    assert membership_residual(np.eye(4), a) <= 1e-12
    # E_12 (x) 1 is trace-orthogonal to every 1 (x) E_ij, so the full norm survives
    x = np.kron(elementary(2, 0, 1), np.eye(2))
    assert abs(membership_residual(x, a) - 1.0) <= 1e-12


@pytest.mark.parametrize("label", ["direct_sum(2:2,1:1)", "rotated"])
def test_membership_residual_of_a_stack_equals_the_per_element_calls(label):
    t = (rotated_triple(4) if label == "rotated"
         else generate_fixture(AlgebraSpec.direct_sum([(2, 2), (1, 1)]), 2).triple)
    d = t.dim
    g = np.random.default_rng(18).standard_normal((2, 3, d, d))
    c = np.random.default_rng(19).standard_normal((2, 3, t.algebra.dim))
    # a row of algebra elements, residuals at rounding level, then generic matrices
    xs = np.stack([np.array([t.algebra.element(v) for v in c[0] + 1j * c[1]]), g[0] + 1j * g[1]])
    stack = membership_residual(xs, t.algebra)
    assert stack.shape == (2, 3)
    assert np.max(stack[0]) <= 1e-14 and np.min(stack[1]) > 0.1
    for x, r in zip(xs.reshape(-1, d, d), stack.ravel()):
        single = membership_residual(x, t.algebra)
        assert isinstance(single, float) and abs(r - single) <= 1e-15
        # the projection through the basis coefficients is an independent path
        ref = np.linalg.norm(x - project(t.algebra, x)) / max(np.linalg.norm(x), 1e-30)
        assert abs(r - ref) <= 1e-15


def test_element_bits_equal_tensordot():
    rng = np.random.default_rng(17)
    # a one-element basis is where ``coeffs @ flat`` would differ
    spaces = [
        subspace_orthonormalize(m2_tensor_1()),
        subspace_orthonormalize([rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))]),
        subspace_orthonormalize([rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
                                 for _ in range(7)]),
    ]
    for a in spaces:
        for _ in range(5):
            c = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
            assert np.array_equal(a.element(c), np.tensordot(c, a.basis, axes=(0, 0)))
        # coefficient rows of any leading shape, one element per row
        c = rng.standard_normal((2, 3, a.dim)) + 1j * rng.standard_normal((2, 3, a.dim))
        stacked = a.element(c)
        assert stacked.shape == (2, 3, a.dim_space, a.dim_space)
        assert np.array_equal(stacked, np.tensordot(c, a.basis, axes=1))
        assert np.array_equal(a.element(c[:, :0]), np.zeros((2, 0) + stacked.shape[2:]))


def project(space, x):
    """Orthogonal projection of one matrix through its basis coefficients."""
    coeffs = space.flat().conj() @ np.asarray(x, dtype=complex).reshape(-1)
    return np.tensordot(coeffs, space.basis, axes=(0, 0))


def mutual_projection_oracle(a, b) -> float:
    """The largest frob(x - P x) over both bases, one basis element at a time."""
    if a.dim != b.dim:
        return 1.0
    if a.dim == 0:
        return 0.0
    return float(np.max([np.linalg.norm(x - project(b, x)) for x in a.basis]
                        + [np.linalg.norm(y - project(a, y)) for y in b.basis]))


def mutual_projection_cases() -> list:
    rng = np.random.default_rng(23)
    cases = []
    for spec in (AlgebraSpec.standard_factor(2), AlgebraSpec.direct_sum([(2, 2), (1, 1)]),
                 AlgebraSpec.maximal_abelian(4)):
        t = generate_fixture(spec, 3).triple
        closed = subspace_orthonormalize(algebra_basis_matrices(spec))
        label = spec.label()
        cases += [pytest.param(commutant(t.commutant), t.algebra, id=f"double-commutant-{label}"),
                  pytest.param(closed, t.algebra, id=f"closed-form-{label}")]
    t = rotated_triple(4)
    cases.append(pytest.param(bicommutant(t.algebra), t.algebra, id="rotated"))
    # equal dimensions, different subspaces: residuals of order one
    g = rng.standard_normal((2, 4, 4, 4))
    cases.append(pytest.param(t.algebra, subspace_orthonormalize(g[0] + 1j * g[1]),
                              id="rotated-random"))
    broken = t.algebra.basis.copy()
    broken[2, 1, 3] = np.nan
    cases.append(pytest.param(t.algebra, dataclasses.replace(t.algebra, basis=broken), id="nan"))
    cases.append(pytest.param(t.algebra, subspace_orthonormalize([np.eye(4)]), id="mismatched"))
    empty = subspace_orthonormalize(np.zeros((0, 4, 4)))
    cases.append(pytest.param(empty, empty, id="empty"))
    cases.append(pytest.param(empty, t.algebra, id="empty-vs-algebra"))
    return cases


@pytest.mark.parametrize("a,b", mutual_projection_cases())
def test_mutual_projection_residual_equals_the_per_element_oracle(a, b):
    for x, y in ((a, b), (b, a)):
        got, ref = mutual_projection_residual(x, y), mutual_projection_oracle(x, y)
        assert isinstance(got, float)
        if np.isnan(ref):
            assert np.isnan(got)
        else:
            assert abs(got - ref) <= 1e-15 * max(1.0, ref)
