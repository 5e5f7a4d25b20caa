import math

import numpy as np
import pytest

from modlab import fixtures
from modlab.algebra import (
    AlgebraError,
    NotCyclicError,
    commutant,
    membership_residual,
    mutual_projection_residual,
    subspace_orthonormalize,
)
from modlab.fixtures import (
    AlgebraSpec,
    algebra_basis_matrices,
    commutant_basis_matrices,
    covering_windows,
    fixture_from_json,
    fixture_to_json,
    generate_fixture,
    load_fixture,
    parse_spec,
    save_fixture,
)
from modlab.linalg import rel_residual


def test_spec_dimensions():
    assert AlgebraSpec.standard_factor(2).dim == 4
    assert AlgebraSpec.standard_factor(3).dim == 9
    assert AlgebraSpec.maximal_abelian(5).dim == 5
    assert AlgebraSpec.direct_sum([(2, 2), (1, 1)]).dim == 5


def test_spec_labels_round_trip():
    for spec in (
        AlgebraSpec.standard_factor(3),
        AlgebraSpec.maximal_abelian(6),
        AlgebraSpec.direct_sum([(2, 2), (1, 1)]),
    ):
        assert parse_spec(spec.label()) == spec


def test_generate_fixture_deterministic():
    a = generate_fixture(AlgebraSpec.standard_factor(2), seed=123)
    b = generate_fixture(AlgebraSpec.standard_factor(2), seed=123)
    assert np.array_equal(a.triple.omega, b.triple.omega)
    assert np.array_equal(a.triple.s.matrix, b.triple.s.matrix)
    assert np.array_equal(a.triple.algebra.basis, b.triple.algebra.basis)


def test_generate_fixture_kappa_bound():
    # eigenvalue-ratio bound from the Schmidt floor: ratios of floored
    # weights are at most (1 - p_min)/p_min, and the modular spectrum is made
    # of those ratios, so kappa is at most the square
    p_min = 0.01
    cap = ((1 - p_min) / p_min) ** 2
    for seed in range(12):
        fix = generate_fixture(AlgebraSpec.standard_factor(2), seed=seed, p_min=p_min)
        assert fix.triple.kappa <= cap * (1 + 1e-9)


def test_abelian_fixture_trivial_delta():
    fix = generate_fixture(AlgebraSpec.maximal_abelian(5), seed=4)
    assert np.allclose(fix.triple.delta, np.eye(5), atol=1e-10)
    assert fix.triple.kappa <= 1 + 1e-9


def test_fixture_algebra_certified_and_commutant_consistent():
    # a subspace equal to its bicommutant is a unital algebra; closure under
    # adjoints then makes it a star-algebra
    fix = generate_fixture(AlgebraSpec.direct_sum([(2, 2), (1, 1)]), seed=5)
    for sub in (fix.triple.algebra, fix.triple.commutant):
        assert mutual_projection_residual(commutant(commutant(sub)), sub) <= 1e-9
        assert max(membership_residual(x.conj().T, sub) for x in sub.basis) <= 1e-10
    assert fix.triple.algebra.dim == 5
    assert fix.triple.commutant.dim == 5


def test_fixture_closed_form_delta_matches():
    for spec in (
        AlgebraSpec.standard_factor(2),
        AlgebraSpec.standard_factor(3),
        AlgebraSpec.direct_sum([(2, 2), (1, 1)]),
        AlgebraSpec.maximal_abelian(4),
    ):
        fix = generate_fixture(spec, seed=31)
        assert rel_residual(fix.triple.delta, fix.closed_form_delta()) <= 1e-10


@pytest.mark.parametrize("label", ["standard_factor(3)", "direct_sum(2:2,1:1)",
                                   "maximal_abelian(3)"])
def test_omega_equals_the_entry_by_entry_draw_at_the_block_offsets(label):
    # the reference: the same stream drawn block by block, each |ii> entry
    # written at its block's offset one at a time; the arithmetic is the
    # same, so the vectors are equal bit for bit
    spec = parse_spec(label)
    fix = generate_fixture(spec, seed=8)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=8, spawn_key=(0,)))
    k = len(spec.blocks)
    weights = fixtures._draw_weights(rng, k, min(0.05, 1.0 / (2 * k)))
    omega = np.zeros(spec.dim, dtype=complex)
    for (n, m), off, w in zip(spec.blocks, spec.offsets, weights):
        q = fixtures._draw_weights(rng, n, 0.01)
        phases = np.exp(2j * np.pi * rng.random(n))
        for i in range(n):
            omega[off + i * m + i] = np.sqrt(w) * (np.sqrt(q[i]) * phases[i])
    assert np.array_equal(fix.triple.omega, omega / np.linalg.norm(omega))
    assert spec.offsets == [sum(n * m for n, m in spec.blocks[:j]) for j in range(k)]


@pytest.mark.parametrize("label", ["standard_factor(2)))", "direct_sum(2:2,1:1",
                                   "standard_factor()", "direct_sum(2:2,1)",
                                   "standard_factor(02)", "maximal_abelian(3)x"])
def test_a_label_that_is_not_a_model_label_is_refused(label):
    # the label alone defines A and A' in a snapshot, so only the exact
    # output of AlgebraSpec.label, whitespace aside, is read
    with pytest.raises(AlgebraError):
        parse_spec(label)


def test_a_label_with_whitespace_reads_as_the_model():
    assert parse_spec(" direct_sum(2:2, 1:1) ") == AlgebraSpec.direct_sum([(2, 2), (1, 1)])


def test_rectangular_multiplicity_rejected():
    # no cyclic-separating vector exists when a multiplicity differs from its
    # block size, so the model is refused before any fixture is drawn
    with pytest.raises(AlgebraError):
        AlgebraSpec.direct_sum([(2, 3)])
    with pytest.raises(AlgebraError):
        AlgebraSpec.direct_sum([(2, 2), (1, 2)])
    with pytest.raises(AlgebraError):
        parse_spec("direct_sum(2:3)")


def test_covering_windows_cover_and_avoid_spectrum():
    fix = generate_fixture(AlgebraSpec.standard_factor(3), seed=6)
    w = fix.triple.delta_spec.eigenvalues
    wins = covering_windows(fix.triple)
    for e in w:
        hits = [(l1, l2) for l1, l2 in wins if l1 < e < l2]
        assert len(hits) == 1
    for l1, l2 in wins:
        assert np.min(np.abs(w - l1)) >= 0.05 * min(l1, np.min(w))
        assert l1 > 0


def test_fixture_json_round_trip(tmp_path):
    fix = generate_fixture(AlgebraSpec.direct_sum([(2, 2), (1, 1)]), seed=7)
    path = tmp_path / "fix.json"
    save_fixture(fix, path)
    loaded = load_fixture(path)
    assert loaded.spec == fix.spec
    assert loaded.seed == fix.seed
    # the loader recomputes the modular data from the stored bases and omega,
    # and gets every bit back
    a, b = loaded.triple, fix.triple
    for x, y in ((a.omega, b.omega), (a.s.matrix, b.s.matrix), (a.j.matrix, b.j.matrix),
                 (a.delta, b.delta), (a.delta_spec.eigenvalues, b.delta_spec.eigenvalues),
                 (a.delta_spec.eigenvectors, b.delta_spec.eigenvectors),
                 (a.orbit.matrix, b.orbit.matrix),
                 (a.commutant_orbit.matrix, b.commutant_orbit.matrix)):
        assert np.array_equal(x, y)
    assert a.kappa == b.kappa
    assert mutual_projection_residual(a.algebra, b.algebra) <= 1e-12
    assert mutual_projection_residual(a.commutant, b.commutant) <= 1e-12


def test_fixture_loader_refuses_a_vector_that_is_not_cyclic():
    doc = fixture_to_json(generate_fixture(AlgebraSpec.standard_factor(2), seed=7))
    # omega = c |11> alone, |c| = 1 so that it stays a unit vector: a (x) 1 omega
    # misses |00>, |01>
    doc["omega"][0] = [0.0, 0.0]
    doc["omega"][3] = (np.array(doc["omega"][3]) / np.linalg.norm(doc["omega"][3])).tolist()
    with pytest.raises(NotCyclicError):
        fixture_from_json(doc)


def _factor_snapshot() -> dict:
    return fixture_to_json(generate_fixture(AlgebraSpec.standard_factor(2), seed=7))


def test_fixture_loader_refuses_an_omega_that_is_not_a_unit_vector():
    # scaled by 2, omega is still cyclic and separating, so only this check sees it
    doc = _factor_snapshot()
    doc["omega"] = (2.0 * np.array(doc["omega"])).tolist()
    with pytest.raises(AlgebraError, match="unit vector"):
        fixture_from_json(doc)


def test_fixture_loader_refuses_an_omega_with_a_nan_entry():
    doc = _factor_snapshot()
    doc["omega"][1] = [math.nan, 0.0]
    with pytest.raises(AlgebraError, match="unit vector"):
        fixture_from_json(doc)


def test_fixture_loader_refuses_an_omega_of_another_dimension():
    doc = _factor_snapshot()
    doc["omega"] = doc["omega"][:3]
    with pytest.raises(AlgebraError, match="dimension 4"):
        fixture_from_json(doc)


def test_fixture_loader_refuses_a_snapshot_without_a_key_the_writer_emits():
    # each key the writer emits is read; a write-only field would load without it
    doc = _factor_snapshot()
    for key in doc:
        with pytest.raises(AlgebraError, match=key):
            fixture_from_json({k: v for k, v in doc.items() if k != key})


def test_fixture_loader_refuses_a_model_of_another_dimension():
    doc = {**_factor_snapshot(), "model": "standard_factor(3)"}  # d = 9 against dim 4
    with pytest.raises(AlgebraError, match="dimension 9"):
        fixture_from_json(doc)


def test_commutant_dimension_formula_on_block_models():
    # dim A = sum n_k^2 and dim A' = sum m_k^2 for block algebras
    cases = [
        (AlgebraSpec.standard_factor(2), 4, 4),
        (AlgebraSpec.standard_factor(3), 9, 9),
        (AlgebraSpec.direct_sum([(2, 2), (1, 1)]), 5, 5),
        (AlgebraSpec.maximal_abelian(6), 6, 6),
    ]
    for spec, dim_a, dim_c in cases:
        fix = generate_fixture(spec, seed=50)
        assert fix.triple.algebra.dim == dim_a
        assert fix.triple.commutant.dim == dim_c


def test_numerical_commutant_equals_closed_form():
    # closed-form oracle: the commutant of (+)_k M_n (x) 1_m is (+)_k 1_n (x) M_m
    for spec in (
        AlgebraSpec.standard_factor(2),
        AlgebraSpec.standard_factor(3),
        AlgebraSpec.direct_sum([(2, 2), (1, 1)]),
        AlgebraSpec.maximal_abelian(4),
    ):
        closed = subspace_orthonormalize(commutant_basis_matrices(spec))
        numerical = generate_fixture(spec, seed=60).triple.commutant
        assert mutual_projection_residual(numerical, closed) <= 1e-9


def test_fixture_json_schema_fields():
    fix = generate_fixture(AlgebraSpec.standard_factor(2), seed=8)
    doc = fixture_to_json(fix)
    assert doc["schema_version"] == "1"
    assert doc["model"] == "standard_factor(2)"
    assert len(doc["omega"]) == 4
    assert len(doc["omega"][0]) == 2  # [re, im] pairs
    assert set(doc) == {"schema_version", "model", "seed", "dim", "omega"}
    with pytest.raises(AlgebraError):
        fixture_from_json({**doc, "schema_version": "0"})


def _pairs(x) -> list:
    return np.stack([np.real(x), np.imag(x)], axis=-1).tolist()


@pytest.mark.parametrize("label", ["standard_factor(2)", "direct_sum(2:2,1:1)"])
def test_fixture_snapshot_of_the_older_format_still_loads(label):
    # snapshots once also stored S, J, Delta, its eigendata and kappa; the
    # loader never read them, so a file that has them (even stale) loads the same
    fix = generate_fixture(parse_spec(label), seed=9)
    t, doc = fix.triple, fixture_to_json(fix)
    older = {**doc, "s_matrix": _pairs(t.s.matrix), "j_matrix": _pairs(t.j.matrix),
             "delta": _pairs(np.zeros_like(t.delta)),  # stale: never compared
             "delta_eigenvalues": t.delta_spec.eigenvalues.tolist(),
             "delta_eigenvectors": _pairs(t.delta_spec.eigenvectors), "kappa": float(t.kappa),
             # bases and weights, also stale: A and A' come from the model label, and
             # the closed form from omega
             "algebra_basis": _pairs(t.commutant.basis),
             "commutant_basis": _pairs(t.algebra.basis),
             "block_weights": [1.0], "block_probs": [[0.5, 0.5]]}
    for loaded in (fixture_from_json(older), fixture_from_json(doc)):
        assert fixture_to_json(loaded) == doc  # the round trip keeps every bit
        a = loaded.triple
        for x, y in ((a.s.matrix, t.s.matrix), (a.delta, t.delta),
                     (a.orbit.matrix, t.orbit.matrix)):
            assert np.array_equal(x, y)
        assert a.kappa == t.kappa
        assert rel_residual(a.delta, loaded.closed_form_delta()) <= 1e-10


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("label", ["standard_factor(2)", "standard_factor(3)",
                                   "direct_sum(2:2,1:1)", "direct_sum(3:3,1:1,2:2)"])
def test_closed_form_delta_matches_on_a_state_that_is_not_schmidt_diagonal(label):
    # X -> V X W^T per block keeps omega a unit vector and cyclic-separating, but
    # its block densities stop being diagonal, and so does Delta
    spec, rng = parse_spec(label), np.random.default_rng(17)
    doc = fixture_to_json(generate_fixture(spec, seed=11))
    omega = fixtures._from_pairs(doc["omega"])
    for (n, m), off in zip(spec.blocks, spec.offsets):
        x = omega[off : off + n * m].reshape(n, m)
        omega[off : off + n * m] = (_haar_unitary(rng, n) @ x @ _haar_unitary(rng, m).T).ravel()
    fix = fixture_from_json({**doc, "omega": _pairs(omega)})
    delta = fix.triple.delta
    assert np.max(np.abs(delta - np.diag(np.diag(delta)))) >= 1e-3 * np.max(np.abs(delta))
    assert rel_residual(delta, fix.closed_form_delta()) <= 1e-10


def explicit_block_basis(spec, commutant: bool) -> np.ndarray:
    """E_ij (x) 1_m, or 1_n (x) E_ij, written entry by entry for each block and (i, j)."""
    d, off, mats = spec.dim, 0, []
    for n, m in spec.blocks:
        k = m if commutant else n
        for i in range(k):
            for j in range(k):
                x = np.zeros((d, d), dtype=complex)
                if commutant:
                    for p in range(n):
                        x[off + p * m + i, off + p * m + j] = 1.0
                else:
                    for q in range(m):
                        x[off + i * m + q, off + j * m + q] = 1.0
                mats.append(x)
        off += n * m
    return np.array(mats)


@pytest.mark.parametrize("label", ["standard_factor(3)", "direct_sum(2:2,1:1)",
                                   "maximal_abelian(4)", "direct_sum(3:3,1:1,2:2)"])
def test_block_bases_are_stacks_of_the_explicit_matrix_units(label):
    spec = parse_spec(label)
    for commutant in (False, True):
        got = (commutant_basis_matrices if commutant else algebra_basis_matrices)(spec)
        ref = explicit_block_basis(spec, commutant)
        assert got.dtype == complex and got.shape == (sum(n * n for n, _ in spec.blocks),
                                                      spec.dim, spec.dim)
        assert np.array_equal(got, ref)
