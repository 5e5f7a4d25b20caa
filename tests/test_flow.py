import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modlab import flow
from modlab.algebra import membership_residual, subspace_orthonormalize
from modlab.fixtures import AlgebraSpec, covering_windows, generate_fixture, parse_spec
from modlab.flow import (
    FlowDomainError,
    analytic_flow,
    commutator_ratio,
    strip_growth_scan,
    tomita_check,
)
from modlab.linalg import complex_power, opnorm, opnorm_stack, rel_residual
from modlab.tidy import ladder, make_tidy, tidy_bound
from modlab.tomita import modular_data
from rotated import rotated_triple


SX = np.array([[0, 1], [1, 0]], dtype=complex)


def elementary(d, i, j):
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def reference_flow(t, x, tt):
    """The modular flow as u x u^H with u = Delta^(-it): the independent
    reference for analytic_flow at z = i t."""
    u = complex_power(t.delta_spec, -1j * tt)
    return u @ x @ u.conj().T


def two_qubit_fixture():
    a = subspace_orthonormalize(
        [np.kron(elementary(2, i, j), np.eye(2)) for i in range(2) for j in range(2)]
    )
    comm = subspace_orthonormalize(
        [np.kron(np.eye(2), elementary(2, i, j)) for i in range(2) for j in range(2)]
    )
    omega = np.array([np.sqrt(2 / 3), 0, 0, np.sqrt(1 / 3)], dtype=complex)
    return a, omega, modular_data(a, omega, comm)


def test_flow_at_zero_is_identity_map():
    _, _, t = two_qubit_fixture()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert rel_residual(analytic_flow(t, x, 0j), x) <= 1e-14


def test_flow_trivial_for_identity_delta():
    fix = generate_fixture(AlgebraSpec.maximal_abelian(4), seed=0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for tt in (0.5, 2.0, -7.0):
        assert rel_residual(analytic_flow(fix.triple, x, 1j * tt), x) <= 1e-12


def test_flow_factorized_closed_form():
    # factorized oracle: flow of E_12 (x) 1 equals (rho^{-it} E_12 rho^{it}) (x) 1
    _, _, t = two_qubit_fixture()
    rho = np.diag([2 / 3, 1 / 3]).astype(complex)
    x = np.kron(elementary(2, 0, 1), np.eye(2))
    tt = 1.0
    w, u = np.linalg.eigh(rho)
    rho_pow = lambda z: (u * np.exp(z * np.log(w.astype(complex)))) @ u.conj().T
    oracle = np.kron(rho_pow(-1j * tt) @ elementary(2, 0, 1) @ rho_pow(1j * tt), np.eye(2))
    assert rel_residual(analytic_flow(t, x, 1j * tt), oracle) <= 1e-12


def test_flow_preserves_norm():
    _, _, t = two_qubit_fixture()
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    n0 = np.linalg.norm(x, 2)
    for tt in (0.3, np.pi, 10.0):
        assert abs(np.linalg.norm(analytic_flow(t, x, 1j * tt), 2) - n0) <= 1e-10 * n0


def test_flow_group_law():
    _, _, t = two_qubit_fixture()
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lhs = analytic_flow(t, analytic_flow(t, x, 0.8j), -2.1j)
    rhs = analytic_flow(t, x, 1j * (0.8 - 2.1))
    assert rel_residual(lhs, rhs) <= 1e-10


def test_flow_fixes_state_expectation():
    _, _, t = two_qubit_fixture()
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for tt in (0.7, -3.0):
        g = analytic_flow(t, x, 1j * tt)
        assert abs(np.vdot(t.omega, g @ t.omega) - np.vdot(t.omega, x @ t.omega)) <= 1e-10


def test_analytic_flow_trivial_and_unitary_cases():
    a, _, t = two_qubit_fixture()
    x = a.basis[1]
    s0 = analytic_flow(t, x, 0.0)
    assert rel_residual(s0, x) <= 1e-14
    s_im = analytic_flow(t, x, 0.9j)
    assert abs(opnorm(s_im) - np.linalg.norm(x, 2)) <= 1e-10


def test_analytic_flow_at_one_matches_independent_tidy_solve():
    _, _, t = two_qubit_fixture()
    src = np.kron(SX, np.eye(2))
    tidy = make_tidy(t, src, 1.5, 2.5)
    # window (1.5, 2.5) keeps only the eigenvalue-2 eigenspace |01>, and the
    # solved pair is E_01 (x) 1 by hand
    assert rel_residual(tidy.a, np.kron(elementary(2, 0, 1), np.eye(2))) <= 1e-10
    f1 = analytic_flow(t, tidy.a, 1.0)
    lad = ladder(t, t.orbit, tidy, -1)
    assert rel_residual(f1, lad) <= 1e-10
    # closed form: Delta^{-1} (E_01 (x) 1) Delta = (1/2) E_01 (x) 1
    assert rel_residual(f1, 0.5 * np.kron(elementary(2, 0, 1), np.eye(2))) <= 1e-10


def test_analytic_flow_overflow_guard():
    _, _, t = two_qubit_fixture()
    with pytest.raises(FlowDomainError):
        analytic_flow(t, np.eye(4), 13.0)


def test_membership_residual_in_flow_sample():
    a, _, t = two_qubit_fixture()
    sample = analytic_flow(t, a.basis[2], 0.5 + 1j)
    assert membership_residual(sample, a) <= 1e-9 * np.sqrt(t.kappa) * 4


def flow_tolerance(t):
    """The flow suite's tolerance at the default base 1e-9."""
    return 1e-9 * np.sqrt(t.kappa) * t.dim


def test_commutator_ratio_matches_spectral_norm_oracle():
    # M_2 (x) 1_m against 1_2 (x) M_m: d = 4 takes the plain sweep, d = 8 the pruned one
    pairs = [(i, j) for i in range(2) for j in range(2)]
    for m in (2, 4):
        algebra = np.array([np.kron(elementary(2, i, j), np.eye(m)) for i, j in pairs])
        commutant = np.array([np.kron(np.eye(2), elementary(m, i, j))
                              for i in range(m) for j in range(m)])
        x = np.kron(SX, np.eye(m))
        norm_x = np.linalg.norm(x, 2)
        [ratio] = commutator_ratio(x[None], [norm_x], commutant, opnorm_stack(commutant))
        assert ratio == 0.0
        oracle = max(np.linalg.norm(x @ b - b @ x, 2) / (norm_x * np.linalg.norm(b, 2))
                     for b in algebra)
        assert oracle == pytest.approx(1.0)
        [ratio] = commutator_ratio(x[None], [norm_x], algebra, opnorm_stack(algebra))
        assert ratio == pytest.approx(oracle, rel=1e-12)


def test_commutator_ratio_keeps_a_nan_sample_to_itself():
    a, _, t4 = two_qubit_fixture()
    t9 = generate_fixture(AlgebraSpec.standard_factor(3), seed=1).triple
    assert t9.dim >= flow.PRUNE_MIN_DIM > t4.dim
    for t in (t4, t9):
        xs = analytic_flow(t, t.algebra.basis[1], 1j * np.array([0.3, 1.0, 2.0]))
        norms = opnorm_stack(xs)
        xs[1, 0, 0] = np.nan
        ratios = commutator_ratio(xs, norms, t.commutant.basis, t.commutant_norms)
        assert np.isnan(ratios[1])
        assert np.all(ratios[[0, 2]] <= 1e-12)


def full_sweep(xs, norms_x, basis, basis_norms):
    """commutator_ratio without the bound: every commutator's SVD, then the row maxima."""
    x = xs[:, None]
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite input gives a NaN ratio
        scale = np.maximum(np.multiply.outer(norms_x, basis_norms), 1e-30)
        return np.max(opnorm_stack(x @ basis - basis @ x) / scale, axis=1, initial=0.0)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 3), k=st.integers(0, 6), d=st.integers(flow.PRUNE_MIN_DIM, 20),
       seed=st.integers(0, 2 ** 32 - 1), zeros=st.integers(0, 3), ties=st.integers(0, 3),
       x_exp=st.sampled_from([-200, 0, 200]), b_exp=st.sampled_from([-200, 0, 200]),
       broken=st.sampled_from([None, np.nan, np.inf, -np.inf]),
       where=st.sampled_from(["x", "basis", "norm"]))
def test_pruned_commutator_sweep_equals_the_full_sweep(n, k, d, seed, zeros, ties, x_exp,
                                                       b_exp, broken, where):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, n + k, d, d))
    xs, basis = np.split(g[0] + 1j * g[1], [n])
    xs, basis = xs * 10.0 ** x_exp, basis * 10.0 ** b_exp
    # multiples of 1 commute exactly; a copy of another element ties with it
    basis[:min(zeros, k)] = np.eye(d) * rng.uniform(0.5, 2.0, (min(zeros, k), 1, 1))
    for _ in range(ties if k else 0):
        i, j = rng.integers(k, size=2)
        basis[i] = basis[j]
    norms_x, basis_norms = opnorm_stack(xs), opnorm_stack(basis)
    target = {"x": xs, "basis": basis, "norm": norms_x}[where]
    if broken is not None and target.size:
        target.flat[rng.integers(target.size)] = broken
    expected = full_sweep(xs, norms_x, basis, basis_norms)
    got = commutator_ratio(xs, norms_x, basis, basis_norms)
    assert np.array_equal(got, expected, equal_nan=True)


def loop_tomita_check(t, basis, times):
    """tomita_check one (a, t, b') triple at a time: the reference flow,
    membership_residual and opnorm on single matrices."""
    membership, commutator = [], []
    for a in basis:
        norm_a = opnorm(a)
        for tt in times:
            x = reference_flow(t, a, tt)
            membership.append(membership_residual(x, t.algebra))
            commutator.append(max(opnorm(x @ b - b @ x) / max(norm_a * opnorm(b), 1e-30)
                                  for b in t.commutant.basis))
    return membership, commutator


@pytest.mark.parametrize("label", ["standard_factor(2)", "standard_factor(3)",
                                   "direct_sum(2:2,1:1)", "rotated"])
def test_tomita_check_matches_the_per_triple_loop(label):
    t = rotated_triple(4) if label == "rotated" else generate_fixture(parse_spec(label), 2).triple
    # the algebra's basis, whose residuals sit at rounding level, then three
    # elements off the algebra, whose residuals and ratios are of order one
    g = np.random.default_rng(5).standard_normal((2, 3, t.dim, t.dim))
    basis = np.concatenate([t.algebra.basis, g[0] + 1j * g[1]])
    times = (0.3, -1.0, np.pi, 10.0)
    membership, commutator = tomita_check(t, basis, times)
    assert membership.shape == commutator.shape == (len(basis), len(times))
    loop_membership, loop_commutator = loop_tomita_check(t, basis, times)
    assert np.min(loop_membership[-12:]) > 0.1 and np.min(loop_commutator[-12:]) > 0.1
    assert np.max(np.abs(membership.ravel() - loop_membership)) <= 1e-15
    assert np.max(np.abs(commutator.ravel() - loop_commutator)) <= 1e-15


def test_tomita_check_abelian_trivial():
    fix = generate_fixture(AlgebraSpec.maximal_abelian(5), seed=3)
    tol = flow_tolerance(fix.triple)
    membership, commutator = tomita_check(fix.triple, fix.triple.algebra.basis[2:3],
                                          (0.3, 1.0, np.pi, 10.0))
    assert np.all(membership <= tol) and np.all(commutator <= tol)
    assert np.all(membership <= 1e-12)


def test_tomita_check_standard_fixture():
    _, _, t = two_qubit_fixture()
    x = np.kron(SX, np.eye(2))
    membership, commutator = tomita_check(t, x[None], (0.3, 1.0, np.pi, 10.0))
    assert np.all(membership <= 1e-9)
    assert np.all(commutator <= 1e-9)
    assert np.all(membership <= flow_tolerance(t)) and np.all(commutator <= flow_tolerance(t))


def test_tomita_check_random_direct_sum_ensemble():
    rng = np.random.default_rng(6)
    fix = generate_fixture(AlgebraSpec.direct_sum([(2, 2), (1, 1)]), seed=11)
    a = fix.triple.algebra
    for _ in range(10):
        c = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
        x = a.element(c)
        tt = float(rng.uniform(-5, 5))
        [[membership]], [[commutator]] = tomita_check(fix.triple, x[None], (tt,))
        assert membership <= flow_tolerance(fix.triple)
        assert commutator <= flow_tolerance(fix.triple)


def test_strip_scan_identity_operator():
    _, _, t = two_qubit_fixture()
    norms = strip_growth_scan(t, np.eye(4))
    assert norms.shape == (4, 5)
    for norm in norms.ravel():
        assert abs(norm - 1.0) <= 1e-10


def test_strip_scan_constant_along_imaginary_direction():
    a, _, t = two_qubit_fixture()
    rng = np.random.default_rng(7)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    src = a.element(c)
    wins = covering_windows(t)
    tidy = make_tidy(t, src, wins[0][0], wins[0][1])
    samples = strip_growth_scan(t, tidy.a)
    for norms in samples:  # one row per vertical line Re z = 0, 1, 2, 3
        if norms[0] > 1e-250:
            assert (max(norms) - min(norms)) <= 1e-10 * norms[0]
    # purely imaginary line keeps the untouched norm
    n_a = np.linalg.norm(tidy.a, 2)
    assert all(abs(v - n_a) <= 1e-10 * max(n_a, 1e-250) for v in samples[0])


def test_strip_scan_integer_values_under_tidy_growth_bound():
    # compare against the tidy module's closed-form bound evaluation
    _, _, t = two_qubit_fixture()
    src = np.kron(SX, np.eye(2))
    l1, l2 = 1.5, 2.5
    tidy = make_tidy(t, src, l1, l2)
    norm_a0 = np.linalg.norm(tidy.a, 2)
    norms = opnorm_stack(analytic_flow(t, tidy.a, np.arange(1.0, 7.0)))
    for x, norm in zip(range(1, 7), norms):
        # F_a(x) = a_{-x}: mirrored-window bound for the commutant-side source
        bound = tidy_bound(1.0 / l1, x, norm_a0)
        assert norm <= bound * (1 + 1e-9)


def test_analytic_commutators_vanish_off_axis():
    _, _, t = two_qubit_fixture()
    wins = covering_windows(t)
    tidy = make_tidy(t, np.kron(SX, np.eye(2)), wins[-1][0], wins[-1][1])
    rng = np.random.default_rng(8)
    for _ in range(8):
        z = complex(rng.uniform(-4, 4), rng.uniform(-5, 5))
        sample = analytic_flow(t, tidy.a, z)
        for b in t.commutant.basis:
            comm_norm = np.linalg.norm(sample @ b - b @ sample, 2)
            scale = max(opnorm(sample) * np.linalg.norm(b, 2), 1e-30)
            assert comm_norm / scale <= 1e-9 * t.kappa ** ((abs(z.real) + 1) / 2)


@pytest.mark.parametrize("label", ["standard_factor(2)", "direct_sum(2:2,1:1)", "rotated"])
def test_analytic_flow_stack_matches_the_per_z_loop(label):
    t = rotated_triple(4) if label == "rotated" else generate_fixture(parse_spec(label), 2).triple
    rng = np.random.default_rng(9)
    g = rng.standard_normal((2, 2, t.dim))
    xs = np.array([t.algebra.element(c) for c in g[0] + 1j * g[1]])
    zs = np.array([[0.0, 1.0, 2.5 - 1.0j], [-3.0 + 0.4j, 0.9j, 6.0]])
    stack = analytic_flow(t, xs, zs)
    assert stack.shape == (2, 2, 3, t.dim, t.dim)
    for x, values in zip(xs, stack):
        assert np.array_equal(analytic_flow(t, x, zs), values)
        for z, value in zip(zs.ravel(), values.reshape(-1, t.dim, t.dim)):
            ref = complex_power(t.delta_spec, -z) @ x @ complex_power(t.delta_spec, z)
            assert np.max(np.abs(value - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert analytic_flow(t, xs[0], zs[1, 0]).shape == (t.dim, t.dim)
    assert analytic_flow(t, xs, zs[1, 0]).shape == (2, t.dim, t.dim)
    with pytest.raises(FlowDomainError):
        analytic_flow(t, xs[0], [1.0, 13.0])


@pytest.mark.parametrize("label", ["direct_sum(2:2,1:1)", "rotated"])
def test_analytic_flow_at_imaginary_z_is_the_unitary_conjugation(label):
    # the modular flow at time t is the continuation at z = i t
    t = rotated_triple(4) if label == "rotated" else generate_fixture(parse_spec(label), 3).triple
    g = np.random.default_rng(10).standard_normal((2, 3, t.dim, t.dim))
    xs = np.concatenate([t.algebra.basis[:2], g[0] + 1j * g[1]])
    times = np.array([0.3, -1.0, np.pi, 10.0])
    stack = analytic_flow(t, xs, 1j * times)
    assert stack.shape == (len(xs), len(times), t.dim, t.dim)
    for x, values in zip(xs, stack):
        for tt, value in zip(times, values):
            ref = reference_flow(t, x, tt)
            assert np.max(np.abs(value - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("x", [np.eye(3), np.ones((4, 3)), np.ones((2, 2, 4, 4)),
                               np.diag([1.0, np.nan, 1.0, 1.0])],
                         ids=["dimension", "non-square", "rank-4", "non-finite"])
def test_analytic_flow_rejects_bad_operators(x):
    _, _, t = two_qubit_fixture()
    with pytest.raises(FlowDomainError):
        analytic_flow(t, x, 1j)


def test_flow_suite_takes_no_single_matrix_norm(monkeypatch):
    # every norm of the strip scan, the commutator samples and the ladder
    # match comes from a batched SVD; the ladder match asks for none
    from modlab import flow, linalg, suites, tidy
    from modlab.report import CheckSet

    def refused(a):
        raise AssertionError("single-matrix opnorm called")

    for mod in (linalg, flow, tidy, suites):
        monkeypatch.setattr(mod, "opnorm", refused)
    checks = CheckSet()
    fix = generate_fixture(parse_spec("direct_sum(2:2,1:1)"), 3)
    suites.run_flow_suite(fix, np.random.default_rng(4), checks)
    records = {r.id: r for r in checks.records()}
    assert records["flow/integer-ladder-match"].samples == 3
    assert all(r.status == "pass" for r in records.values())
