"""The suites' sampled checks: batched kernels against per-sample loops, and
non-finite and defect injection.

Every sample reaches ``CheckSet.add`` as a sample of its own, so a NaN
among them is counted and fails the record. A hand reduction before the fold
could hide it: Python's ``max(0.0, nan)`` is ``0.0``, so a running maximum
would record a broken measurement as a pass. Each injection below passes
silently under such a running maximum.
"""

import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest

import modlab
from modlab import algebra, suites
from modlab.algebra import mutual_projection_residual
from modlab.fixtures import generate_fixture, parse_spec
from modlab.flow import STRIP_RE_MAX
from modlab.linalg import AntilinearMap, rel_residual
from modlab.report import CheckSet
from modlab.suites import TOL_BASE

MODELS = ("standard_factor(2)", "standard_factor(3)", "direct_sum(2:2,1:1)")
SAMPLED = ("modular/s-on-algebra", "modular/s-star-on-commutant", "modular/j-antiunitary")


def _fixture(label="standard_factor(2)", seed=11):
    return generate_fixture(parse_spec(label), seed)


def _with(fix, **fields):
    """The fixture with some fields of its modular triple replaced."""
    return dataclasses.replace(fix, triple=dataclasses.replace(fix.triple, **fields))


def _records(run, fix, seed=5):
    cs = CheckSet()
    run(fix, np.random.default_rng(seed), cs)
    return {r.id: r for r in cs.records()}


def _loop_oracle(fix, rng) -> dict:
    """The three sampled modular identities, one element or vector pair at a
    time: each check id's residuals in sample order."""
    t = fix.triple
    d = t.dim

    def element(space):
        c = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        m = space.element(c)
        return m / np.linalg.norm(m)

    def unit_vector():
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return v / np.linalg.norm(v)

    residuals = {}
    for cid, space, s in (("modular/s-on-algebra", t.algebra, t.s),
                          ("modular/s-star-on-commutant", t.commutant, t.s_star)):
        xs = list(space.basis) + [element(space) for _ in range(suites.RANDOM_ELEMENTS)]
        residuals[cid] = [rel_residual(s(x @ t.omega), x.conj().T @ t.omega) for x in xs]
    pairs = [(unit_vector(), unit_vector()) for _ in range(100)]
    residuals["modular/j-antiunitary"] = [
        abs(np.vdot(t.j(psi), t.j(phi)) - np.vdot(phi, psi)) for psi, phi in pairs]
    return residuals


def _perturbed(fix, defect):
    """The fixture with defect * R added to the matrices of S and J, for one
    fixed complex R of unit operator norm."""
    t = fix.triple
    g = np.random.default_rng(0).standard_normal((2, t.dim, t.dim))
    r = defect * (g[0] + 1j * g[1]) / np.linalg.norm(g[0] + 1j * g[1], 2)
    return _with(fix, s=AntilinearMap(t.s.matrix + r), j=AntilinearMap(t.j.matrix + r))


def test_one_batched_draw_is_the_sequential_stream():
    n, k = 7, 5
    batched = np.random.default_rng(3).standard_normal((n, 2, k))
    rng = np.random.default_rng(3)
    sequential = np.array([[rng.standard_normal(k), rng.standard_normal(k)] for _ in range(n)])
    assert np.array_equal(batched, sequential)


@pytest.mark.parametrize("label", MODELS)
@pytest.mark.parametrize("seed", [0, 17])
@pytest.mark.parametrize("defect", [0.0, 1e-6])
def test_batched_modular_records_match_the_loop_oracle(label, seed, defect):
    # exact S and J leave rounding-level residuals that hardly depend on the
    # samples; perturbed ones make each residual a function of its sample
    fix = _perturbed(_fixture(label, seed=100 + seed), defect)
    t = fix.triple
    recs = _records(suites.run_modular_suite, fix, seed)
    loop = _loop_oracle(fix, np.random.default_rng(seed))
    tols = dict.fromkeys(SAMPLED[:2], TOL_BASE * math.sqrt(t.kappa) * t.dim)
    tols["modular/j-antiunitary"] = 1e-10 * t.dim
    for cid in SAMPLED:
        rec, worst = recs[cid], max(loop[cid])
        # every element or vector pair reaches the record as its own sample
        assert rec.samples == len(loop[cid]) and rec.nonfinite == 0
        assert rec.tolerance == tols[cid]
        assert abs(rec.max_residual - worst) <= 1e-15, cid
        assert rec.status == ("pass" if worst <= tols[cid] else "fail")


@pytest.mark.parametrize("label", MODELS)
def test_batched_residuals_match_the_loop_sample_by_sample(label):
    # the record keeps only the largest residual, which a basis element may
    # set; per sample, the comparison shows the batch draws the loop's elements
    fix = _perturbed(_fixture(label), 1e-6)
    t = fix.triple
    oracle = _loop_oracle(fix, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    for cid, space, s in (("modular/s-on-algebra", t.algebra, t.s),
                          ("modular/s-star-on-commutant", t.commutant, t.s_star)):
        batched = suites._adjoint_orbit_residuals(space, s, t.omega, rng)
        assert batched.shape == (space.dim + suites.RANDOM_ELEMENTS,)
        assert np.max(np.abs(batched - oracle[cid])) <= 1e-15 * max(1.0, np.max(batched))


def _nan_at(m, i=1, j=2):
    m = np.array(m, dtype=complex)
    m[i, j] = np.nan
    return m


@pytest.mark.parametrize("field, failing", [
    ("s", ("modular/s-on-algebra", "modular/s-star-on-commutant")),
    ("j", ("modular/j-antiunitary", "modular/fixed-vector")),
])
def test_nan_in_modular_data_fails_the_sampled_records(field, failing):
    fix = _fixture()
    broken = AntilinearMap(_nan_at(getattr(fix.triple, field).matrix))
    recs = _records(suites.run_modular_suite, _with(fix, **{field: broken}))
    for cid in failing:
        assert recs[cid].status == "fail" and recs[cid].nonfinite >= 1, cid


@pytest.mark.parametrize("field, cid, tol_of", [
    ("s", "modular/s-on-algebra", lambda t: TOL_BASE * math.sqrt(t.kappa) * t.dim),
    ("s", "modular/s-star-on-commutant", lambda t: TOL_BASE * math.sqrt(t.kappa) * t.dim),
    ("j", "modular/j-antiunitary", lambda t: 1e-10 * t.dim),
])
@pytest.mark.parametrize("label", MODELS)
def test_relative_defect_of_ten_tolerances_flips_the_record(label, field, cid, tol_of):
    fix = _fixture(label)
    assert _records(suites.run_modular_suite, fix)[cid].status == "pass"
    m = getattr(fix.triple, field).matrix
    scaled = AntilinearMap(m * (1.0 + 10.0 * tol_of(fix.triple)))
    rec = _records(suites.run_modular_suite, _with(fix, **{field: scaled}))[cid]
    assert rec.status == "fail" and rec.nonfinite == 0


class _NanPair(AntilinearMap):
    """J, except that a stack of vectors comes back with one column NaN."""

    def __call__(self, psi):
        out = super().__call__(psi)
        if out.ndim == 2:
            out[:, 3] = np.nan
        return out


def test_nan_in_one_j_antiunitary_pair_fails_one_sample_of_a_hundred():
    # only the pair's two stacked J calls see the NaN; the other 99 pairs
    # reach the record as finite samples of their own
    fix = _fixture()
    broken = _NanPair(fix.triple.j.matrix)
    recs = _records(suites.run_modular_suite, _with(fix, j=broken))
    rec = recs["modular/j-antiunitary"]
    assert rec.status == "fail" and rec.nonfinite == 1 and rec.samples == 100
    assert 0.0 <= rec.max_residual <= rec.tolerance
    assert recs["modular/fixed-vector"].status == "pass"


def _flow_records(monkeypatch, name, wrap):
    """Flow-suite records with suites.<name> replaced by wrap(original)."""
    monkeypatch.setattr(suites, name, wrap(getattr(suites, name)))
    return _records(suites.run_flow_suite, _fixture())


def test_nan_flowed_state_fails_fixes_state(monkeypatch):
    def wrap(flow):
        def rigged(t, x, z):
            out = flow(t, x, z)
            out[np.asarray(z) == 2j] = np.nan  # t = 2.0, the second time the state check samples
            return out
        return rigged

    rec = _flow_records(monkeypatch, "analytic_flow", wrap)["flow/fixes-state"]
    assert rec.status == "fail" and rec.nonfinite == 1 and rec.samples == 3


@pytest.mark.parametrize("position", [0, 2])  # the line's base norm, and a later one
def test_nan_strip_norm_fails_strip_constancy(monkeypatch, position):
    def wrap(scan):
        def rigged(t, a):
            norm = scan(t, a)
            norm[1, position] = math.nan  # row 1 is the line Re z = 1
            return norm
        return rigged

    rec = _flow_records(monkeypatch, "strip_growth_scan", wrap)["flow/strip-constancy"]
    assert rec.status == "fail" and rec.nonfinite == 1


def test_strip_constancy_samples_each_line_and_one_zero_when_all_are_skipped(monkeypatch):
    rec = _records(suites.run_flow_suite, _fixture())["flow/strip-constancy"]
    assert rec.samples == STRIP_RE_MAX + 1  # one per vertical line

    def wrap(scan):
        return lambda t, a: np.zeros_like(scan(t, a))  # every line has zero norm

    rec = _flow_records(monkeypatch, "strip_growth_scan", wrap)["flow/strip-constancy"]
    assert (rec.status, rec.samples, rec.max_residual, rec.nonfinite) == ("pass", 1, 0.0, 0)


def test_nan_commutator_ratio_fails_analytic_commutators(monkeypatch):
    calls = []

    def wrap(ratio):
        # one call takes the stack: seven integer samples first, then the six
        # analytic ones; the first analytic sample reads NaN, the five after it
        # are finite
        def rigged(xs, norms_x, basis, basis_norms):
            out = ratio(xs, norms_x, basis, basis_norms)
            calls.append(len(out))
            out[7] = math.nan
            return out
        return rigged

    recs = _flow_records(monkeypatch, "commutator_ratio", wrap)
    assert calls == [13]
    rec = recs["flow/analytic-commutators"]
    assert rec.status == "fail" and rec.nonfinite == 1
    assert recs["flow/integer-commutators"].nonfinite == 0


def test_sample_above_its_own_tolerance_fails_analytic_commutators(monkeypatch):
    # each analytic sample z has its own tolerance kappa_tol(Re z): one ratio
    # ten times its (small) tolerance must fail the record even when another
    # sample's ratio is larger but inside its own (larger) tolerance
    fix = _fixture("standard_factor(3)", seed=7)
    zs, injected = [], []

    def wrap_flow(flow):
        def recording(t, x, z):
            if np.ndim(z) == 1 and len(z) == 13:
                zs.extend(z)
            return flow(t, x, z)
        return recording

    def wrap_ratio(ratio):
        def rigged(xs, norms_x, basis, basis_norms):
            out = ratio(xs, norms_x, basis, basis_norms)
            tols = suites.kappa_tol(fix.triple, np.real(zs[7:]))
            low, high = int(np.argmin(tols)), int(np.argmax(tols))
            out[7:] = 0.0
            out[7 + low], out[7 + high] = 10 * tols[low], 0.5 * tols[high]
            injected.append((out[7 + low], out[7 + high]))
            return out
        return rigged

    monkeypatch.setattr(suites, "analytic_flow", wrap_flow(suites.analytic_flow))
    monkeypatch.setattr(suites, "commutator_ratio", wrap_ratio(suites.commutator_ratio))
    rec = _records(suites.run_flow_suite, fix)["flow/analytic-commutators"]
    (failing, passing), = injected
    assert passing > failing  # a fold of the largest ratio alone would pass
    assert rec.status == "fail" and rec.samples == 6 and rec.nonfinite == 0


def test_nan_membership_fails_tidy_membership(monkeypatch):
    calls = []

    def rigged(x, subspace):
        calls.append(None)
        return math.nan if len(calls) == 2 else 0.0  # the commutant's residual

    monkeypatch.setattr(suites, "membership_residual", rigged)
    rec = _records(suites.run_tidy_suite, _fixture())["tidy/membership"]
    assert rec.status == "fail" and rec.nonfinite == 1 and rec.samples == 2


def test_mutual_projection_residual_propagates_nan():
    a = _fixture().triple.algebra
    assert mutual_projection_residual(a, a) < 1e-12
    basis = a.basis.copy()
    basis[1] = _nan_at(basis[1], 0, 0)
    broken = dataclasses.replace(a, basis=basis)
    assert math.isnan(mutual_projection_residual(a, broken))
    assert math.isnan(mutual_projection_residual(broken, a))


@pytest.mark.parametrize("label", ["standard_factor(2)", "direct_sum(2:2,1:1)"])
def test_each_suite_draws_the_same_stream_alone_as_beside_the_others(label):
    config = suites.RunConfig(seed=20260809, models=(label,), trials=2)
    together = suites.run_suites(config)
    alone = {name: suites.run_suites(dataclasses.replace(config, suites=(name,)))
             for name in suites.ALL_SUITES}
    for name, report in alone.items():
        assert report.checks == [c for c in together.checks if c.id.startswith(f"{name}/")]
    assert alone["tidy"].rows["tidy_bounds"] == together.rows["tidy_bounds"]
    assert alone["contour"].rows["contour_convergence"] == together.rows["contour_convergence"]


@pytest.mark.parametrize("label", ["standard_factor(2)", "direct_sum(2:2,1:1)"])
def test_resolvent_suite_draws_the_per_sample_stream(monkeypatch, label):
    # the suite draws its samples as the per-sample code did, one
    # (z, a' in A', a in A, z2) at a time, then makes one stacked call per role
    fix = _fixture(label)
    t = fix.triple
    calls = []
    transfer = suites.td.resolvent_transfer

    def recording(triple, source, z, mirror=False):
        calls.append((source, z, mirror))
        return transfer(triple, source, z, mirror=mirror)

    monkeypatch.setattr(suites.td, "resolvent_transfer", recording)
    records = _records(suites.run_resolvent_suite, fix, seed=7)
    rng = np.random.default_rng(7)
    w = t.delta_spec.eigenvalues
    expected = {False: ([], []), True: ([], [])}
    for _ in range(suites.RESOLVENT_SAMPLES):
        expected[False][1].append(suites._draw_offaxis_z(rng, w))
        expected[False][0].append(suites._random_element(t.commutant, rng))
        expected[True][0].append(suites._random_element(t.algebra, rng))
        expected[True][1].append(suites._draw_offaxis_z(rng, 1.0 / w[::-1]))
    assert [mirror for _, _, mirror in calls] == [False, True]
    for source, z, mirror in calls:
        assert np.array_equal(source, np.array(expected[mirror][0]))
        assert np.array_equal(z, np.array(expected[mirror][1]))
    assert records["resolvent/transfer-bound"].samples == suites.RESOLVENT_SAMPLES
    assert records["resolvent/transfer-bound-mirrored"].samples == suites.RESOLVENT_SAMPLES


# ---------------------------------------------------------------------------
# the algebra side is the model's, the vector the trial's
# ---------------------------------------------------------------------------

SPLIT_MODELS = ("standard_factor(2)", "direct_sum(1:1,1:1)")


def _counting_commutant(monkeypatch) -> list:
    """Rebind every modlab module's ``commutant`` to a wrapper that records its inputs."""
    calls, original = [], algebra.commutant

    def counting(a):
        calls.append(a)
        return original(a)

    for info in pkgutil.iter_modules(modlab.__path__, "modlab."):
        module = importlib.import_module(info.name)
        if getattr(module, "commutant", None) is original:
            monkeypatch.setattr(module, "commutant", counting)
    return calls


def _drawn_fixtures(monkeypatch) -> list:
    """Record every fixture that run_suites draws."""
    fixtures, generate = [], suites.generate_fixture

    def recording(*args, **kwargs):
        fixtures.append(generate(*args, **kwargs))
        return fixtures[-1]

    monkeypatch.setattr(suites, "generate_fixture", recording)
    return fixtures


def test_every_fixture_of_a_model_shares_its_algebra_and_commutant(monkeypatch):
    fixtures = _drawn_fixtures(monkeypatch)
    suites.run_suites(suites.RunConfig(models=SPLIT_MODELS, trials=3, suites=("modular",)))
    assert len(fixtures) == 6
    for model in (fixtures[:3], fixtures[3:]):
        first = model[0].triple
        assert len({fix.spec.label() for fix in model}) == 1
        assert all(f.triple.algebra is first.algebra for f in model)
        assert all(f.triple.commutant is first.commutant for f in model)
        assert len({f.seed for f in model}) == 3  # the vectors are drawn per trial
    assert fixtures[0].triple.algebra is not fixtures[3].triple.algebra


def test_density_suite_adds_two_commutants_per_model_and_one_per_trial(monkeypatch):
    # A' per model; with the density suite A'' and A''' per model, and the
    # tidy span's commutant per trial
    calls = _counting_commutant(monkeypatch)
    config = suites.RunConfig(models=SPLIT_MODELS, trials=3, suites=("modular", "density"))
    suites.run_suites(config)
    assert len(calls) == len(SPLIT_MODELS) * (3 + 1 * 3)


def test_a_run_without_the_density_suite_builds_only_the_commutant(monkeypatch):
    calls = _counting_commutant(monkeypatch)
    fixtures = _drawn_fixtures(monkeypatch)
    suites.run_suites(suites.RunConfig(models=SPLIT_MODELS, trials=3,
                                       suites=tuple(set(suites.ALL_SUITES) - {"density"})))
    # one call per model, on its algebra: no A'' or A''' was built
    assert len(calls) == len(SPLIT_MODELS)
    assert calls[0] is fixtures[0].triple.algebra and calls[1] is fixtures[3].triple.algebra


def test_a_commutant_patched_after_a_run_is_called_by_the_next(monkeypatch):
    config = suites.RunConfig(models=SPLIT_MODELS, trials=2, suites=("modular",))
    suites.run_suites(config)
    calls = _counting_commutant(monkeypatch)
    suites.run_suites(config)
    # each run parses fresh spec objects, so no algebra outlives its run
    assert len(calls) == len(SPLIT_MODELS)


def test_commutant_chain_grows_on_demand_and_is_kept_per_spec_object(monkeypatch):
    calls = _counting_commutant(monkeypatch)
    spec = parse_spec("standard_factor(2)")
    a, a_prime = spec.commutant_chain(2)
    assert len(calls) == 1 and calls[0] is a
    assert spec.commutant_chain(1)[0] is a and spec.commutant_chain(2)[1] is a_prime
    assert len(calls) == 1
    double, tricommutant = spec.commutant_chain(4)[2:]
    assert len(calls) == 3 and calls[1] is a_prime and calls[2] is double
    assert mutual_projection_residual(double, a) <= 1e-9
    assert mutual_projection_residual(tricommutant, a_prime) <= 1e-9
    other = parse_spec("standard_factor(2)")
    assert other == spec and other.commutant_chain(1)[0] is not a


def test_offaxis_draw_raises_a_typed_error_after_64_rejected_draws():
    # every uniform draw is 0, so each z = exp(0) e^(0i) = 1 lies on the positive axis
    class AxisRng:
        draws = 0

        def uniform(self, low, high):
            self.draws += 1
            return 0.0

    rng = AxisRng()
    with pytest.raises(suites.td.ResolventDomainError, match="off-axis"):
        suites._draw_offaxis_z(rng, np.array([0.5, 2.0]))
    assert rng.draws == 2 * 64
