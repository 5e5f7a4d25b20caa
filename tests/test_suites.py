"""The suites' sampled checks: batched kernels against per-sample loops, and
non-finite and defect injection.

A record that takes the maximum over samples must see a NaN sample: Python's
``max(0.0, nan)`` is ``0.0``, so a running maximum would record a broken
measurement as a pass. Each injection below passes silently under such a
running maximum.
"""

import dataclasses
import math

import numpy as np
import pytest

from modlab import suites
from modlab.algebra import mutual_projection_residual
from modlab.fixtures import generate_fixture, parse_spec
from modlab.linalg import AntilinearMap, rel_residual
from modlab.report import CheckSet

MODELS = ("standard_factor(2)", "standard_factor(3)", "direct_sum(2:2,1:1)")
SAMPLED = ("modular/s-on-algebra", "modular/s-star-on-commutant", "modular/j-antiunitary")
TOL_BASE = 1e-9


def _fixture(label="standard_factor(2)", seed=11):
    return generate_fixture(parse_spec(label), seed)


def _with(fix, **fields):
    """The fixture with some fields of its modular triple replaced."""
    return dataclasses.replace(fix, triple=dataclasses.replace(fix.triple, **fields))


def _records(run, fix, seed=5):
    cs = CheckSet()
    run(fix, np.random.default_rng(seed), cs, TOL_BASE)
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
    oracle = {cid: max(r) for cid, r in _loop_oracle(fix, np.random.default_rng(seed)).items()}
    tols = dict.fromkeys(SAMPLED[:2], TOL_BASE * math.sqrt(t.kappa) * t.dim)
    tols["modular/j-antiunitary"] = 1e-10 * t.dim
    for cid in SAMPLED:
        rec = recs[cid]
        assert rec.samples == 1 and rec.nonfinite == 0
        assert rec.tolerance == tols[cid]
        assert abs(rec.max_residual - oracle[cid]) <= 1e-15, cid
        assert rec.status == ("pass" if oracle[cid] <= tols[cid] else "fail")


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


def _flow_records(monkeypatch, name, wrap):
    """Flow-suite records with suites.<name> replaced by wrap(original)."""
    monkeypatch.setattr(suites, name, wrap(getattr(suites, name)))
    return _records(suites.run_flow_suite, _fixture())


def test_nan_flowed_state_fails_fixes_state(monkeypatch):
    def wrap(flow):
        # t = 2.0 is the second of the three times the state check samples
        return lambda t, x, tt: np.full_like(x, np.nan) if tt == 2.0 else flow(t, x, tt)

    rec = _flow_records(monkeypatch, "modular_flow", wrap)["flow/fixes-state"]
    assert rec.status == "fail" and rec.nonfinite == 1


@pytest.mark.parametrize("position", [0, 2])  # the line's base norm, and a later one
def test_nan_strip_norm_fails_strip_constancy(monkeypatch, position):
    def wrap(scan):
        def rigged(t, a):
            samples = scan(t, a)
            line = [i for i, s in enumerate(samples) if s.z.real == 1.0]
            samples[line[position]] = dataclasses.replace(samples[line[position]], norm=math.nan)
            return samples
        return rigged

    rec = _flow_records(monkeypatch, "strip_growth_scan", wrap)["flow/strip-constancy"]
    assert rec.status == "fail" and rec.nonfinite == 1


def test_nan_commutator_ratio_fails_analytic_commutators(monkeypatch):
    calls = []

    def wrap(ratio):
        # seven integer-commutator calls come first; the eighth is the first
        # analytic sample, and the five after it are finite
        def rigged(x, norm_x, basis):
            calls.append(None)
            return math.nan if len(calls) == 8 else ratio(x, norm_x, basis)
        return rigged

    recs = _flow_records(monkeypatch, "commutator_ratio", wrap)
    assert len(calls) == 13
    rec = recs["flow/analytic-commutators"]
    assert rec.status == "fail" and rec.nonfinite == 1
    assert recs["flow/integer-commutators"].nonfinite == 0


def test_nan_membership_fails_tidy_membership(monkeypatch):
    calls = []

    def rigged(x, subspace):
        calls.append(None)
        return math.nan if len(calls) == 2 else 0.0  # the commutant's residual

    monkeypatch.setattr(suites, "membership_residual", rigged)
    rec = _records(suites.run_tidy_suite, _fixture())["tidy/membership"]
    assert rec.status == "fail" and rec.nonfinite == 1


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
