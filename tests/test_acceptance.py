"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines. The criteria exercise the library through the same entry
points the CLI uses, at the prescribed fixture counts.
"""

import math
import re
import time
from functools import lru_cache

import numpy as np

from modlab.contour import (SIGMOID_FINAL_TOL, contour_apply, sigmoid_limit_check,
                            spectral_oracle)
from modlab.fixtures import AlgebraSpec, covering_windows, generate_fixture
from modlab.flow import tomita_check
from modlab.linalg import rel_residual
from modlab.report import emit
from modlab.suites import AUDIT_WINDOWS, TOL_BASE, RunConfig, run_modular_suite, run_suites
from modlab.report import CheckSet
from modlab.tidy import (
    dagger_ladder_check,
    growth_audit,
    ladder,
    make_tidy,
    powers_check,
    resolvent_transfer,
    tidy_bicommutant_check,
)

P_MIN = 0.01

MODEL_MIX = (
    AlgebraSpec.standard_factor(2),
    AlgebraSpec.standard_factor(3),
    AlgebraSpec.maximal_abelian(4),
    AlgebraSpec.maximal_abelian(5),
    AlgebraSpec.maximal_abelian(6),
    AlgebraSpec.direct_sum([(2, 2), (1, 1)]),
)


@lru_cache(maxsize=None)
def fixture_pool(count: int, base_seed: int = 1000):
    pool = []
    for i in range(count):
        spec = MODEL_MIX[i % len(MODEL_MIX)]
        pool.append(generate_fixture(spec, seed=base_seed + i, p_min=P_MIN))
    return tuple(pool)


def _report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_modular_identity_suite():
    start = time.monotonic()
    checks = CheckSet()
    count = 0
    for i in range(102):
        spec = MODEL_MIX[i % len(MODEL_MIX)]
        fix = generate_fixture(spec, seed=2000 + i, p_min=P_MIN)
        rng = np.random.default_rng((2000, i))
        run_modular_suite(fix, rng, checks)
        count += 1
    elapsed = time.monotonic() - start
    failures = [c for c in checks.records() if c.status == "fail"]
    _report(
        "criterion 1: modular identities on >= 100 fixtures",
        count >= 100 and not failures and elapsed < 60.0,
        f"{count} fixtures, {elapsed:.1f}s",
    )


def test_criterion_02_closed_form_cross_check():
    worst = 0.0
    for i in range(25):
        n = 2 + (i % 2)
        fix = generate_fixture(AlgebraSpec.standard_factor(n), seed=3000 + i, p_min=P_MIN)
        worst = max(worst, rel_residual(fix.triple.delta, fix.closed_form_delta()))
    _report(
        "criterion 2: standard-form modular operator matches the product form",
        worst <= 1e-10,
        f"worst residual {worst:.2e}",
    )


def test_criterion_03_flow_stays_in_algebra():
    times = (0.3, -0.3, 1.0, -1.0, math.pi, -math.pi, 10.0, -10.0)
    worst_ratio = 0.0
    for fix in fixture_pool(50):
        t = fix.triple
        tol = TOL_BASE * math.sqrt(t.kappa) * t.dim
        membership, commutator = tomita_check(t, t.algebra.basis, times)
        worst_ratio = max(worst_ratio, np.max(membership) / tol, np.max(commutator) / tol)
    _report(
        "criterion 3: modular flow keeps every basis element in the algebra",
        worst_ratio <= 1.0,
        f"worst residual at {worst_ratio:.2e} of tolerance",
    )


def test_criterion_04_resolvent_bound_zero_violations():
    classes = (
        AlgebraSpec.standard_factor(2),
        AlgebraSpec.standard_factor(3),
        AlgebraSpec.maximal_abelian(5),
        AlgebraSpec.direct_sum([(2, 2), (1, 1)]),
    )
    violations = 0
    total = 0
    for ci, spec in enumerate(classes):
        rng = np.random.default_rng((4000, ci))
        fixes = [generate_fixture(spec, seed=4100 + 10 * ci + j, p_min=P_MIN) for j in range(4)]
        done = 0
        while done < 200:
            fix = fixes[done % len(fixes)]
            w = fix.triple.delta_spec.eigenvalues
            r = math.exp(rng.uniform(math.log(0.2 * w[0]), math.log(5.0 * w[-1])))
            theta = rng.uniform(0.05, 2 * math.pi - 0.05)
            z = r * complex(math.cos(theta), math.sin(theta))
            if abs(z) - z.real <= 1e-5 or np.min(np.abs(z - w)) <= 1e-5:
                continue
            comm = fix.triple.commutant
            c = rng.standard_normal(comm.dim) + 1j * rng.standard_normal(comm.dim)
            out = resolvent_transfer(fix.triple, comm.element(c), z)
            if not out.measured_norm <= out.bound * (1 + 1e-9):
                violations += 1
            done += 1
        total += done
    _report(
        "criterion 4: resolvent transfer bound holds on every off-axis sample",
        violations == 0 and total >= 800,
        f"{total} samples, {violations} violations",
    )


def test_criterion_05_ladder_identities():
    worst = 0.0
    for fix in fixture_pool(50):
        t = fix.triple
        rng = np.random.default_rng((5000, fix.seed))
        wins = covering_windows(t)
        w0 = wins[int(rng.integers(len(wins)))]
        c = rng.standard_normal(t.algebra.dim) + 1j * rng.standard_normal(t.algebra.dim)
        tidy_a = make_tidy(t, t.algebra.element(c), w0[0], w0[1])
        c2 = rng.standard_normal(t.algebra.dim) + 1j * rng.standard_normal(t.algebra.dim)
        w1 = wins[int(rng.integers(len(wins)))]
        tidy_b = make_tidy(t, t.algebra.element(c2), w1[0], w1[1])
        ns = np.arange(-3, 4)
        a_n = ladder(t, t.orbit, tidy_a, ns)
        res_d, scale_d = dagger_ladder_check(t, tidy_a, a_n,
                                             ladder(t, t.commutant_orbit, tidy_a, ns + 1))
        res_p, scale_p = powers_check(t, tidy_a, tidy_b, ns, a_n)
        tol_d = TOL_BASE * math.sqrt(t.kappa) * t.dim * scale_d
        tol_p = TOL_BASE * t.kappa ** ((np.abs(ns) + 1) / 2) * t.dim * scale_p
        for res, tol in (*zip(res_d, tol_d), *zip(res_p, tol_p)):
            if res > 0:
                worst = max(worst, res / tol)
    _report(
        "criterion 5: adjoint-ladder and power-conjugation identities",
        worst <= 1.0,
        f"worst residual at {worst:.2e} of tolerance",
    )


def test_criterion_06_tidy_density():
    worst = 0.0
    deficits = 0
    for fix in fixture_pool(25):
        t = fix.triple
        wins = covering_windows(t)
        span, res = tidy_bicommutant_check(t, wins)
        if span < t.dim:
            deficits += 1
        worst = max(worst, res)
    _report(
        "criterion 6: covering-window tidy families regenerate the algebra",
        worst <= 1e-9 and deficits == 0,
        f"worst bicommutant residual {worst:.2e}",
    )


def test_criterion_07_sigmoid_limit():
    failures = 0
    runs = 0
    for fix in fixture_pool(25):
        t = fix.triple
        rng = np.random.default_rng((7000, fix.seed))
        psi = rng.standard_normal(t.dim) + 1j * rng.standard_normal(t.dim)
        psi /= np.linalg.norm(psi)
        w = t.delta_spec.eigenvalues
        lambdas = []
        for x, y in zip(w[:-1], w[1:]):
            if y > x * (1 + 1e-9):
                g = float(np.sqrt(x * y))
                if np.min(np.abs(w - g)) >= 0.05:
                    lambdas.append(g)
        while len(lambdas) < 3:
            lambdas.append(float(w[-1]) + 1.0 + len(lambdas))
        for idx, lam in enumerate(lambdas[:3]):
            ks, errors = sigmoid_limit_check(t, n=idx % 3, lam=lam, psi=psi)
            runs += 1
            if not errors[-1] <= SIGMOID_FINAL_TOL:
                failures += 1
            assert ks[-1] == math.ceil(40.0 / np.min(np.abs(w - lam)))
    _report(
        "criterion 7: sigmoid approximants converge to the spectral window",
        failures == 0 and runs == 75,
        f"{runs} (fixture, lambda) runs",
    )


def test_criterion_08_residue_closure(tmp_path):
    from modlab.contour import sigmoid_poles
    from modlab.report import CSV_COLUMNS, atomic_write_text, render_csv

    quad_tol = 1e-8
    rows = []
    worst = 0.0
    for m, n_factor in enumerate((2, 3)):
        fix = generate_fixture(AlgebraSpec.standard_factor(n_factor), seed=8000 + m, p_min=P_MIN)
        t = fix.triple
        rng = np.random.default_rng((8000, m))
        psi = rng.standard_normal(t.dim) + 1j * rng.standard_normal(t.dim)
        psi /= np.linalg.norm(psi)
        w = t.delta_spec.eigenvalues
        lam = float(w[-1]) + 1.0
        for n in (0, 1, 2):
            for k in (1, 2, 4, 8):
                [q] = contour_apply(t, [(n, k, None)], lam, psi)
                oracle = spectral_oracle(t, n, k, lam, psi)
                corrected = float(np.linalg.norm(q.corrected_value - oracle))
                uncorrected = float(np.linalg.norm(q.value - oracle))
                worst = max(worst, corrected)
                rows.append({
                    "seed": fix.seed, "model": fix.spec.label(),
                    "k": k, "n": n, "lambda": lam, "nodes": q.node_count,
                    "uncorrected_err": uncorrected, "corrected_err": corrected,
                    "pole_count": len(sigmoid_poles(k, lam)),
                    "pole_norm": float(np.linalg.norm(q.pole_correction)),
                })
    # the as-stated (uncorrected) discrepancy is tabulated, never asserted
    atomic_write_text(tmp_path / "contour_convergence.csv",
                      render_csv(CSV_COLUMNS["contour_convergence"], rows))
    _report(
        "criterion 8: residue-corrected quadrature matches the spectral oracle",
        worst <= 10 * quad_tol and len(rows) == 24,
        f"worst corrected residual {worst:.2e}; uncorrected tabulated in CSV",
    )


def test_criterion_09_growth_bound_audit(tmp_path):
    rows = []
    slopes = {}
    for i in range(25):
        spec = (AlgebraSpec.standard_factor(2), AlgebraSpec.standard_factor(3))[i % 2]
        fix = generate_fixture(spec, seed=9000 + i, p_min=P_MIN)
        rng = np.random.default_rng((9000, i))
        a = fix.triple.algebra
        src = a.element(rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim))
        for (l1, l2) in AUDIT_WINDOWS:
            ns, norms, bounds, pair = growth_audit(fix.triple, src, l1, l2)
            slopes.setdefault((l1, l2), []).append(pair)
            for n, bound, *measured in zip(ns.tolist(), bounds.tolist(), *norms.tolist()):
                for family, m in zip(("a", "a_prime"), measured):
                    rows.append({
                        "seed": fix.seed, "model": fix.spec.label(), "d": fix.spec.dim,
                        "lambda1": l1, "lambda2": l2, "n": n, "family": family,
                        "measured": m, "bound": bound,
                        "ratio": m / bound if bound > 0 else 0.0,
                        "pass": m <= bound * (1 + 1e-9),
                    })
    from modlab.report import render_csv, CSV_COLUMNS, atomic_write_text
    path = tmp_path / "tidy_bounds.csv"
    atomic_write_text(path, render_csv(CSV_COLUMNS["tidy_bounds"], rows))
    n_values = {r["n"] for r in rows}
    for (l1, l2), pairs in sorted(slopes.items()):
        sp = np.mean([p[0] for p in pairs])
        sn = np.mean([p[1] for p in pairs])
        print(f"  window ({l1}, {l2}): mean fitted slope +n {sp:.3f}, -n {sn:.3f}, "
              f"bound rate {0.5 * math.log(l2 ** 2 + 4 * math.pi ** 2):.3f}")
    _report(
        "criterion 9: growth-bound audit table",
        len(rows) >= 500 and n_values == set(range(-6, 7)) and path.exists(),
        f"{len(rows)} rows across {len(slopes)} windows",
    )


def test_criterion_10_determinism(tmp_path):
    config = RunConfig(seed=31415, models=("standard_factor(2)",), trials=2,
                       suites=("modular", "tidy"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        emit(run_suites(config), out)
    text_a = (out_a / "report.json").read_text()
    text_b = (out_b / "report.json").read_text()
    strip = re.compile(r'"environment": \{[^}]*\},?\n(\s*)')
    assert strip.search(text_a) and strip.search(text_b)
    same_bytes = strip.sub(r"\1", text_a) == strip.sub(r"\1", text_b)
    same_csv = (out_a / "tidy_bounds.csv").read_bytes() == (out_b / "tidy_bounds.csv").read_bytes()
    # exit semantics: a clean report maps to exit code 0 through the CLI path
    report = run_suites(config)
    code_ok = report.must_pass_ok
    _report(
        "criterion 10: byte-identical reports modulo the environment stamp",
        same_bytes and same_csv and code_ok,
        "report.json and tidy_bounds.csv stable",
    )
