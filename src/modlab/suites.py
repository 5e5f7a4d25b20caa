"""Verification suites: seeded ensembles of checks over generated fixtures.

Each suite folds its measurements into uniquely-identified check records
(see :mod:`modlab.report`). Must-pass identities record status pass/fail;
quantities whose validity is deliberately left open (growth-bound ratios,
role-swapped transfer, uncorrected contour discrepancies) are recorded with
status ``audit`` and never fail a run.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import contour as ct
from . import tidy as td
from .algebra import commutant, membership_residual, mutual_projection_residual
from .fixtures import Fixture, covering_windows, generate_fixture, parse_spec
from .flow import analytic_flow, commutator_ratio, strip_growth_scan, tomita_check
from .linalg import complex_power, frob, opnorm_stack, rel_residual
from .linalg import opnorm  # noqa: F401  perfbench's tracer tests call modlab.suites.opnorm
from .report import CheckSet, VerificationReport, environment_stamp

DEFAULT_MODELS = ("standard_factor(2)", "standard_factor(3)")
AUDIT_WINDOWS = ((0.3, 0.9), (0.9, 1.5), (1.5, 2.5))
FLOW_TIMES = (0.3, -0.3, 1.0, -1.0, math.pi, -math.pi, 10.0, -10.0)
RANDOM_ELEMENTS = 100  # random elements per side beyond the basis in the S and S* checks
LADDER_RANGE = 3  # ladder identities are checked for n = -LADDER_RANGE..LADDER_RANGE
RESOLVENT_SAMPLES = 8  # off-axis points per fixture and role
TOL_BASE = 1e-9  # residual tolerance per unit of dimension at kappa = 1


def kappa_tol(t, p):
    """TOL_BASE kappa^((|p| + 1) / 2) d, the tolerance of an identity whose sides
    differ by p powers of Delta; p is a number or an array of them."""
    return TOL_BASE * t.kappa ** ((np.abs(p) + 1) / 2.0) * t.dim


def _fixture_seed(base_seed: int, model_idx: int, trial: int) -> int:
    ss = np.random.SeedSequence((base_seed, model_idx, trial))
    return int(ss.generate_state(1)[0])


def _rng(base_seed: int, model_idx: int, trial: int, tag: int) -> np.random.Generator:
    return np.random.default_rng((base_seed, model_idx, trial, tag))


def _random_element(subspace, rng) -> np.ndarray:
    c = rng.standard_normal(subspace.dim) + 1j * rng.standard_normal(subspace.dim)
    m = subspace.element(c)
    return m / frob(m)


def _random_unit_vector(d: int, rng) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# modular suite
# ---------------------------------------------------------------------------


def _unit_rows(g: np.ndarray) -> np.ndarray:
    """Rows g[:, 0] + i g[:, 1] of a (n, 2, k) draw, each scaled to unit norm."""
    v = g[:, 0] + 1j * g[:, 1]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _adjoint_orbit_residuals(space, s, omega, rng) -> np.ndarray:
    """rel_residual(s(x omega), x* omega) for each basis element x of the space,
    then for RANDOM_ELEMENTS random unit elements.

    The (n, 2, k) draw is the stream of n sequential pairs of k-draws, so the
    random elements are those of one ``_random_element`` call per sample; the
    basis being orthonormal, unit coefficients give unit elements.
    """
    coeffs = _unit_rows(rng.standard_normal((RANDOM_ELEMENTS, 2, space.dim)))
    xs = np.concatenate([space.basis, space.element(coeffs)])
    lhs = s((xs @ omega).T).T
    rhs = xs.conj().transpose(0, 2, 1) @ omega
    scale = np.maximum(np.maximum(np.linalg.norm(lhs, axis=1), np.linalg.norm(rhs, axis=1)), 1.0)
    return np.linalg.norm(lhs - rhs, axis=1) / scale


def run_modular_suite(fix: Fixture, rng, checks: CheckSet) -> None:
    t = fix.triple
    d = t.dim
    tol = kappa_tol(t, 0)
    omega = t.omega

    checks.add("modular/s-on-algebra", "S(a omega) = a* omega on the algebra",
               _adjoint_orbit_residuals(t.algebra, t.s, omega, rng), tol)
    checks.add("modular/s-star-on-commutant", "S*(a' omega) = a'* omega on the commutant",
               _adjoint_orbit_residuals(t.commutant, t.s_star, omega, rng), tol)

    fixed = [np.linalg.norm(m - omega) for m in (t.s(omega), t.j(omega), t.delta @ omega)]
    checks.add("modular/fixed-vector", "S omega = J omega = Delta omega = omega", fixed, tol)

    sqrt_d = complex_power(t.delta_spec, 0.5)
    inv_sqrt_d = complex_power(t.delta_spec, -0.5)
    checks.add(
        "modular/polar-s", "S = J Delta^(1/2)",
        rel_residual(t.s.matrix, t.j.compose_linear(sqrt_d).matrix), tol,
    )
    checks.add(
        "modular/polar-s-star", "S* = J Delta^(-1/2)",
        rel_residual(t.s_star.matrix, t.j.compose_linear(inv_sqrt_d).matrix), tol,
    )
    # J Delta J as a linear map: J o (Delta o J), matrix M_J conj(Delta M_J)
    jdj = t.j.matrix @ np.conj(t.delta @ t.j.matrix)
    checks.add(
        "modular/conjugation-inverts-delta", "J Delta J = Delta^(-1)",
        rel_residual(jdj, complex_power(t.delta_spec, -1.0)), tol,
    )
    eye = np.eye(d)
    checks.add("modular/j-involution", "J o J = identity",
               rel_residual(t.j.compose(t.j), eye), tol)
    checks.add("modular/s-involution", "S o S = identity",
               rel_residual(t.s.compose(t.s), eye), tol)

    # one (100, 4, d) draw is the stream of 100 sequential (psi, phi) pairs
    g = rng.standard_normal((100, 4, d))
    psi, phi = _unit_rows(g[:, :2]), _unit_rows(g[:, 2:])
    lhs = np.sum(t.j(psi.T).conj() * t.j(phi.T), axis=0)
    rhs = np.sum(phi.conj() * psi, axis=1)
    checks.add("modular/j-antiunitary", "<J psi, J phi> = <phi, psi>",
               np.abs(lhs - rhs), 1e-10 * d)

    w = np.sort(t.delta_spec.eigenvalues)
    checks.add("modular/spectrum-inversion-symmetry", "spec(Delta) invariant under x -> 1/x",
               np.abs(w - np.sort(1.0 / w)) / np.maximum(w, 1e-30), 1e-9)

    checks.add(
        "modular/closed-form-delta",
        "Delta equals rho (x) conj(rho)^(-1) blockwise",
        rel_residual(t.delta, fix.closed_form_delta()), 1e-10,
    )


# ---------------------------------------------------------------------------
# flow suite
# ---------------------------------------------------------------------------


def run_flow_suite(fix: Fixture, rng, checks: CheckSet) -> None:
    t = fix.triple
    d = t.dim
    tol = kappa_tol(t, 0)

    membership, commutator = tomita_check(t, t.algebra.basis, FLOW_TIMES)  # a-major, then t
    checks.add("flow/membership",
               "Delta^(-it) a Delta^(it) stays in the algebra", membership, tol)
    checks.add("flow/commutant-commutators",
               "[Delta^(-it) a Delta^(it), b'] = 0", commutator, tol)

    x = _random_element(t.algebra, rng)
    s, u = 0.4, -1.7
    lhs = analytic_flow(t, analytic_flow(t, x, 1j * s), 1j * u)
    rhs = analytic_flow(t, x, 1j * (s + u))
    checks.add("flow/group-law", "flow(s) then flow(t) equals flow(s+t)",
               rel_residual(lhs, rhs), 1e-10 * d)

    state = np.vdot(t.omega, x @ t.omega)
    checks.add("flow/fixes-state", "<omega, g(x,t) omega> = <omega, x omega>",
               [abs(np.vdot(t.omega, g @ t.omega) - state)
                for g in analytic_flow(t, x, 1j * np.array([0.3, 2.0, -5.0]))], 1e-10 * d)

    windows = covering_windows(t)
    source = _random_element(t.algebra, rng)
    w0 = windows[int(rng.integers(len(windows)))]
    tidy0 = td.make_tidy(t, source, w0[0], w0[1])

    # one row of norms per vertical line: a zero line is skipped, and a
    # fixture whose every line is skipped adds one 0; a NaN norm is not
    # skipped, so it reaches the record
    spreads = [np.ptp(norms) / norms[0] for norms in strip_growth_scan(t, tidy0.a)
               if not norms[0] <= 1e-300]
    checks.add("flow/strip-constancy", "|Delta^(-z) a Delta^z| constant along vertical lines",
               spreads or 0.0, 1e-10 * d)

    # seven integer samples n = 0..6, then six drawn from the plane, in one stack
    zs = [float(n) for n in range(7)] + [complex(rng.uniform(-4, 4), rng.uniform(-5, 5))
                                         for _ in range(6)]
    samples = analytic_flow(t, tidy0.a, zs)
    ladders = td.ladder(t, t.orbit, tidy0, [-1, -2, -3])
    checks.add("flow/integer-ladder-match",
               "Delta^(-n) a Delta^n equals the ladder solve",
               [rel_residual(f_n, lad) for f_n, lad in zip(samples[1:4], ladders)],
               kappa_tol(t, np.arange(1, 4)))

    ratios = commutator_ratio(samples, opnorm_stack(samples), t.commutant.basis,
                              t.commutant_norms)
    checks.add("flow/integer-commutators",
               "[Delta^(-n) a Delta^n, b'] = 0 for n = 0..6",
               ratios[:7], kappa_tol(t, np.arange(7)))

    checks.add("flow/analytic-commutators",
               "[Delta^(-z) a Delta^z, b'] = 0 across the sampled plane",
               ratios[7:], kappa_tol(t, np.real(zs[7:])))


# ---------------------------------------------------------------------------
# tidy suite
# ---------------------------------------------------------------------------


def run_tidy_suite(fix: Fixture, rng, checks: CheckSet) -> None:
    t = fix.triple
    d = t.dim
    tol = kappa_tol(t, 0)
    windows = covering_windows(t)

    source = _random_element(t.algebra, rng)
    w0 = windows[int(rng.integers(len(windows)))]
    tidy0 = td.make_tidy(t, source, w0[0], w0[1])

    checks.add("tidy/pair-vector-agreement", "a omega = a' omega = windowed vector",
               [rel_residual(x @ t.omega, tidy0.vector) for x in (tidy0.a, tidy0.a_prime)], tol)
    checks.add("tidy/membership", "tidy solves land in their algebras",
               [membership_residual(tidy0.a, t.algebra),
                membership_residual(tidy0.a_prime, t.commutant)], TOL_BASE * d)

    a = _random_element(t.algebra, rng)
    round_trip = rel_residual(t.orbit.solve(a @ t.omega), a)
    checks.add("tidy/solve-roundtrip",
               "Orbit.solve inverts a -> a omega", round_trip, 1e-10 * math.sqrt(t.kappa) * d)

    # a_n and a'_(n+1) of tidy0, solved once for both ladder identities
    ns = np.arange(-LADDER_RANGE, LADDER_RANGE + 1)
    a_n = td.ladder(t, t.orbit, tidy0, ns)
    residuals, scales = td.dagger_ladder_check(
        t, tidy0, a_n, td.ladder(t, t.commutant_orbit, tidy0, ns + 1))
    checks.add("tidy/dagger-ladder", "(a'_(n+1))* omega = (a_n)* omega",
               residuals, tol * scales)

    w1 = windows[int(rng.integers(len(windows)))]
    tidy_b = td.make_tidy(t, _random_element(t.algebra, rng), w1[0], w1[1])
    residuals, scales = td.powers_check(t, tidy0, tidy_b, ns, a_n)
    checks.add("tidy/power-conjugation", "Delta^n a Delta^(-n) b omega = a_n b omega",
               residuals, kappa_tol(t, ns) * scales)

    for (l1, l2) in AUDIT_WINDOWS:
        ns, norms, bounds, (slope_pos, slope_neg) = td.growth_audit(t, source, l1, l2)
        # an empty window (0 measured against a 0 bound) reads 0; any other
        # non-finite ratio is a broken sample, which fails the record
        ratios = np.divide(norms, bounds, where=bounds > 0,
                           out=np.where((norms == 0) & (bounds == 0), 0.0, math.inf))
        passed = norms <= bounds * (1.0 + 1e-9)
        for i, n in enumerate(ns.tolist()):
            for f, family in enumerate(("a", "a_prime")):
                checks.rows["tidy_bounds"].append({
                    "seed": fix.seed, "model": fix.spec.label(), "d": d, "lambda1": l1,
                    "lambda2": l2, "n": n, "family": family, "measured": float(norms[f, i]),
                    "bound": float(bounds[i]), "ratio": float(ratios[f, i]),
                    "pass": bool(passed[f, i]),
                })
        checks.add("tidy/growth-bound", "ladder norms vs closed-form exponential bound",
                   ratios.T, 1.0, audit=True)  # n-major, as the rows
        checks.add(f"tidy/growth-slope[{l1:g},{l2:g}]",
                   "fitted log-growth rate vs bound rate (n >= 0)",
                   slope_pos, 0.5 * math.log(l2**2 + 4 * math.pi**2), audit=True)
        checks.add(f"tidy/growth-slope-neg[{l1:g},{l2:g}]",
                   "fitted log-growth rate vs mirrored bound rate (n <= 0)",
                   slope_neg, 0.5 * math.log(1.0 / l1**2 + 4 * math.pi**2), audit=True)


# ---------------------------------------------------------------------------
# resolvent suite
# ---------------------------------------------------------------------------


def _draw_offaxis_z(rng, w) -> complex:
    lo = 0.25 * float(w[0])
    hi = 4.0 * float(w[-1])
    for _ in range(64):
        r = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        theta = rng.uniform(0.05, 2 * math.pi - 0.05)
        z = r * complex(math.cos(theta), math.sin(theta))
        # td.axis_gap in scalar arithmetic: |z| - Re z without cancellation
        gap = z.imag ** 2 / (abs(z) + z.real) if z.real > 0 else abs(z) - z.real
        if gap > 1e-5 and np.min(np.abs(z - w)) > 1e-5:
            return z
    raise RuntimeError("could not draw an off-axis resolvent point")


def run_resolvent_suite(fix: Fixture, rng, checks: CheckSet) -> None:
    t = fix.triple
    w = t.delta_spec.eigenvalues
    # per sample, in stream order: z, a' in A', a in A, then z2 for the mirror
    draws = [(_draw_offaxis_z(rng, w), _random_element(t.commutant, rng),
              _random_element(t.algebra, rng), _draw_offaxis_z(rng, 1.0 / w[::-1]))
             for _ in range(RESOLVENT_SAMPLES)]
    zs, sources, mirror_sources, mirror_zs = (np.array(x) for x in zip(*draws))
    transfer = td.resolvent_transfer(t, sources, zs)
    mirror = td.resolvent_transfer(t, mirror_sources, mirror_zs, mirror=True)
    # 1e-9 relative slack absorbs floating error in the norm measurement;
    # the bound itself is an exact inequality (equality at z = -1, Delta = 1)
    checks.add("resolvent/transfer-bound", "|a| <= |a'| / sqrt(2 (|z| - Re z))",
               transfer.measured_norm / transfer.bound, 1.0 + 1e-9)
    checks.add("resolvent/transfer-bound-mirrored",
               "role-swapped transfer (source in A, modular operator inverted)",
               mirror.measured_norm / mirror.bound, 1.0 + 1e-9, audit=True)


# ---------------------------------------------------------------------------
# density suite
# ---------------------------------------------------------------------------


def run_density_suite(fix: Fixture, rng, checks: CheckSet) -> None:
    t = fix.triple
    windows = covering_windows(t)

    span = td.tidy_span_check(t, windows)
    checks.add("density/tidy-span", "covering-window tidy vectors span H",
               float(t.dim - span), 0.5)

    res = td.tidy_bicommutant_check(t, windows)
    checks.add("density/tidy-bicommutant", "(tidy set)'' = A", res, 1e-9)

    # A' is already the fixture's commutant(A), so A'' = commutant(A') serves both checks
    double = commutant(t.commutant)
    checks.add("density/algebra-bicommutant", "A'' = A",
               mutual_projection_residual(double, t.algebra), 1e-9)
    checks.add("density/commutant-triple", "A''' = A'",
               mutual_projection_residual(commutant(double), t.commutant), 1e-9)


# ---------------------------------------------------------------------------
# contour suite
# ---------------------------------------------------------------------------


def _spectrum_avoiding_lambdas(t):
    w = t.delta_spec.eigenvalues
    candidates = []
    for x, y in zip(w[:-1], w[1:]):
        if y > x * (1 + 1e-9):
            g = float(np.sqrt(x * y))
            if np.min(np.abs(w - g)) >= ct.LAMBDA_GAP:
                candidates.append(g)
    below = float(w[0]) / 2.0
    if np.min(np.abs(w - below)) >= ct.LAMBDA_GAP:
        candidates.append(below)
    k = 1.0
    while len(candidates) < 3:
        candidates.append(float(w[-1]) + k)
        k += 1.0
    return candidates[:3]


def run_contour_suite(fix: Fixture, rng, checks: CheckSet) -> None:
    t = fix.triple
    d = t.dim
    lambdas = _spectrum_avoiding_lambdas(t)
    lam = lambdas[0]
    psi = _random_unit_vector(d, rng)

    # the twelve (n, k) integrals, then the truncation pair, as one family; the
    # first of the pair repeats the (0, 1) integral and is evaluated once
    pairs = [(n, k) for n in (0, 1, 2) for k in (1, 2, 4, 8)]
    base = ct.choose_contour(t, 0, 1, lam)
    *results, r1, r2 = ct.contour_apply(
        t, [(n, k, None) for n, k in pairs] + [(0, 1, base), (0, 1, 2 * base)], lam, psi)

    for (n, k), result in zip(pairs, results):
        if isinstance(result, ct.ContourError):
            # node cap exhausted or an argument refused: failed samples, no row
            corrected = uncorrected = math.nan
        else:
            oracle = ct.spectral_oracle(t, n, k, lam, psi)
            corrected = float(np.linalg.norm(result.corrected_value - oracle))
            uncorrected = float(np.linalg.norm(result.value - oracle))
            checks.rows["contour_convergence"].append({
                "seed": fix.seed,
                "model": fix.spec.label(),
                "k": k,
                "n": n,
                "lambda": lam,
                "nodes": result.node_count,
                "uncorrected_err": uncorrected,
                "corrected_err": corrected,
                "pole_count": 2 * k,
                "pole_norm": float(np.linalg.norm(result.pole_correction)),
            })
        checks.add("contour/residue-closure",
                   "quadrature = spectral oracle + pole sum",
                   corrected, 10 * ct.QUAD_TOL)
        checks.add("contour/uncorrected-discrepancy",
                   "quadrature vs oracle without pole correction",
                   uncorrected, 10 * ct.QUAD_TOL, audit=True)

    # convergence order on one fixed pair of resolutions
    n, k = 1, 2
    trunc = ct.choose_contour(t, n, k, lam)
    target = ct.spectral_oracle(t, n, k, lam, psi) + ct.pole_sum(t, n, k, lam, psi)
    n_line = max(8, int(trunc * 2))
    coarse = ct.contour_quadrature_fixed(t, n, k, lam, psi, trunc, n_line, 32)
    fine = ct.contour_quadrature_fixed(t, n, k, lam, psi, trunc, 2 * n_line, 64)
    d1 = float(np.linalg.norm(coarse - target))
    d2 = float(np.linalg.norm(fine - target))
    checks.add("contour/convergence-order", "halving nodes shrinks the closure defect by >= 3",
               0.0 if d1 <= 1e-12 else d2 / d1, 1.0 / 3.0)

    # truncation robustness
    failed = isinstance(r1, ct.ContourError) or isinstance(r2, ct.ContourError)
    moved = math.nan if failed else float(np.linalg.norm(r1.value - r2.value))
    checks.add("contour/truncation-robustness",
               "doubling the truncation moves the result by < quad_tol",
               moved, ct.QUAD_TOL)

    for idx, lam_i in enumerate(lambdas):
        _, errors = ct.sigmoid_limit_check(t, n=idx % 3, lam=lam_i, psi=psi)
        checks.add("contour/sigmoid-limit",
                   "Delta^n f_k(Delta) psi converges to the windowed vector",
                   errors[-1], ct.SIGMOID_FINAL_TOL)


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------

# name -> suite; a name's position is the tag that keys the suite's random
# stream, so each suite draws the same samples whichever suites run beside it
SUITES = {
    "modular": run_modular_suite,
    "flow": run_flow_suite,
    "tidy": run_tidy_suite,
    "resolvent": run_resolvent_suite,
    "density": run_density_suite,
    "contour": run_contour_suite,
}
ALL_SUITES = tuple(SUITES)


@dataclass(frozen=True)
class RunConfig:
    """Configuration of a verification run; fully determines the report body."""

    seed: int = 20260809
    models: tuple[str, ...] = DEFAULT_MODELS
    trials: int = 25
    p_min: float = 0.01
    suites: tuple[str, ...] = ALL_SUITES

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        unknown = set(self.suites) - set(ALL_SUITES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
        for label in self.models:
            parse_spec(label)
        dmax = max(parse_spec(label).dim for label in self.models)
        if not (0.0 < self.p_min <= 1.0 / dmax):
            raise ValueError(f"p_min must lie in (0, 1/d] = (0, {1.0 / dmax:.4f}]")

    def echo(self) -> dict:
        return {**asdict(self), "suites": sorted(self.suites)}


def run_suites(config: RunConfig) -> VerificationReport:
    """Execute the configured suites; the report carries the audit table rows."""
    checks = CheckSet()
    for model_idx, label in enumerate(config.models):
        spec = parse_spec(label)
        for trial in range(config.trials):
            fix = generate_fixture(spec, _fixture_seed(config.seed, model_idx, trial),
                                   p_min=config.p_min)
            for tag, name in enumerate(ALL_SUITES):
                if name in config.suites:
                    # looked up by module name, so a wrapper rebound there (such as
                    # perfbench's per-suite span) is the one that runs
                    suite = globals()[SUITES[name].__name__]
                    suite(fix, _rng(config.seed, model_idx, trial, tag), checks)
    return VerificationReport(
        config=config.echo(),
        checks=checks.records(),
        rows=checks.rows,
        environment=environment_stamp(),
    )
