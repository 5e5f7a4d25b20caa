"""Command-line experiment runner.

Subcommands:

- ``verify``: run the verification suites over seeded fixtures and emit
  report.json plus the CSV audit tables.
- ``audit-tidy-bound``: growth-bound audit only, with per-window slope
  summary on stdout.
- ``contour-study``: contour-quadrature convergence study only.
- ``fixture``: generate one fixture and write its JSON snapshot.
- ``diff-report A B``: compare two reports check by check (each argument is
  a report.json or a directory holding one), and when both are directories
  their audit CSVs row by row; exit 1 when a check id, a status, a CSV row
  count or a CSV key cell differs, 0 otherwise.

``verify``, ``audit-tidy-bound`` and ``contour-study`` each write report.json
and every audit table's CSV (an empty one as its header alone) into ``--out``.

Exit codes: 0 when every must-pass check passes, 1 when one fails, and 2
for bad arguments, which are rejected before any fixture is built.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .fixtures import AlgebraSpec, generate_fixture, parse_spec, save_fixture
from .report import diff_reports, diff_tables, emit
from .suites import ALL_SUITES, DEFAULT_MODELS, RunConfig, run_suites


def _model_labels(args) -> tuple[str, ...]:
    if args.model is None:
        return DEFAULT_MODELS
    n = args.factor_size
    if args.model == "standard":
        return (AlgebraSpec.standard_factor(n).label(),)
    if args.model == "abelian":
        return (AlgebraSpec.maximal_abelian(n).label(),)
    return (AlgebraSpec.direct_sum([(n, n), (1, 1)]).label(),)  # "direct-sum"


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=RunConfig.seed, help="base seed for all draws")
    p.add_argument("--model", choices=["standard", "abelian", "direct-sum"],
                   default=None, help="fixture model (default: both standard factors)")
    p.add_argument("--factor-size", type=int, default=2,
                   help="block size n (standard/direct-sum) or dimension (abelian)")
    p.add_argument("--trials", type=int, default=RunConfig.trials, help="fixtures per model")
    p.add_argument("--pmin", type=float, default=RunConfig.p_min,
                   help="floor on Schmidt weights (conditioning cap)")
    p.add_argument("--out", default="out", help="output directory")


def _config(args) -> RunConfig:
    return RunConfig(
        seed=args.seed,
        models=_model_labels(args),
        trials=args.trials,
        p_min=args.pmin,
        suites=tuple(args.suite) if args.suite else ALL_SUITES,
    )


def _residual(c, spec: str) -> str:
    """A record's largest finite residual, or "none" when no sample was finite."""
    return "none" if c.max_residual is None else format(c.max_residual, spec)


def _print_report(report) -> None:
    for c in report.checks:
        print(f"{c.status:5s}  {c.id:40s} max_residual={_residual(c, '.3e')} "
              f"tolerance={c.tolerance:.3e} samples={c.samples} nonfinite={c.nonfinite}")
    s = report.summary
    print(f"summary: {s['pass']} pass, {s['fail']} fail, {s['audit']} audit")


def cmd_verify(args) -> int:
    report = run_suites(args.config)
    paths = emit(report, args.out)
    _print_report(report)
    print(f"wrote {paths['report']}")
    return 0 if report.must_pass_ok else 1


def cmd_audit_tidy_bound(args) -> int:
    report = run_suites(args.config)
    emit(report, args.out)
    for c in report.checks:
        if c.id.startswith("tidy/growth-slope"):
            print(f"{c.id}: fitted slope {_residual(c, '.4f')} vs bound rate {c.tolerance:.4f}")
    rows = report.rows["tidy_bounds"]
    violations = sum(1 for r in rows if not r["pass"])
    print(f"{len(rows)} audit rows, {violations} above the closed-form bound")
    return 0 if report.must_pass_ok else 1


def cmd_contour_study(args) -> int:
    report = run_suites(args.config)
    emit(report, args.out)
    _print_report(report)
    print(f"{len(report.rows['contour_convergence'])} convergence rows")
    return 0 if report.must_pass_ok else 1


def cmd_fixture(args) -> int:
    spec = parse_spec(args.config.models[0])
    fix = generate_fixture(spec, args.seed, p_min=args.pmin)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"fixture_{spec.label()}_{args.seed}.json")
    save_fixture(fix, path)
    print(f"wrote {path} (d={spec.dim}, kappa={fix.triple.kappa:.3f})")
    return 0


def _load_report(path: str) -> dict:
    if os.path.isdir(path):
        path = os.path.join(path, "report.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cmd_diff_report(args) -> int:
    try:
        a, b = _load_report(args.a), _load_report(args.b)
        lines, breaking = diff_reports(a, b)
        tables, tables_breaking = (diff_tables(args.a, args.b)
                                   if os.path.isdir(args.a) and os.path.isdir(args.b)
                                   else ([], False))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"modlab diff-report: cannot compare: {exc!r}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    ids = {c["id"] for c in a["checks"]} | {c["id"] for c in b["checks"]}
    print(f"{len(ids)} check ids, {len(lines)} differ"
          f"{'; ids or statuses differ' if breaking else ''}")
    for line in tables:
        print(line)
    return 1 if breaking or tables_breaking else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modlab",
        description="Verification lab for modular theory on finite-dimensional algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites and emit reports")
    _add_common(p_verify)
    p_verify.add_argument("--suite", action="append", choices=list(ALL_SUITES),
                          help="restrict to a suite (repeatable)")
    p_verify.set_defaults(func=cmd_verify)

    p_tidy = sub.add_parser("audit-tidy-bound", help="growth-bound audit with slope summary")
    _add_common(p_tidy)
    p_tidy.set_defaults(func=cmd_audit_tidy_bound, suite=["tidy"])

    p_contour = sub.add_parser("contour-study", help="contour quadrature convergence study")
    _add_common(p_contour)
    p_contour.set_defaults(func=cmd_contour_study, suite=["contour"])

    p_fix = sub.add_parser("fixture", help="generate and serialize one fixture")
    _add_common(p_fix)
    p_fix.set_defaults(func=cmd_fixture, suite=None)

    p_diff = sub.add_parser("diff-report", help="compare two reports check by check")
    p_diff.add_argument("a", help="report.json, or the directory holding it")
    p_diff.add_argument("b", help="report.json, or the directory holding it")
    p_diff.set_defaults(func=cmd_diff_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "diff-report":
        try:
            args.config = _config(args)
        except ValueError as exc:
            parser.error(str(exc))
    code = args.func(args)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
