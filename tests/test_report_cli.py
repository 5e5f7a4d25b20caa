import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modlab.cli import main
from modlab.report import (
    CSV_COLUMNS,
    CheckSet,
    VerificationReport,
    emit,
    format_number,
    render_csv,
)
from modlab.suites import RunConfig, run_suites

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_format_number_17_digits_round_trip():
    xs = [1.0, 1 / 3, 2.0 ** -52, 1.2339999999999999e-10, 9.87e300]
    for x in xs:
        s = format_number(x)
        assert float(s) == x


def test_format_number_writes_non_finite_cells():
    # a CSV cell may record a broken sample; report.json refuses one (below)
    assert [format_number(x) for x in (math.nan, math.inf, -math.inf)] == ["nan", "inf", "-inf"]
    assert format_number(np.float64(0.1)) == "0.10000000000000001"


def test_report_json_deterministic_and_parseable(tmp_path):
    xs = [1 / 3, 2.0 ** -52, 1.2339999999999999e-10, 9.87e300, 0.1]
    cs = CheckSet()
    for i, x in enumerate(xs):
        cs.add(f"x{i}", "r", x, 1.0)
    rep = VerificationReport(config={"tol_base": 1 / 7}, checks=cs.records(), rows=cs.rows)
    for name in ("a", "b"):
        emit(rep, tmp_path / name, tables=())
    text = (tmp_path / "a" / "report.json").read_text()
    assert text == (tmp_path / "b" / "report.json").read_text()
    doc = json.loads(text)
    assert doc["config"]["tol_base"] == 1 / 7
    assert [c["max_residual"] for c in doc["checks"]] == xs
    cs.add("y", "r", 1e-12, math.nan)  # a NaN tolerance cannot enter the file
    with pytest.raises(ValueError):
        emit(VerificationReport(config={}, checks=cs.records(), rows=cs.rows),
             tmp_path / "nan", tables=())
    assert not (tmp_path / "nan" / "report.json").exists()


def test_render_csv_columns_exact():
    rows = [{
        "seed": 1, "model": "standard_factor(2)", "d": 4,
        "lambda1": 0.3, "lambda2": 0.9, "n": -2, "family": "a_prime",
        "measured": 1.25, "bound": 2.5, "ratio": 0.5, "pass": True,
    }]
    text = render_csv(CSV_COLUMNS["tidy_bounds"], rows)
    lines = text.strip().split("\n")
    assert lines[0] == "seed,model,d,lambda1,lambda2,n,family,measured,bound,ratio,pass"
    assert lines[1].startswith("1,standard_factor(2),4,")
    assert ",-2,a_prime," in lines[1]
    assert lines[1].endswith(",true")


def test_checkset_merges_and_sorts():
    cs = CheckSet()
    cs.add("b/two", "second", 1e-12, 1e-9)
    cs.add("a/one", "first", 1e-12, 1e-9)
    cs.add("b/two", "second", 5e-10, 1e-9)
    cs.add("b/two", "second", 1e-13, 1e-9)
    recs = cs.records()
    assert [r.id for r in recs] == ["a/one", "b/two"]
    assert recs[1].samples == 3
    assert recs[1].max_residual == 5e-10
    assert recs[1].status == "pass"


def test_checkset_failure_sticks():
    cs = CheckSet()
    cs.add("x", "r", 1e-3, 1e-9)
    cs.add("x", "r", 1e-12, 1e-9)
    assert cs.records()[0].status == "fail"


def test_checkset_audit_never_fails():
    cs = CheckSet()
    cs.add("aud", "r", 5.0, 1.0, audit=True)
    assert cs.records()[0].status == "audit"


def test_nonfinite_first_sample_still_writes_a_report(tmp_path, monkeypatch, capsys):
    import modlab.cli as cli_mod

    def rigged(config):
        cs = CheckSet()
        cs.add("x", "r", float("nan"), 1e-9)
        cs.add("x", "r", float("inf"), 1e-9)
        return VerificationReport(config=config.echo(), checks=cs.records(), rows=cs.rows)

    monkeypatch.setattr(cli_mod, "run_suites", rigged)
    assert main(["verify", "--trials", "1", "--out", str(tmp_path)]) == 1
    assert "max_residual=none" in capsys.readouterr().out
    record = json.loads((tmp_path / "report.json").read_text())["checks"][0]
    assert record["status"] == "fail"
    assert record["nonfinite"] == 2 and record["samples"] == 2
    assert record["max_residual"] is None


def test_nonfinite_sample_after_finite_one_is_counted():
    cs = CheckSet()
    cs.add("x", "r", 1e-12, 1e-9)
    cs.add("x", "r", float("nan"), 1e-9)
    cs.add("x", "r", 3e-12, 2e-9)
    cs.add("aud", "r", 0.5, 1.0, audit=True)
    cs.add("aud", "r", float("nan"), 1.0, audit=True)
    rec, aud = cs.records()[1], cs.records()[0]
    assert rec.status == "fail" and rec.nonfinite == 1 and rec.samples == 3
    assert rec.max_residual == 3e-12 and rec.tolerance == 2e-9
    assert aud.status == "fail" and aud.nonfinite == 1 and aud.max_residual == 0.5


def test_report_must_pass_flag():
    cs = CheckSet()
    cs.add("ok", "r", 1e-12, 1e-9)
    rep = VerificationReport(config={}, checks=cs.records(), rows=cs.rows)
    assert rep.must_pass_ok
    cs.add("bad", "r", 1.0, 1e-9)
    rep = VerificationReport(config={}, checks=cs.records(), rows=cs.rows)
    assert not rep.must_pass_ok
    assert rep.summary["fail"] == 1


def test_emit_atomic_and_complete(tmp_path):
    cs = CheckSet()
    cs.add("ok", "r", 1e-12, 1e-9)
    rep = VerificationReport(config={"seed": 1}, checks=cs.records(), rows=cs.rows,
                             environment={"python": "x"})
    paths = emit(rep, tmp_path)
    assert os.path.exists(paths["report"])
    assert os.path.exists(paths["tidy_bounds"])
    assert os.path.exists(paths["contour_convergence"])
    doc = json.loads(Path(paths["report"]).read_text())
    assert doc["schema_version"] == "1"
    assert doc["summary"] == {"pass": 1, "fail": 0, "audit": 0}
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []


# ---------------------------------------------------------------------------
# run_suites on a small config
# ---------------------------------------------------------------------------


SMALL = RunConfig(
    seed=7,
    models=("standard_factor(2)",),
    trials=2,
    suites=("modular", "resolvent"),
)


def test_run_suites_small_all_pass():
    report = run_suites(SMALL)
    assert report.must_pass_ok
    ids = {c.id for c in report.checks}
    assert "modular/s-on-algebra" in ids
    assert "resolvent/transfer-bound" in ids
    assert report.rows == {"tidy_bounds": [], "contour_convergence": []}


def test_run_suites_deterministic_body():
    r1, r2 = run_suites(SMALL), run_suites(SMALL)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("environment")
    d2.pop("environment")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(trials=0)
    with pytest.raises(ValueError):
        RunConfig(suites=("bogus",))
    with pytest.raises(ValueError):
        RunConfig(p_min=0.5, models=("standard_factor(3)",))
    # a block whose multiplicity differs from its size has no cyclic-separating
    # vector; the run is refused up front instead of dying without a report
    with pytest.raises(ValueError):
        RunConfig(models=("direct_sum(2:3)",))


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


def test_cli_fixture_writes_json(tmp_path):
    code = main(["fixture", "--model", "standard", "--factor-size", "2",
                 "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    path = tmp_path / "fixture_standard_factor(2)_3.json"
    assert path.exists()
    doc = json.loads(path.read_text())
    assert doc["dim"] == 4


def test_cli_verify_small_run(tmp_path, capsys):
    code = main(["verify", "--model", "abelian", "--factor-size", "4",
                 "--trials", "1", "--seed", "5", "--out", str(tmp_path),
                 "--suite", "modular", "--suite", "density"])
    assert code == 0
    out = capsys.readouterr().out
    assert "summary:" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["summary"]["fail"] == 0
    assert {c["id"] for c in report["checks"]} >= {"modular/fixed-vector", "density/tidy-span"}


def test_cli_report_body_independent_of_out_dir(tmp_path):
    strip = re.compile(r'"environment": \{[^}]*\},?\n(\s*)')
    bodies = []
    for name in ("a", "b"):
        code = main(["verify", "--model", "abelian", "--factor-size", "3", "--trials", "1",
                     "--seed", "4", "--out", str(tmp_path / name), "--suite", "modular"])
        assert code == 0
        text = (tmp_path / name / "report.json").read_text()
        assert strip.search(text)
        bodies.append(strip.sub(r"\1", text))
    assert bodies[0] == bodies[1]


def _child_env(**extra) -> dict:
    """Environment of a ``python -m modlab.cli`` child: src/ on its path, as
    pyproject.toml puts it on pytest's."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def test_cli_exit_code_via_subprocess(tmp_path):
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "modlab.cli", "verify", "--model", "abelian",
         "--factor-size", "3", "--trials", "1", "--seed", "2",
         "--out", str(tmp_path), "--suite", "modular"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("bad", [
    ("--trials", "0"),
    ("--pmin", "0.5"),
    ("--model", "standard", "--factor-size", "0"),
], ids=["trials-0", "pmin-0.5", "factor-size-0"])
@pytest.mark.parametrize("command", ["verify", "audit-tidy-bound", "contour-study", "fixture"])
def test_cli_bad_arguments_exit_2_without_output(tmp_path, capsys, command, bad):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, *bad, "--out", str(out)])
    assert exc.value.code == 2
    assert not (out / "report.json").exists()
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("modlab: error: ")


def test_cli_audit_tidy_bound_subcommand(tmp_path, capsys):
    code = main(["audit-tidy-bound", "--model", "standard", "--factor-size", "2",
                 "--trials", "1", "--seed", "11", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "fitted slope" in out
    lines = (tmp_path / "tidy_bounds.csv").read_text().strip().split("\n")
    assert lines[0] == "seed,model,d,lambda1,lambda2,n,family,measured,bound,ratio,pass"
    assert len(lines) > 1
    # each (window, n) has one algebra-side and one commutant-side row
    keys = [tuple(line.split(",")[:7]) for line in lines[1:]]
    assert len(set(keys)) == len(keys)
    assert {key[6] for key in keys} == {"a", "a_prime"}


def test_cli_contour_study_subcommand(tmp_path):
    code = main(["contour-study", "--model", "standard", "--factor-size", "2",
                 "--trials", "1", "--seed", "12", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "contour_convergence.csv").read_text().strip().split("\n")
    assert lines[0] == ("seed,model,k,n,lambda,nodes,uncorrected_err,corrected_err,"
                        "pole_count,pole_norm")
    assert len(lines) == 1 + 12  # n in {0,1,2} x k in {1,2,4,8}


def test_contour_error_becomes_a_fail_record(tmp_path, monkeypatch):
    # an exhausted node cap inside the contour suite fails the record and
    # still writes the report, instead of ending the run with a traceback
    from modlab import contour

    monkeypatch.setattr(contour, "NODE_CAP", 16)
    code = main(["verify", "--model", "standard", "--factor-size", "2", "--trials", "1",
                 "--suite", "contour", "--out", str(tmp_path)])
    assert code == 1
    checks = {c["id"]: c for c in json.loads((tmp_path / "report.json").read_text())["checks"]}
    closure = checks["contour/residue-closure"]
    assert closure["status"] == "fail" and closure["nonfinite"] == closure["samples"] == 12
    assert checks["contour/uncorrected-discrepancy"]["nonfinite"] == 12
    assert checks["contour/truncation-robustness"]["status"] == "fail"
    lines = (tmp_path / "contour_convergence.csv").read_text().strip().split("\n")
    assert len(lines) == 1  # header only: a failed call writes no row


def _nan_power(monkeypatch, module, at, first_call_only=False):
    """Replace module.complex_power by one whose power at the exponent ``at``,
    wherever it sits in the exponent array, has a NaN entry: in every call,
    or only in the first call that holds it."""
    power = module.complex_power
    hits = []

    def rigged(dec, z):
        p = power(dec, z)
        hit = np.asarray(z) == at
        if np.any(hit) and not (first_call_only and hits):
            hits.append(z)
            p[hit, 0, 0] = np.nan
        return p

    monkeypatch.setattr(module, "complex_power", rigged)


def test_nan_flowed_operator_fails_the_flow_records(tmp_path, monkeypatch):
    # the NaN reaches opnorm's SVD, which cannot converge; the run records
    # failed samples and writes its report instead of ending in a traceback
    from modlab import flow

    # Delta^(-10i) is the left factor of the flow at t = 10 and the right one at
    # t = -10; the first call that holds it is the left factors' of tomita_check
    _nan_power(monkeypatch, flow, -10j, first_call_only=True)
    code = main(["verify", "--model", "standard", "--factor-size", "2", "--trials", "1",
                 "--suite", "flow", "--out", str(tmp_path)])
    assert code == 1
    checks = {c["id"]: c for c in json.loads((tmp_path / "report.json").read_text())["checks"]}
    for cid in ("flow/membership", "flow/commutant-commutators"):
        # one NaN sample per algebra basis element, at the one time t = 10
        assert checks[cid]["status"] == "fail" and checks[cid]["nonfinite"] == 4, cid
    assert checks["flow/group-law"]["status"] == "pass"


def test_nan_ladder_norm_fails_the_growth_audit(tmp_path, monkeypatch):
    import csv

    from modlab import tidy

    _nan_power(monkeypatch, tidy, 2)  # Delta^2, the ladder's power at n = 2
    code = main(["verify", "--model", "standard", "--factor-size", "2", "--trials", "1",
                 "--suite", "tidy", "--out", str(tmp_path)])
    assert code == 1
    checks = {c["id"]: c for c in json.loads((tmp_path / "report.json").read_text())["checks"]}
    assert checks["tidy/growth-bound"]["status"] == "fail"
    assert checks["tidy/growth-bound"]["nonfinite"] >= 1
    slopes = [cid for cid in checks if cid.startswith("tidy/growth-slope[")]
    assert len(slopes) == 3
    for cid in slopes:  # each fit takes the n = 2 algebra-side norm
        assert checks[cid]["status"] == "fail" and checks[cid]["nonfinite"] == 1, cid
    with open(tmp_path / "tidy_bounds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    broken = [r for r in rows if r["measured"] == "nan"]
    assert broken and all(r["n"] == "2" for r in broken)
    assert not any(math.isfinite(float(r["ratio"])) for r in broken)


@pytest.mark.parametrize("command, files", [
    (["verify", "--suite", "modular"],
     {"report.json", "tidy_bounds.csv", "contour_convergence.csv"}),
    (["audit-tidy-bound"], {"report.json", "tidy_bounds.csv"}),
    (["contour-study"], {"report.json", "contour_convergence.csv"}),
], ids=["verify", "audit-tidy-bound", "contour-study"])
def test_cli_run_commands_write_their_file_sets(tmp_path, command, files):
    assert main([*command, "--model", "standard", "--factor-size", "2", "--trials", "1",
                 "--out", str(tmp_path)]) == 0
    assert set(os.listdir(tmp_path)) == files


def test_cli_contour_rows_name_their_fixture(tmp_path):
    import csv

    from modlab.suites import _fixture_seed

    code = main(["verify", "--model", "direct-sum", "--factor-size", "2", "--trials", "2",
                 "--seed", "13", "--suite", "contour", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "contour_convergence.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    seeds = [str(_fixture_seed(13, 0, trial)) for trial in range(2)]
    assert [r["seed"] for r in rows] == [seeds[0]] * 12 + [seeds[1]] * 12
    assert {r["model"] for r in rows} == {"direct_sum(2:2,1:1)"}


def test_report_body_identical_across_processes(tmp_path):
    # two fresh interpreters with different hash seeds and identical
    # configuration must produce the same report body (everything except the
    # environment stamp); the second run overwrites the first atomically
    bodies = []
    out = tmp_path / "out"
    for hashseed in ("1", "977"):
        env = _child_env(PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, "-m", "modlab.cli", "verify", "--model", "abelian",
             "--factor-size", "3", "--trials", "1", "--seed", "8",
             "--out", str(out), "--suite", "modular"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((out / "report.json").read_text())
        doc.pop("environment")
        bodies.append(json.dumps(doc, sort_keys=True))
    assert bodies[0] == bodies[1]


def test_cli_exit_nonzero_on_must_pass_failure(tmp_path, monkeypatch):
    # rig one failing must-pass record through the suite runner
    import modlab.cli as cli_mod

    def rigged(config):
        cs = CheckSet()
        cs.add("rigged/check", "forced failure", 1.0, 1e-9)
        return VerificationReport(config=config.echo(), checks=cs.records(), rows=cs.rows)

    monkeypatch.setattr(cli_mod, "run_suites", rigged)
    code = main(["verify", "--model", "abelian", "--factor-size", "3",
                 "--trials", "1", "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["summary"]["fail"] == 1


# ---------------------------------------------------------------------------
# diff-report
# ---------------------------------------------------------------------------


def _small_report(tmp_path, name):
    report = run_suites(RunConfig(models=("standard_factor(2)",), trials=1,
                                  suites=("modular",)))
    emit(report, tmp_path / name)
    return json.loads((tmp_path / name / "report.json").read_text())


def _write(tmp_path, name, body):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(body))
    return str(path)


def test_diff_report_identical_reports_exit_0(tmp_path, capsys):
    a = _small_report(tmp_path, "a")
    b = dict(a, environment={"python": "another"})  # the environment is ignored
    assert main(["diff-report", str(tmp_path / "a"), _write(tmp_path, "b", b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{len(a['checks'])} check ids, 0 differ"]


def test_diff_report_flags_a_status_flip_and_a_missing_id(tmp_path, capsys):
    a = _small_report(tmp_path, "a")
    flipped = json.loads(json.dumps(a))
    rec = next(c for c in flipped["checks"] if c["id"] == "modular/s-on-algebra")
    rec["status"], rec["max_residual"] = "fail", 2 * rec["max_residual"]
    assert main(["diff-report", _write(tmp_path, "a", a), _write(tmp_path, "f", flipped)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].startswith("modular/s-on-algebra: status pass -> fail; max_residual ")
    assert "(x2," in out[0]

    missing = json.loads(json.dumps(a))
    missing["checks"] = [c for c in missing["checks"] if c["id"] != "modular/j-involution"]
    assert main(["diff-report", _write(tmp_path, "a", a), _write(tmp_path, "m", missing)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "modular/j-involution: only in A"
    assert main(["diff-report", _write(tmp_path, "m", missing), _write(tmp_path, "a", a)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "modular/j-involution: only in B"


def test_diff_report_lists_moved_numbers_without_failing(tmp_path, capsys):
    a = _small_report(tmp_path, "a")
    moved = json.loads(json.dumps(a))
    rec = next(c for c in moved["checks"] if c["id"] == "modular/polar-s")
    rec["tolerance"], rec["samples"], rec["nonfinite"] = 1.0, 7, 0
    assert main(["diff-report", _write(tmp_path, "a", a), _write(tmp_path, "v", moved)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("modular/polar-s: tolerance ")
    assert "-> 1.0; samples 1 -> 7" in line and "max_residual" not in line


def _edit_csv(path, row, column, value):
    import csv

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row + 1][rows[0].index(column)] = value  # row 0 is the header
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_diff_report_compares_the_audit_csvs_of_two_directories(tmp_path, capsys):
    import shutil

    report = run_suites(RunConfig(models=("standard_factor(2)",), trials=1,
                                  suites=("tidy", "contour")))
    emit(report, tmp_path / "a")
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    n_tidy, n_contour = len(report.rows["tidy_bounds"]), len(report.rows["contour_convergence"])
    assert main(["diff-report", a, b]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == (f"tidy_bounds.csv: {n_tidy} -> {n_tidy} rows; key columns "
                      "(seed, model, n, family) equal; largest move: d 0.000e+00, lambda1 "
                      "0.000e+00, lambda2 0.000e+00, measured 0.000e+00, bound 0.000e+00, "
                      "ratio 0.000e+00, pass 0.000e+00")
    assert out[2].startswith(f"contour_convergence.csv: {n_contour} -> {n_contour} rows; "
                             "key columns (seed, model, k, n, nodes, pole_count) equal;")

    # a float column moves: listed, not failing; a nan on one side reads inf
    _edit_csv(tmp_path / "b" / "contour_convergence.csv", 3, "corrected_err", "0.25")
    _edit_csv(tmp_path / "b" / "tidy_bounds.csv", 0, "measured", "nan")
    assert main(["diff-report", a, b]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "measured inf," in out[1]
    assert "corrected_err 2.500e-01" in out[2]  # the row's own error is below 1e-7

    # a node count differs: a key column, so the exit code is 1
    _edit_csv(tmp_path / "b" / "contour_convergence.csv", 5, "nodes", "7")
    assert main(["diff-report", a, b]) == 1
    assert "differ in 1 rows" in capsys.readouterr().out.splitlines()[2]

    # a dropped row, and a table in one directory only
    (tmp_path / "b" / "tidy_bounds.csv").write_text(
        "\n".join((tmp_path / "a" / "tidy_bounds.csv").read_text().splitlines()[:-1]) + "\n")
    (tmp_path / "a" / "contour_convergence.csv").unlink()
    assert main(["diff-report", a, b]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith(f"tidy_bounds.csv: {n_tidy} -> {n_tidy - 1} rows;")
    assert out[2] == "contour_convergence.csv: only in B"


def test_diff_report_unreadable_input_exits_2(tmp_path, capsys):
    assert main(["diff-report", str(tmp_path / "absent"), str(tmp_path / "absent")]) == 2
    assert "cannot compare" in capsys.readouterr().err


def test_pruned_commutator_sweep_leaves_the_flow_report_unchanged(tmp_path, monkeypatch, capsys):
    # d = 9: the first run bounds the commutators, the second takes every SVD
    from modlab import flow

    decomposed = []
    full = flow.opnorm_stack
    monkeypatch.setattr(flow, "opnorm_stack",
                        lambda a: decomposed.append(a[..., 0, 0].size) or full(a))
    args = ["verify", "--model", "standard", "--factor-size", "3", "--trials", "2",
            "--suite", "flow", "--out"]
    svds = []
    for name, min_dim in (("pruned", flow.PRUNE_MIN_DIM), ("plain", 10 ** 9)):
        monkeypatch.setattr(flow, "PRUNE_MIN_DIM", min_dim)
        decomposed.clear()
        assert main([*args, str(tmp_path / name)]) == 0
        svds.append(sum(decomposed))
    assert svds[0] < svds[1]
    capsys.readouterr()
    assert main(["diff-report", str(tmp_path / "pruned"), str(tmp_path / "plain")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(" check ids, 0 differ")
    pruned, plain = (json.loads((tmp_path / name / "report.json").read_text())["checks"]
                     for name in ("pruned", "plain"))
    flow_records = [(x, y) for x, y in zip(pruned, plain) if x["id"].startswith("flow/")]
    assert len(flow_records) == len(pruned) == len(plain)
    assert all(x["max_residual"] == y["max_residual"] for x, y in flow_records)


def test_python_dash_m_modlab_runs_the_cli(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "modlab", "verify", "--trials", "1", "--suite", "modular",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "summary: " in proc.stdout
    assert json.loads((tmp_path / "report.json").read_text())["summary"]["fail"] == 0


def test_importing_modlab_main_runs_nothing(monkeypatch, capsys):
    # a walk over the package's modules imports modlab.__main__ too
    import importlib

    monkeypatch.setattr(sys, "argv", ["modlab", "verify", "--trials", "0"])
    importlib.import_module("modlab.__main__")
    assert capsys.readouterr().err == ""
