import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from modlab.cli import main
from modlab.report import (
    CheckSet,
    VerificationReport,
    emit,
    format_number,
    render_csv,
    render_json,
    TIDY_CSV_COLUMNS,
)
from modlab.suites import RunConfig, run_suites


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_format_number_17_digits_round_trip():
    xs = [1.0, 1 / 3, 2.0 ** -52, 1.2339999999999999e-10, 9.87e300]
    for x in xs:
        s = format_number(x)
        assert float(s) == x


def test_format_number_rejects_non_finite():
    with pytest.raises(ValueError):
        format_number(float("nan"))
    with pytest.raises(ValueError):
        format_number(float("inf"))


def test_render_json_deterministic_and_parseable():
    doc = {"b": [1, 2.5, "x"], "a": {"nested": True, "v": 1 / 7}}
    s1 = render_json(doc)
    s2 = render_json(doc)
    assert s1 == s2
    assert json.loads(s1) == {"b": [1, 2.5, "x"], "a": {"nested": True, "v": 1 / 7}}


def test_render_csv_columns_exact():
    rows = [{
        "seed": 1, "model": "standard_factor(2)", "d": 4,
        "lambda1": 0.3, "lambda2": 0.9, "n": -2, "family": "a_prime",
        "measured": 1.25, "bound": 2.5, "ratio": 0.5, "pass": True,
    }]
    text = render_csv(TIDY_CSV_COLUMNS, rows)
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
        return VerificationReport(config=config.echo(), checks=cs.records()), [], []

    monkeypatch.delenv("MODLAB_OUT", raising=False)
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
    cs.add("x", "r", float("nan"), 1e-9, ok=True)
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
    rep = VerificationReport(config={}, checks=cs.records())
    assert rep.must_pass_ok
    cs.add("bad", "r", 1.0, 1e-9)
    rep = VerificationReport(config={}, checks=cs.records())
    assert not rep.must_pass_ok
    assert rep.summary["fail"] == 1


def test_emit_atomic_and_complete(tmp_path):
    cs = CheckSet()
    cs.add("ok", "r", 1e-12, 1e-9)
    rep = VerificationReport(config={"seed": 1}, checks=cs.records(),
                             environment={"python": "x"})
    paths = emit(rep, tmp_path, tidy_rows=[], contour_rows=[])
    assert os.path.exists(paths["report"])
    assert os.path.exists(paths["tidy_bounds"])
    assert os.path.exists(paths["contour_convergence"])
    doc = json.loads(open(paths["report"]).read())
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
    report, tidy_rows, contour_rows = run_suites(SMALL)
    assert report.must_pass_ok
    ids = {c.id for c in report.checks}
    assert "modular/s-on-algebra" in ids
    assert "resolvent/transfer-bound" in ids
    assert tidy_rows == [] and contour_rows == []


def test_run_suites_deterministic_body():
    r1, _, _ = run_suites(SMALL)
    r2, _, _ = run_suites(SMALL)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("environment")
    d2.pop("environment")
    assert render_json(d1) == render_json(d2)


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


def test_cli_fixture_writes_json(tmp_path, monkeypatch):
    monkeypatch.delenv("MODLAB_OUT", raising=False)
    code = main(["fixture", "--model", "standard", "--factor-size", "2",
                 "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    path = tmp_path / "fixture_standard_factor(2)_3.json"
    assert path.exists()
    doc = json.loads(path.read_text())
    assert doc["dim"] == 4


def test_cli_verify_small_run(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MODLAB_OUT", raising=False)
    code = main(["verify", "--model", "abelian", "--factor-size", "4",
                 "--trials", "1", "--seed", "5", "--out", str(tmp_path),
                 "--suite", "modular", "--suite", "density"])
    assert code == 0
    out = capsys.readouterr().out
    assert "summary:" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["summary"]["fail"] == 0
    assert {c["id"] for c in report["checks"]} >= {"modular/fixed-vector", "density/tidy-span"}


def test_cli_env_var_overrides_out(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_dir"
    monkeypatch.setenv("MODLAB_OUT", str(env_dir))
    code = main(["fixture", "--model", "abelian", "--factor-size", "3",
                 "--seed", "1", "--out", str(tmp_path / "flag_dir")])
    assert code == 0
    assert env_dir.exists()
    assert not (tmp_path / "flag_dir").exists()


def test_cli_report_body_independent_of_out_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("MODLAB_OUT", raising=False)
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


def test_cli_exit_code_via_subprocess(tmp_path):
    env = dict(os.environ)
    env.pop("MODLAB_OUT", None)
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
def test_cli_bad_arguments_exit_2_without_output(tmp_path, monkeypatch, capsys, command, bad):
    monkeypatch.delenv("MODLAB_OUT", raising=False)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, *bad, "--out", str(out)])
    assert exc.value.code == 2
    assert not (out / "report.json").exists()
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("modlab: error: ")


def test_cli_audit_tidy_bound_subcommand(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MODLAB_OUT", raising=False)
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


def test_cli_contour_study_subcommand(tmp_path, monkeypatch):
    monkeypatch.delenv("MODLAB_OUT", raising=False)
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

    monkeypatch.delenv("MODLAB_OUT", raising=False)
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


def test_cli_contour_rows_name_their_fixture(tmp_path, monkeypatch):
    import csv

    from modlab.suites import _fixture_seed

    monkeypatch.delenv("MODLAB_OUT", raising=False)
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
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env.pop("MODLAB_OUT", None)
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
        return VerificationReport(config=config.echo(), checks=cs.records()), [], []

    monkeypatch.delenv("MODLAB_OUT", raising=False)
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
    report, _, _ = run_suites(RunConfig(models=("standard_factor(2)",), trials=1,
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


def test_diff_report_unreadable_input_exits_2(tmp_path, capsys):
    assert main(["diff-report", str(tmp_path / "absent"), str(tmp_path / "absent")]) == 2
    assert "cannot compare" in capsys.readouterr().err
