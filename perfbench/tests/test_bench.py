"""Tests of the benchmark itself: tracing, self times, call counts and the gate.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import modlab  # noqa: E402
import modlab.cli  # noqa: E402
import run as bench  # noqa: E402
from spans import SpanTable, Tracer  # noqa: E402

SMALL = ("--model", "standard", "--factor-size", "2", "--trials", "2")


def _table(tracer: Tracer, path: Path) -> SpanTable:
    tracer.dump(path)
    return SpanTable.load(path)


@pytest.fixture
def tracer():
    t = Tracer()
    t.install(modlab)
    yield t
    t.uninstall()


@pytest.fixture(scope="module")
def small_children():
    """One untraced and one traced child of a small verify run."""
    bench.WORK.mkdir(exist_ok=True)
    return [bench.run_child(mode, SMALL, 3, f"test-{mode}") for mode in ("plain", "trace")]


def test_calls_through_reimported_names_are_traced(tracer, tmp_path):
    m = np.diag([1.0, 2.0, 3.0])
    for mod in (modlab.linalg, modlab.flow, modlab.tidy, modlab.suites):
        assert mod.opnorm(m) == pytest.approx(3.0)
    a = modlab.algebra.subspace_orthonormalize([np.eye(2), np.diag([1.0, 0.0])])
    modlab.fixtures.commutant(a)
    calls = _table(tracer, tmp_path / "spans.npz").calls()
    assert calls["linalg.opnorm"] == 4
    assert calls["algebra.commutant"] == 1
    assert calls["algebra.subspace_orthonormalize"] >= 2  # once directly, once inside commutant


def test_uninstall_restores_every_binding():
    original = modlab.linalg.opnorm
    t = Tracer()
    t.install(modlab)
    assert modlab.suites.opnorm is not original
    assert modlab.suites.opnorm is modlab.flow.opnorm
    t.uninstall()
    for mod in (modlab.linalg, modlab.flow, modlab.tidy, modlab.suites):
        assert mod.opnorm is original


def test_self_times_nonnegative_and_sum_to_root_spans(tracer, tmp_path):
    assert modlab.cli.main(["verify", *SMALL, "--out", str(tmp_path / "out")]) == 0
    table = _table(tracer, tmp_path / "spans.npz")
    self_ns = table.self_ns()
    assert self_ns.min() >= 0
    roots = table.parents < 0
    assert int(self_ns.sum()) == int(table.durations()[roots].sum())
    assert table.calls()["report.CheckSet.add"] > 0


def test_per_layer_reports_table_and_accounts_for_wall(small_children):
    plain, traced = small_children
    values, _ = bench.per_layer([plain], [traced])
    for name in bench.TABLE_SPANS:
        assert f"{name}.calls" in values and values[f"{name}.self_s"][0] >= 0
    listed = sum(v for k, (v, _) in values.items() if k.endswith(".self_s"))
    accounted = listed + values["trace.unlisted_self_s"][0] + values["trace.outside_spans_s"][0]
    assert accounted == pytest.approx(values["trace.wall_s"][0], abs=1e-6)
    assert values["trace.outside_spans_s"][0] > 0
    assert values["contour.quadrature_nodes"][0] > 0
    assert values["report.bytes_written"][0] > 0


def test_metric_names_match_benchmark_json(small_children):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    plain, traced = small_children
    values, _ = bench.per_layer([plain], [traced])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in values.items()}
    e2e, samples = bench.end_to_end([plain], [plain], bench.trials_per_model(SMALL))
    assert set(e2e) == set(bench.END_TO_END_UNITS)
    assert samples["trial_p50_ms"]["fixtures"] == 2 and all(v > 0 for v in e2e.values())


def test_probes_run_one_trial_at_seeds_drawn_from_the_run_seed():
    args = bench.WORKLOADS["blocks-d5"]
    probe = bench.one_trial(args)
    assert bench.trials_per_model(probe) == 1
    assert [a for a in probe if a != "1"] == [a for a in args if a != "150"]
    seeds = bench.probe_seeds(7, 8)
    assert seeds == bench.probe_seeds(7, 8) and len(set(seeds)) == 8
    assert seeds != bench.probe_seeds(8, 8)


def test_gate_counts_flips_missing_and_extra_ids(small_children):
    plain = small_children[0]
    expected = json.loads((BENCH / "expected" / "default-ensemble.json").read_text())
    assert bench.gate(plain, expected) == (len(expected), 0)
    flipped = dict(expected, **{"modular/fixed-vector": "fail"})
    assert bench.gate(plain, flipped) == (len(expected), 1)
    missing = {k: v for k, v in expected.items() if k != "flow/group-law"}
    assert bench.gate(plain, missing) == (len(expected), 1)
    no_report = bench.Child(**{**plain.__dict__, "checks": None})
    assert bench.gate(no_report, expected) == (len(expected), len(expected))


def test_tail_has_ten_samples_beyond_or_falls_back_to_max():
    values = [float(i) for i in range(150)]
    assert bench.tail(values) == (139.0, 100.0 * 140 / 150, 10)
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_default_ensemble_call_counts_repeat_exactly():
    args = bench.WORKLOADS["default-ensemble"]
    counts = [bench.run_child("trace", args, 20260809, f"test-counts{i}").spans.calls()
              for i in range(2)]
    assert counts[0] == counts[1]
    assert counts[0]["algebra.commutant"] == 350
    assert counts[0]["linalg.opnorm"] == 57625
    assert counts[0]["tidy.operator_from_vector"] == 9964


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "blocks-d5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
