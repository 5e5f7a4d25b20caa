#!/usr/bin/env python3
"""Benchmark of `modlab verify`, end to end (--trace 0) and per layer (--trace 1).

Run from the repository root:

    python3 perfbench/run.py --workload blocks-d5 --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 7     # every workload, one table

Each measurement is one child process (``perfbench/child.py``) that imports
modlab from ``src/`` and runs ``modlab verify`` with the workload's arguments
and ``--seed``. Children run one at a time, with single-threaded OpenBLAS.
The untraced run first starts a fixed number of one-trial probes
(``--trials 1``, each at its own seed drawn from ``--seed``), then full
children until ``--seconds`` would be exceeded; the traced run alternates
untraced and traced full children. Every child passes the correctness gate:
exit code 0 and check ids with statuses equal to ``expected/<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (check records compared and records
that disagree with the expected table) and ``metrics``. The lines before it
give each metric with its unit, the sample counts and the environment; the
same record is written to ``.perfbench/results/``. The process exits 1 when
the gate fails and 2 when modlab's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import SpanTable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

ALL_SUITES = ("modular", "flow", "tidy", "resolvent", "density", "contour")

WORKLOADS: dict[str, tuple[str, ...]] = {
    # standard_factor(2) and standard_factor(3), all suites: the default run
    "default-ensemble": ("--trials", "25"),
    # standard_factor(4), d = 16; the density suite alone takes ~33 s a trial here
    "factor-d16": ("--model", "standard", "--factor-size", "4", "--trials", "2",
                   "--suite", "modular", "--suite", "flow", "--suite", "tidy",
                   "--suite", "resolvent", "--suite", "contour"),
    # direct_sum(2:2,1:1), d = 5, degenerate modular spectrum, all suites
    "blocks-d5": ("--model", "direct-sum", "--factor-size", "2", "--trials", "150"),
}

# Functions whose calls and self time the traced run reports, by layer.
LAYER_FUNCTIONS = {
    "algebra": ("commutant", "subspace_orthonormalize", "membership_residual",
                "mutual_projection_residual", "cyclic_report", "separating_report"),
    "linalg": ("opnorm", "hermitian_eig", "complex_power", "matrix_function",
               "polar_antilinear"),
    "tomita": ("tomita_operator", "modular_data"),
    "fixtures": ("generate_fixture", "covering_windows"),
    "flow": ("tomita_check", "analytic_flow", "modular_flow"),
    "tidy": ("operator_from_vector", "spectral_window", "make_tidy", "ladder",
             "growth_audit", "resolvent_transfer", "resolvent_transfer_mirror",
             "tidy_bicommutant_check"),
    "contour": ("contour_apply", "contour_quadrature_fixed", "pole_sum",
                "spectral_oracle", "sigmoid_limit_check"),
    "suites": tuple(f"run_{s}_suite" for s in ALL_SUITES),
    "report": ("CheckSet.add", "emit"),
}
TABLE_SPANS = tuple(f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items() for fn in fns)

# One-trial probes per untraced run. A whole run's peak RSS is set by its
# largest contour quadrature, whose node count is heavy-tailed across
# fixtures, so trial_peak_rss_mb is the median over probes at distinct seeds.
# On factor-d16 every fixture's peak is the same commutant SVD, and a probe
# takes half a full child, so one probe suffices.
PROBES = {"default-ensemble": 4, "factor-d16": 1, "blocks-d5": 8}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "fixtures_per_s": "1/s", "trial_p50_ms": "ms",
    "trial_tail_ms": "ms", "trial_peak_rss_mb": "MB",
}
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 150
# One OpenBLAS thread: on a shared 2-vCPU machine the default two threads
# made an 8-trial verify take 5.5-7.1 s (one thread: 7.5-8.2 s), and spread
# default-ensemble's times over seeds by 0.13-0.19 of the median (one: 0.08-0.10).
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "MODLAB_OUT"}
    return {**env, **BLAS_THREADS}


@dataclass
class Child:
    """One finished child process and what it left behind."""

    mode: str
    spawn_ns: int
    exit_ns: int
    exit_code: int
    maxrss_kb: int
    spans: SpanTable | None
    out_bytes: int
    checks: dict[str, str] | None

    @property
    def wall_s(self) -> float:
        return (self.exit_ns - self.spawn_ns) / 1e9

    @property
    def main_wall_s(self) -> float:
        """Spawn to the end of modlab.cli.main, before the spans are written."""
        return (self.spans.header["main_end_ns"] - self.spawn_ns) / 1e9

    @property
    def fixture_starts(self) -> np.ndarray:
        return self.spans.starts_of("fixtures.generate_fixture")

    @property
    def setup_s(self) -> float:
        return (int(self.fixture_starts[0]) - self.spawn_ns) / 1e9

    @property
    def trial_ms(self) -> list[float]:
        """One duration per trial, between consecutive generate_fixture entries."""
        marks = np.append(self.fixture_starts, self.spans.ends_of("suites.run_suites")[-1])
        return [float(x) / 1e6 for x in np.diff(marks)]


def run_child(mode: str, verify_args: tuple[str, ...], seed: int, tag: str) -> Child:
    out = WORK / f"out-{tag}"
    spans_path = WORK / f"spans-{tag}.npz"
    shutil.rmtree(out, ignore_errors=True)
    spans_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
           "--spans", str(spans_path), "--mode", mode, "--",
           *verify_args, "--seed", str(seed), "--out", str(out)]
    env = child_env()
    with open(WORK / f"stderr-{tag}.txt", "wb") as err:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        exit_ns = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    spans = SpanTable.load(spans_path) if spans_path.exists() else None
    report = out / "report.json"
    checks = None
    if report.exists():
        checks = {c["id"]: c["status"] for c in json.loads(report.read_text())["checks"]}
    out_bytes = sum(p.stat().st_size for p in out.glob("*")) if out.exists() else 0
    if proc.returncode != 0:
        sys.stderr.write(f"child {tag} exited with {proc.returncode}:\n"
                         + (WORK / f"stderr-{tag}.txt").read_text()[-2000:])
    return Child(mode, spawn_ns, exit_ns, proc.returncode, usage.ru_maxrss, spans,
                 out_bytes, checks)


def gate(child: Child, expected: dict[str, str]) -> tuple[int, int]:
    """(records compared, records that disagree) for one full child.

    A child without a report counts every expected record as failed; an
    unexpected check id counts as a failed record too.
    """
    got = child.checks or {}
    ids = set(expected) | set(got)
    failed = sum(1 for i in ids if got.get(i) != expected.get(i))
    return len(ids), failed


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = os.cpu_count()
    env = child_env()
    return {
        "workload": workload,
        "verify_args": list(WORKLOADS[workload]),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": nproc,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: env.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_default": nproc,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def trials_per_model(verify_args: tuple[str, ...]) -> int:
    return int(verify_args[verify_args.index("--trials") + 1])


def one_trial(verify_args: tuple[str, ...]) -> tuple[str, ...]:
    """The workload's arguments with one trial per model."""
    i = verify_args.index("--trials") + 1
    return (*verify_args[:i], "1", *verify_args[i + 1:])


def probe_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(1, 2**31 - 1, size=count)]


def end_to_end(probes: list[Child], full: list[Child], per_model: int) -> tuple[dict, dict]:
    """Medians over children. Every full child runs the same fixtures in the
    same order, so each trial time is the median over full children of one
    fixture's time; only the last per_model trials count, those of the last
    and largest model. Set-up time counts every child, memory the probes."""
    setups = [c.setup_s for c in probes + full]
    trials = [statistics.median(times) for times in
              zip(*(c.trial_ms[-per_model:] for c in full))]
    tail_ms, tail_pct, tail_beyond = tail(trials)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(c.wall_s for c in full),
        "fixtures_per_s": statistics.median(
            len(c.fixture_starts) / (c.wall_s - c.setup_s) for c in full),
        "trial_p50_ms": statistics.median(trials),
        "trial_tail_ms": tail_ms,
        "trial_peak_rss_mb": statistics.median(c.maxrss_kb for c in probes) / 1024.0,
    }
    samples = {
        "setup_s": len(setups), "wall_s": len(full), "fixtures_per_s": len(full),
        "trial_p50_ms": {"fixtures": len(trials), "children_per_fixture": len(full)},
        "trial_tail_ms": {"fixtures": len(trials), "children_per_fixture": len(full),
                          "percentile": tail_pct, "beyond": tail_beyond},
        "trial_peak_rss_mb": len(probes),
    }
    return values, samples


def per_layer(plain: list[Child], traced: list[Child]) -> tuple[dict, dict]:
    """Calls and self times of TABLE_SPANS from the traced child of median wall time."""
    rep = sorted(traced, key=lambda c: c.main_wall_s)[(len(traced) - 1) // 2]
    table = rep.spans
    calls, self_s, total_s = table.calls(), table.self_s(), table.total_s()
    values: dict[str, tuple[float, str]] = {}
    for name in TABLE_SPANS:
        values[f"{name}.calls"] = (calls.get(name, 0), "count")
        values[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for suite in ALL_SUITES:
        values[f"suites.{suite}.total_s"] = (total_s.get(f"suites.run_{suite}_suite", 0.0), "s")
    values["contour.quadrature_nodes"] = (
        table.header["counters"].get("contour.quadrature_nodes", 0), "count-computed")
    values["report.bytes_written"] = (rep.out_bytes, "bytes")
    values["run.peak_rss_mb"] = (max(c.maxrss_kb for c in plain) / 1024.0, "MB")
    all_self = sum(self_s.values())
    listed_self = sum(self_s.get(n, 0.0) for n in TABLE_SPANS)
    values["trace.wall_s"] = (rep.main_wall_s, "s")
    values["trace.unlisted_self_s"] = (all_self - listed_self, "s")
    values["trace.outside_spans_s"] = (rep.main_wall_s - all_self, "s")
    values["trace.overhead_s"] = (
        statistics.median(c.main_wall_s for c in traced)
        - statistics.median(c.main_wall_s for c in plain), "s")
    samples = {"traced_children": len(traced), "plain_children": len(plain),
               "self_s_from": "traced child of median wall time"}
    return values, samples


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    verify_args = WORKLOADS[workload]
    expected = json.loads((BENCH / "expected" / f"{workload}.json").read_text())
    modes = ("plain", "trace") if trace else ("plain",)
    start = time.monotonic()
    seeds = [] if trace else probe_seeds(seed, PROBES[workload])
    probes = [run_child("plain", one_trial(verify_args), s, f"{workload}-probe{i}")
              for i, s in enumerate(seeds)]
    full: list[Child] = []
    durations: list[float] = []
    while True:
        t0 = time.monotonic()
        child = run_child(modes[len(full) % len(modes)], verify_args, seed,
                          f"{workload}-{len(full)}")
        durations.append(time.monotonic() - t0)
        full.append(child)
        if child.exit_code != 0 or child.spans is None:
            break
        remaining = seconds - (time.monotonic() - start)
        if len(full) >= len(modes) and statistics.mean(durations) > remaining:
            break

    attempted = failed = 0
    for child in probes + full:
        a, f = gate(child, expected)
        attempted, failed = attempted + a, failed + f
    ok = failed == 0 and all(c.exit_code == 0 and c.spans is not None for c in probes + full)
    result = {"correct": ok, "attempted": attempted, "failed": failed, "metrics": {}}
    record = {"environment": environment(workload, seed, seconds, trace),
              "children": [{"mode": c.mode, "wall_s": c.wall_s} for c in full],
              "probe_seeds": seeds}
    if not ok:
        return {**result, "record": record}
    if trace:
        traced = [c for c in full if c.mode == "trace"]
        counts = {json.dumps(c.spans.calls(), sort_keys=True) for c in traced}
        if len(counts) > 1:
            sys.stderr.write("call counts differ between traced children of one seed\n")
            result["correct"] = False
        values, samples = per_layer([c for c in full if c.mode == "plain"], traced)
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        values, samples = end_to_end(probes, full, trials_per_model(verify_args))
        result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                             for k, v in values.items()}
    record["samples"] = samples
    return {**result, "record": record}


def write_record(workload: str, seed: int, trace: int, result: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")


def print_result(workload: str, result: dict) -> None:
    print(f"== {workload}: correct={result['correct']} "
          f"checks attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"{workload:18s} {name:50s} {m['value']:>14.6g} {m['unit']}")
    print("samples: " + json.dumps(result["record"].get("samples", {}), sort_keys=True))
    print("environment: " + json.dumps(result["record"]["environment"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of modlab verify.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run kills and reaps its running child on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "modlab" / "cli.py").is_file():
        sys.stderr.write(f"modlab sources not found under {SRC}; "
                         "run from a checkout of the repository\n")
        return 2
    WORK.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, args.trace)
        write_record(name, args.seed, args.trace, results[name])
        print_result(name, results[name])
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
    }
    if args.workload == "all":
        final["workloads"] = {n: r["metrics"] for n, r in results.items()}
    else:
        final["metrics"] = results[names[0]]["metrics"]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
