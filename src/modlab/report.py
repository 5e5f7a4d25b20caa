"""Verification report assembly and deterministic JSON/CSV emission.

The report schema (schema_version "1") is::

    {
      "schema_version": "1",
      "config": {...},                # echo of the run configuration
      "checks": [
        {"id": ..., "ref": ..., "status": "pass" | "fail" | "audit",
         "max_residual": ..., "tolerance": ..., "samples": ...,
         "nonfinite": ...},
        ...
      ],
      "summary": {"pass": n, "fail": n, "audit": n},
      "environment": {...}            # stamp block, excluded from determinism
    }

The JSON is written with sorted keys and Python's shortest round-trip float
repr, so identical runs produce byte-identical files apart from the
environment stamp; a non-finite number makes ``emit`` raise ValueError. The
audit tables go to CSV files, one per ``CSV_COLUMNS`` entry, where a
non-finite cell reads ``nan`` or ``inf``. Files are written atomically
(write then rename).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import platform
import sys
import tempfile
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_AUDIT = "audit"

# audit table -> its CSV columns; a run's rows are written to <table>.csv
CSV_COLUMNS = {
    "tidy_bounds": ["seed", "model", "d", "lambda1", "lambda2", "n", "family", "measured",
                    "bound", "ratio", "pass"],
    "contour_convergence": ["seed", "model", "k", "n", "lambda", "nodes", "uncorrected_err",
                            "corrected_err", "pole_count", "pole_norm"],
}


@dataclass
class CheckRecord:
    """Aggregated result of one named check across all samples of a run.

    ``max_residual`` is the largest finite residual (None while no sample was
    finite); non-finite samples are counted in ``nonfinite`` and fail the
    record, audit or not, since they mean the measurement itself broke down.
    """

    id: str
    ref: str
    status: str
    max_residual: float | None
    tolerance: float
    samples: int = 0
    nonfinite: int = 0

    def merge(self, residual: float, tolerance: float) -> None:
        """Fold one more sample into the record, keeping the binding residual."""
        self.samples += 1
        if not math.isfinite(residual):
            self.nonfinite += 1
            self.status = STATUS_FAIL
        elif self.max_residual is None or residual > self.max_residual:
            self.max_residual = residual
            self.tolerance = tolerance
        if not residual <= tolerance and self.status != STATUS_AUDIT:
            self.status = STATUS_FAIL


class CheckSet:
    """Accumulates samples into uniquely-identified check records, and the
    suites' audit table rows into ``rows[table]``."""

    def __init__(self):
        self._records: dict[str, CheckRecord] = {}
        self.rows: dict[str, list[dict]] = {table: [] for table in CSV_COLUMNS}

    def add(self, check_id: str, ref: str, residual, tolerance, audit: bool = False) -> None:
        """Fold one residual, or an array of residuals in order, into the record ``check_id``.

        ``tolerance`` is one value for every sample or an array that
        broadcasts to the residuals' shape. Each sample follows
        :meth:`CheckRecord.merge`: the first sample of a record sets its
        tolerance, the largest finite residual (the first of a tie) sets the
        recorded tolerance, a NaN or inf residual is counted and fails the
        record, and nothing else fails an audit record. An empty array adds
        nothing.
        """
        res = np.asarray(residual, dtype=float)
        tols = np.empty_like(res)
        tols[...] = tolerance  # raises unless the tolerance broadcasts to the residuals
        rec = self._records.get(check_id)
        for r, tol in zip(res.ravel().tolist(), tols.ravel().tolist()):
            if rec is None:
                status = STATUS_AUDIT if audit else STATUS_PASS
                rec = self._records[check_id] = CheckRecord(check_id, ref, status, None, tol)
            rec.merge(r, tol)

    def records(self) -> list[CheckRecord]:
        return [self._records[k] for k in sorted(self._records)]


@dataclass
class VerificationReport:
    config: dict
    checks: list[CheckRecord]
    rows: dict[str, list[dict]]  # audit table -> rows, as CheckSet.rows
    environment: dict = field(default_factory=dict)

    @property
    def summary(self) -> dict:
        out = {STATUS_PASS: 0, STATUS_FAIL: 0, STATUS_AUDIT: 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def must_pass_ok(self) -> bool:
        return self.summary[STATUS_FAIL] == 0

    def to_dict(self) -> dict:
        return {
            "schema_version": "1",
            "config": self.config,
            "checks": [asdict(c) for c in self.checks],
            "summary": self.summary,
            "environment": self.environment,
        }


def environment_stamp() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


def format_number(x) -> str:
    """Text of a CSV cell: decimals with 17 significant digits (round-trip
    exact; a non-finite float reads nan or inf), true/false for booleans."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def render_csv(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_number(row[col]) for col in columns])
    return buf.getvalue()


def _moved(a, b) -> str:
    """``a -> b`` for two max_residual values, with their ratio and difference."""
    if a is None or b is None:
        return f"{a} -> {b}"
    ratio = b / a if a != 0 else math.inf
    return f"{a:.6e} -> {b:.6e} (x{ratio:.6g}, {b - a:+.3e})"


def diff_reports(a: dict, b: dict) -> tuple[list[str], bool]:
    """Per-check differences between two report bodies; ``environment`` is ignored.

    Returns one line per check id that is in one report only, flips status,
    or changes max_residual, tolerance, samples, nonfinite or ref, and whether
    any id or status differs.
    """
    recs_a = {c["id"]: c for c in a["checks"]}
    recs_b = {c["id"]: c for c in b["checks"]}
    lines, breaking = [], False
    for cid in sorted(recs_a.keys() | recs_b.keys()):
        if cid not in recs_b or cid not in recs_a:
            lines.append(f"{cid}: only in {'A' if cid in recs_a else 'B'}")
            breaking = True
            continue
        x, y = recs_a[cid], recs_b[cid]
        parts = []
        if x["status"] != y["status"]:
            parts.append(f"status {x['status']} -> {y['status']}")
            breaking = True
        if x["max_residual"] != y["max_residual"]:
            parts.append(f"max_residual {_moved(x['max_residual'], y['max_residual'])}")
        for key in ("tolerance", "samples", "nonfinite"):
            if x[key] != y[key]:
                parts.append(f"{key} {x[key]} -> {y[key]}")
        if x["ref"] != y["ref"]:
            parts.append(f"ref {x['ref']!r} -> {y['ref']!r}")
        if parts:
            lines.append(f"{cid}: " + "; ".join(parts))
    return lines, breaking


# audit-table columns that identify a row (its fixture, sample and node count)
KEY_COLUMNS = ("seed", "model", "k", "n", "family", "nodes", "pole_count")


def _cell_move(a: str, b: str) -> float:
    """Absolute move between two CSV cells (true/false read 1/0); inf when one is nan."""
    x, y = (1.0 if c == "true" else 0.0 if c == "false" else float(c) for c in (a, b))
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return math.inf if math.isnan(x) or math.isnan(y) else abs(x - y)


def _read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def diff_tables(dir_a, dir_b) -> tuple[list[str], bool]:
    """Row-by-row comparison of the audit CSVs that two run directories hold.

    Returns one line per table present in either directory, with the row
    counts, whether the KEY_COLUMNS cells agree exactly, and the largest
    absolute move of every other column; and whether a table is in one
    directory only, its row counts differ, or a key cell differs.
    """
    lines, breaking = [], False
    for table, columns in CSV_COLUMNS.items():
        paths = [os.path.join(d, f"{table}.csv") for d in (dir_a, dir_b)]
        if not any(map(os.path.exists, paths)):
            continue
        if not all(map(os.path.exists, paths)):
            lines.append(f"{table}.csv: only in {'A' if os.path.exists(paths[0]) else 'B'}")
            breaking = True
            continue
        rows_a, rows_b = map(_read_csv, paths)
        keys = [c for c in columns if c in KEY_COLUMNS]
        differ = sum(any(x[c] != y[c] for c in keys) for x, y in zip(rows_a, rows_b))
        breaking = breaking or differ > 0 or len(rows_a) != len(rows_b)
        moves = ", ".join(
            f"{c} {max((_cell_move(x[c], y[c]) for x, y in zip(rows_a, rows_b)), default=0.0):.3e}"
            for c in columns if c not in KEY_COLUMNS)
        lines.append(f"{table}.csv: {len(rows_a)} -> {len(rows_b)} rows; key columns "
                     f"({', '.join(keys)}) {f'differ in {differ} rows' if differ else 'equal'}; "
                     f"largest move: {moves}")
    return lines, breaking


def emit(report: VerificationReport, out_dir) -> dict:
    """Write report.json and every audit table's CSV atomically, an empty table as
    its header alone, so each file in ``out_dir`` is of one run; return the paths."""
    out_dir = os.fspath(out_dir)
    paths = {"report": os.path.join(out_dir, "report.json")}
    atomic_write_text(paths["report"], json.dumps(
        report.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n")
    for table in CSV_COLUMNS:
        paths[table] = os.path.join(out_dir, f"{table}.csv")
        atomic_write_text(paths[table], render_csv(CSV_COLUMNS[table], report.rows[table]))
    return paths
