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

Numbers are serialized as decimals with 17 significant digits through a small
hand-rolled JSON writer, so identical runs produce byte-identical files apart
from the environment stamp. Files are written atomically (write then rename).
"""

from __future__ import annotations

import csv
import math
import os
import platform
import sys
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_AUDIT = "audit"


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

    def merge(self, residual: float, tolerance: float, ok: bool) -> None:
        """Fold one more sample into the record, keeping the binding residual."""
        self.samples += 1
        if not math.isfinite(residual):
            self.nonfinite += 1
            self.status = STATUS_FAIL
        elif self.max_residual is None or residual > self.max_residual:
            self.max_residual = residual
            self.tolerance = tolerance
        if self.status != STATUS_AUDIT and not ok:
            self.status = STATUS_FAIL


class CheckSet:
    """Accumulates samples into uniquely-identified check records."""

    def __init__(self):
        self._records: dict[str, CheckRecord] = {}

    def add(self, check_id: str, ref: str, residual: float, tolerance: float,
            audit: bool = False, ok: bool | None = None) -> None:
        if ok is None:
            ok = residual <= tolerance
        rec = self._records.get(check_id)
        if rec is None:
            status = STATUS_AUDIT if audit else (STATUS_PASS if ok else STATUS_FAIL)
            rec = self._records[check_id] = CheckRecord(
                id=check_id, ref=ref, status=status,
                max_residual=None, tolerance=float(tolerance),
            )
        rec.merge(float(residual), float(tolerance), ok)

    def records(self) -> list[CheckRecord]:
        return [self._records[k] for k in sorted(self._records)]


@dataclass
class VerificationReport:
    config: dict
    checks: list[CheckRecord]
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
            "checks": [
                {
                    "id": c.id,
                    "ref": c.ref,
                    "status": c.status,
                    "max_residual": c.max_residual,
                    "tolerance": c.tolerance,
                    "samples": c.samples,
                    "nonfinite": c.nonfinite,
                }
                for c in self.checks
            ],
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
    """Decimal rendering with 17 significant digits (round-trip exact)."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite number {x!r} cannot enter a report")
    return format(x, ".17g")


def _escape(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def render_json(value, indent: int = 0) -> str:
    """Deterministic JSON with sorted keys and 17-digit numbers."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if value is None:
        return "null"
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, (bool, int, float, np.integer, np.floating)):
        return format_number(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{_escape(str(k))}: {render_json(value[k], indent + 2)}"
            for k in sorted(value)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{render_json(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


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


TIDY_CSV_COLUMNS = ["seed", "model", "d", "lambda1", "lambda2", "n", "family", "measured", "bound",
                    "ratio", "pass"]
CONTOUR_CSV_COLUMNS = ["seed", "model", "k", "n", "lambda", "nodes", "uncorrected_err",
                       "corrected_err", "pole_count", "pole_norm"]


def render_csv(columns: list[str], rows: list[dict]) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        rendered = []
        for col in columns:
            v = row[col]
            if isinstance(v, bool):
                rendered.append("true" if v else "false")
            elif isinstance(v, (int, np.integer)):
                rendered.append(str(int(v)))
            elif isinstance(v, (float, np.floating)):
                rendered.append(format_number(float(v)))
            else:
                rendered.append(str(v))
        writer.writerow(rendered)
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
    or changes max_residual, tolerance, samples or nonfinite, and whether any
    id or status differs.
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
        if parts:
            lines.append(f"{cid}: " + "; ".join(parts))
    return lines, breaking


def emit(report: VerificationReport, out_dir, tidy_rows=None, contour_rows=None) -> dict:
    """Write report.json and any CSV audit tables atomically; return the paths."""
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    report_path = os.path.join(out_dir, "report.json")
    atomic_write_text(report_path, render_json(report.to_dict()) + "\n")
    paths["report"] = report_path
    if tidy_rows is not None:
        p = os.path.join(out_dir, "tidy_bounds.csv")
        atomic_write_text(p, render_csv(TIDY_CSV_COLUMNS, tidy_rows))
        paths["tidy_bounds"] = p
    if contour_rows is not None:
        p = os.path.join(out_dir, "contour_convergence.csv")
        atomic_write_text(p, render_csv(CONTOUR_CSV_COLUMNS, contour_rows))
        paths["contour_convergence"] = p
    return paths
