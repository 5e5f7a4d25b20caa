"""Every check sample reaches ``CheckSet.add``.

The fold in :mod:`modlab.report` is the one place where samples are reduced
to a record: it counts each sample, fails a record on a NaN or inf, and keeps
the binding residual with its own tolerance. A suite that reduces its samples
by hand before calling ``checks.add`` hides the count, and hides a sample
above its own tolerance behind a larger one with a larger tolerance. This
test fails when a residual argument of ``checks.add(...)`` in
``src/modlab/suites.py`` is such a reduction: a call to ``max``, ``np.max``,
``np.amax``, ``np.nanmax`` or an array's ``.max()``, possibly inside
``float(...)``, written in the call or assigned to the name passed there.
"""

import ast
from pathlib import Path

SUITES = Path(__file__).resolve().parents[1] / "src" / "modlab" / "suites.py"

REDUCTIONS = {"max", "amax", "nanmax"}


def is_hand_fold(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name) and func.id == "float":
        return any(is_hand_fold(arg) for arg in node.args)
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name in REDUCTIONS


def hand_folds(tree) -> list[str]:
    """``function:line`` of each checks.add call whose residual is reduced by hand."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        assigned = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, []).append(node.value)
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "checks"):
                continue
            residual = node.args[2] if len(node.args) > 2 else next(
                (k.value for k in node.keywords if k.arg == "residual"), None)
            values = assigned.get(residual.id, []) if isinstance(residual, ast.Name) else [residual]
            if any(is_hand_fold(v) for v in values):
                out.append(f"{fn.name}:{node.lineno}")
    return out


def test_suites_hand_every_sample_to_the_fold():
    assert hand_folds(ast.parse(SUITES.read_text(), filename=str(SUITES))) == []


def test_guard_flags_each_kind_of_hand_fold():
    snippet = (
        "def suite(checks, xs, ys):\n"
        "    checks.add('a', 'r', np.max(xs), 1.0)\n"
        "    checks.add('b', 'r', max(xs), 1.0)\n"
        "    checks.add('c', 'r', float(np.max(xs)), 1.0)\n"
        "    worst = np.nanmax([xs, ys])\n"
        "    checks.add('d', 'r', worst, 1.0)\n"
        "    checks.add('e', 'r', residual=np.amax(xs), tolerance=1.0)\n"
        "    checks.add('f', 'r', xs.max(), 1.0)\n"
        "    checks.add('g', 'r', xs, 1.0)\n"
        "    checks.add('h', 'r', [max(x, 0.0) for x in xs], 1.0)\n"
        "    checks.add('i', 'r', float(len(xs)), 1.0)\n"
    )
    assert hand_folds(ast.parse(snippet)) == [f"suite:{line}" for line in (2, 3, 4, 6, 7, 8)]
