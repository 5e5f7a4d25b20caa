"""Every check sample reaches the fold.

The fold in :mod:`modlab.report` is the one place where samples are reduced
to a record: it counts each sample, fails a record on a NaN or inf, and keeps
the binding residual with its own tolerance. A suite that reduces its samples
by hand before handing them over hides the count, and hides a sample above
its own tolerance behind a larger one with a larger tolerance. A suite hands
samples to the fold through its entry ``add(id, samples, *params)``, which
``suites._adder`` binds and which calls ``checks.add(id, ref, residual, ...)``.
This test fails when the samples argument of either call in
``src/modlab/suites.py`` is such a reduction: a call to ``max``, ``np.max``,
``np.amax``, ``np.nanmax`` or an array's ``.max()``, possibly inside
``float(...)``, written in the call or assigned to the name passed there.
"""

import ast
from pathlib import Path

from modlab.suites import CHECKS

SUITES = Path(__file__).resolve().parents[1] / "src" / "modlab" / "suites.py"

REDUCTIONS = {"max", "amax", "nanmax"}

ENTRY, CHECKSET_ADD = "add", "checks.add"
# call -> (position, keyword) of its samples argument
SAMPLES = {ENTRY: (1, "samples"), CHECKSET_ADD: (2, "residual")}


def is_hand_fold(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name) and func.id == "float":
        return any(is_hand_fold(arg) for arg in node.args)
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name in REDUCTIONS


def fold_call(node) -> str | None:
    """ENTRY or CHECKSET_ADD when the node is such a call, else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id == "add":
        return ENTRY
    if (isinstance(func, ast.Attribute) and func.attr == "add"
            and isinstance(func.value, ast.Name) and func.value.id == "checks"):
        return CHECKSET_ADD
    return None


def fold_calls(tree) -> list[tuple[str, ast.FunctionDef, ast.Call]]:
    """(kind, innermost function, call) of each call that hands samples to the fold."""
    owner = {}
    for fn in ast.walk(tree):  # breadth first: a nested function comes later and wins
        if isinstance(fn, ast.FunctionDef):
            owner.update((node, fn) for node in ast.walk(fn) if fold_call(node))
    return [(fold_call(node), fn, node) for node, fn in owner.items()]


def hand_folds(tree) -> list[str]:
    """``function:line`` of each fold call whose samples are reduced by hand."""
    out = []
    for kind, fn, call in fold_calls(tree):
        position, keyword = SAMPLES[kind]
        samples = call.args[position] if len(call.args) > position else next(
            (k.value for k in call.keywords if k.arg == keyword), None)
        if isinstance(samples, ast.Name):
            values = [node.value for node in ast.walk(fn) if isinstance(node, ast.Assign)
                      and any(isinstance(t, ast.Name) and t.id == samples.id
                              for t in node.targets)]
        else:
            values = [samples]
        if any(is_hand_fold(v) for v in values):
            out.append(f"{fn.name}:{call.lineno}")
    return out


def _suites_tree():
    return ast.parse(SUITES.read_text(), filename=str(SUITES))


def test_suites_hand_every_sample_to_the_fold():
    assert hand_folds(_suites_tree()) == []


def test_guard_sees_every_call_site_and_one_checkset_add():
    # a guard that finds no call sites passes vacuously: every CHECKS entry has
    # at least one call of the entry, and the entry's checks.add is the only one
    calls = fold_calls(_suites_tree())
    assert sum(kind == ENTRY for kind, _, _ in calls) >= len(CHECKS) >= 38
    assert [fn.name for kind, fn, _ in calls if kind == CHECKSET_ADD] == ["add"]


def test_guard_flags_a_max_put_around_a_real_call_site():
    source = SUITES.read_text()
    call = 'add("modular/j-antiunitary", np.abs(lhs - rhs))'
    assert source.count(call) == 1
    line = source[:source.index(call)].count("\n") + 1
    mutant = source.replace(call, 'add("modular/j-antiunitary", np.max(np.abs(lhs - rhs)))')
    assert hand_folds(ast.parse(mutant)) == [f"run_modular_suite:{line}"]


def test_guard_flags_each_kind_of_hand_fold():
    snippet = (
        "def suite(checks, xs, ys):\n"
        "    add('a', np.max(xs))\n"
        "    add('b', max(xs), 3)\n"
        "    add('c', float(np.max(xs)))\n"
        "    worst = np.nanmax([xs, ys])\n"
        "    add('d', worst)\n"
        "    add('e', samples=np.amax(xs))\n"
        "    checks.add('f', 'r', xs.max(), 1.0)\n"
        "    checks.add('g', 'r', residual=np.amax(xs), tolerance=1.0)\n"
        "    add('h', xs, np.max(ys))\n"
        "    add('i', [max(x, 0.0) for x in xs])\n"
        "    add('j', float(len(xs)))\n"
        "    checks.add('k', 'r', xs, np.max(ys))\n"
    )
    assert hand_folds(ast.parse(snippet)) == [f"suite:{line}" for line in (2, 3, 4, 6, 7, 8, 9)]
