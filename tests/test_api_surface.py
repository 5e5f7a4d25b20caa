"""The public surface of modlab is what its own code calls.

Every public top-level function and class, and every public method and
property, defined in ``src/modlab`` must be referenced somewhere else in
``src/`` (a name or an attribute in code, an annotation, or a keyword value
such as ``func=cmd_verify``). Imports alone do not count, and neither does a
reference from inside the definition itself. References are matched by
name, not by type, so a method that shares its name with a used one passes.

Every public field of a ``@dataclass`` in ``src/modlab`` must be read as an
attribute (``x.field`` in a load context) somewhere in ``src/``; filling it
through the constructor does not count. Fields are matched by name as well,
so a field read under the same name on another object passes. A dataclass
that its module writes out whole with ``dataclasses.asdict`` has every field
read; those classes are listed in SERIALIZED.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "modlab"

# Public names that may have no caller in src/, each with the reason.
ALLOWED = {
    # reads back what `modlab fixture` writes; the replay of a fixture through
    # `verify` is its planned caller, and the round-trip test covers it now
    "load_fixture",
    # the closed-form commutant of a block model, the independent oracle the
    # tests compare the numerical commutant against
    "commutant_basis_matrices",
}


# Dataclasses read field by field through dataclasses.asdict, each with its reader.
SERIALIZED = {
    # VerificationReport.to_dict writes each check of report.json as asdict(c)
    "report.CheckRecord",
}


def referenced_names(node) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def public_definitions(tree, module):
    """(qualified name, bare name, node) of each public function, class, method and property."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def unreferenced(trees: dict) -> list[str]:
    total = Counter()
    for tree in trees.values():
        total.update(referenced_names(tree))
    out = []
    for module, tree in trees.items():
        for qualified, name, node in public_definitions(tree, module):
            if name in ALLOWED:
                continue
            if total[name] - referenced_names(node)[name] <= 0:
                out.append(qualified)
    return out


def is_dataclass(node) -> bool:
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(func, ast.Name) and func.id == "dataclass":
            return True
    return False


def unread_fields(trees: dict) -> list[str]:
    """Public dataclass fields, as module.Class.field, that no code in the trees reads."""
    read = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, ast.ClassDef) or not is_dataclass(node)
                    or f"{module}.{node.name}" in SERIALIZED):
                continue
            for item in node.body:
                if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and not item.target.id.startswith("_")
                        and item.target.id not in read):
                    out.append(f"{module}.{node.name}.{item.target.id}")
    return out


def parse_src() -> dict:
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def test_every_public_name_has_a_caller_in_src():
    assert unreferenced(parse_src()) == []


def test_surface_check_flags_an_uncalled_function_and_method():
    trees = parse_src()
    trees["extra"] = ast.parse(
        "def orphan():\n    return orphan\n\n"
        "class Holder:\n    def unused_method(self):\n        return 1\n"
    )
    assert unreferenced(trees) == ["extra.orphan", "extra.Holder", "extra.Holder.unused_method"]


def test_every_dataclass_field_is_read_in_src():
    assert unread_fields(parse_src()) == []


def test_field_check_flags_a_field_that_is_only_constructed():
    trees = parse_src()
    trees["extra"] = ast.parse(
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass Pair:\n    kept: int\n    orphan_field: int\n\n"
        "def make():\n    p = Pair(kept=1, orphan_field=2)\n    return p.kept\n"
    )
    assert unread_fields(trees) == ["extra.Pair.orphan_field"]


def test_allowlisted_names_exist_and_have_no_src_caller():
    trees = parse_src()
    total = Counter()
    for tree in trees.values():
        total.update(referenced_names(tree))
    defined = {name for module, tree in trees.items()
               for _, name, _ in public_definitions(tree, module)}
    for name in ALLOWED:
        assert name in defined
        assert total[name] == 0


def test_serialized_dataclasses_exist_and_their_module_calls_asdict():
    trees = parse_src()
    for qualified in SERIALIZED:
        module, name = qualified.split(".")
        assert any(isinstance(node, ast.ClassDef) and node.name == name and is_dataclass(node)
                   for node in trees[module].body)
        assert "asdict" in {sub.func.id for sub in ast.walk(trees[module])
                            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)}
