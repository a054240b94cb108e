import ast
from pathlib import Path

import memlqg

# Used only by tests until run diagnostics are exposed as data (ROADMAP item 3).
_UNREFERENCED = {"innovation_diagnostics", "InnovationReport.all_pass"}


def _modules():
    """(name, syntax tree) of every package module but __init__.py."""
    for path in sorted(Path(memlqg.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _read_names() -> set:
    """Every name the package's code reads (not in a string, an import or
    its own def/class line), outside __init__.py."""
    used = set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _public_definitions():
    """Public module-level functions and classes, and the public methods and
    properties of those classes, as 'name' or 'Class.name'."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for _, tree in _modules():
        for node in tree.body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def test_exports_resolve_sorted_and_unique():
    names = memlqg.__all__
    assert [n for n in names if getattr(memlqg, n, None) is None] == []
    assert names == sorted(names)
    assert len(names) == len(set(names))


def test_every_export_has_a_caller_in_the_package():
    used = _read_names()
    exempt = _UNREFERENCED & set(memlqg.__all__)
    assert sorted(set(memlqg.__all__) - used - exempt) == []
    assert exempt <= set(memlqg.__all__) - used


def test_every_public_definition_has_a_caller_in_the_package():
    """A public function, class, method or property that only tests read is
    test-only API: it goes, or it gets a caller."""
    used = _read_names()
    unread = {label for label, name in _public_definitions() if name not in used}
    assert sorted(unread - _UNREFERENCED) == []
    assert _UNREFERENCED <= unread
