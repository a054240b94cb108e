import ast
from pathlib import Path

import memlqg

# Used only by tests until run diagnostics are exposed as data (ROADMAP item 3).
_UNREFERENCED = {"innovation_diagnostics"}


def test_exports_resolve_sorted_and_unique():
    names = memlqg.__all__
    assert [n for n in names if getattr(memlqg, n, None) is None] == []
    assert names == sorted(names)
    assert len(names) == len(set(names))


def test_every_export_has_a_caller_in_the_package():
    """Each public name is read somewhere in the package's code (not in a
    string, an import or its own def/class line), outside __init__.py."""
    used = set()
    for path in Path(memlqg.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(memlqg.__all__) - used - _UNREFERENCED) == []
    assert _UNREFERENCED <= set(memlqg.__all__) - used
