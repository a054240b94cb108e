import argparse
import ast
from pathlib import Path

import pytest

import memlqg
from memlqg.cli import build_parser, parse_config_file
from memlqg.model import FILTER_MODES

# Used only by tests until run diagnostics are exposed as data (ROADMAP item 4).
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


def test_unknown_filter_mode_is_refused_alike_everywhere(tmp_path):
    """The filter modes are the keys of one table: every layer refuses an
    unknown mode with the same text, and the CLI offers exactly the keys."""
    params = memlqg.MemoryParams(nu=3.0, gamma=1.0, n_occ=2.0)
    enc = memlqg.standard_encoding(-230.0)
    noise = memlqg.standard_noise(memlqg.vacuum(), -0.8, params)
    texts = set()
    for call in (
        lambda: memlqg.measurement_model("s3", enc, params, noise),
        lambda: memlqg.LqgConfig(r=1.0, mode="s3"),
        lambda: enc.syndrome_map("s3"),
        lambda: memlqg.LoopBuilder(params, enc)(noise, "s3", 1.0),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        texts.add(str(exc.value))
    assert len(texts) == 1 and "unknown filter mode 's3'" in texts.pop()

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name in ("sweep-fidelity", "trajectory"):
        (flag,) = [a for a in sub.choices[name]._actions if a.dest == "filter_mode"]
        assert tuple(flag.choices) == tuple(FILTER_MODES)

    def fail(msg):
        raise SystemExit(msg)

    cfg = tmp_path / "run.cfg"
    for mode in FILTER_MODES:
        cfg.write_text(f"filter_mode = {mode}\n")
        assert parse_config_file(str(cfg), fail) == {"filter_mode": mode}
    cfg.write_text("filter_mode = s3\n")
    with pytest.raises(SystemExit, match="unknown filter mode 's3'"):
        parse_config_file(str(cfg), fail)
