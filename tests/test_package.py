import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import memlqg
from memlqg.cli import build_parser, parse_config_file
from memlqg.model import FILTER_MODES


def _modules():
    """(name, syntax tree) of every package module but __init__.py."""
    for path in sorted(Path(memlqg.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _read_names() -> set:
    """Every name the package's code reads (not in a string, an import,
    its own def/class line or an assignment to it), outside __init__.py."""
    used = set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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


def _private_definitions():
    """Private module-level functions, classes and constants, as
    'module.name'."""
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield f"{module}.{name}", name


def test_exports_resolve_sorted_and_unique():
    names = memlqg.__all__
    assert [n for n in names if getattr(memlqg, n, None) is None] == []
    assert names == sorted(names)
    assert len(names) == len(set(names))


def test_every_export_has_a_caller_in_the_package():
    assert sorted(set(memlqg.__all__) - _read_names()) == []


def test_every_public_definition_has_a_caller_in_the_package():
    """A public function, class, method or property that only tests read is
    test-only API: it goes, or it gets a caller."""
    used = _read_names()
    unread = {label for label, name in _public_definitions() if name not in used}
    assert sorted(unread) == []


def test_every_private_definition_has_a_reader_in_the_package():
    """A private function, class or constant that nothing in the package
    reads is dead code, whatever tests still reach it."""
    used = _read_names()
    unread = {label for label, name in _private_definitions() if name not in used}
    assert sorted(unread) == []


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


def test_import_loads_no_scipy():
    """The package runs on numpy alone: importing it and its CLI in a fresh
    interpreter leaves no scipy module loaded (scipy is a test oracle only)."""
    src = str(Path(memlqg.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, memlqg, memlqg.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
