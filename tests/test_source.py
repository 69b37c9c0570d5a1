"""Static checks on the package source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import flagke


def test_package_source_has_no_assert_statements():
    # `python -O` strips `assert`, so exact decisions raise AssertionError explicitly
    root = Path(flagke.__file__).resolve().parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_import_does_not_load_scipy():
    # scipy is a test dependency only: the package and its CLI must not need it
    code = "import sys, flagke, flagke.cli; print('scipy' in sys.modules)"
    src = str(Path(flagke.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_public_names_resolve():
    missing = [name for name in flagke.__all__ if not hasattr(flagke, name)]
    assert not missing, missing
    namespace = {}
    exec("from flagke import *", namespace)
    assert set(flagke.__all__) <= set(namespace)


def test_import_loads_every_module():
    # no module of the package survives only for tests
    root = Path(flagke.__file__).resolve().parent
    expected = {f"flagke.{path.stem}" for path in root.glob("*.py")} - {"flagke.__init__", "flagke.__main__"}
    code = "import sys, flagke, flagke.cli; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(root.parent)})
    loaded = set(out.stdout.split())
    assert expected <= loaded, sorted(expected - loaded)


def test_no_lru_cache_has_a_fixed_size():
    # a bounded cache thrashes once its keys outnumber it (a bare @lru_cache
    # holds 128); every cache of the package is keyed per algebra, diagram or end
    root = Path(flagke.__file__).resolve().parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            for dec in getattr(node, "decorator_list", ()):
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "attr", getattr(target, "id", None)) != "lru_cache":
                    continue
                sizes = [kw.value for kw in getattr(dec, "keywords", ()) if kw.arg == "maxsize"]
                sizes += getattr(dec, "args", [])[:1]
                if not (sizes and isinstance(sizes[0], ast.Constant) and sizes[0].value is None):
                    found.append(f"{path.name}:{dec.lineno}")
    assert not found, found
