"""Static checks on the package source."""

import ast
import importlib
import importlib.util
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


def test_import_does_not_load_scipy(tmp_path):
    # scipy is a test dependency only: the package and its CLI must not need it.
    # numpy is loaded only where a profile is built: importing the package and
    # its CLI, the exact commands and reading `__all__` load neither
    code = "\n".join([
        "import contextlib, io, sys, flagke, flagke.cli",
        "def loaded(): print(sorted({'scipy', 'numpy'} & set(sys.modules)))",
        "loaded()",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for argv in (['koszul', 'D5:o*oo*'], ['classify', 'A3:*o*', '--m1', '--chi', '1,1'],",
        f"                 ['census', '--family', 'A', '--max-rank', '2', '--out', {str(tmp_path / 'c.jsonl')!r}]):",
        "        assert flagke.cli.main(argv) == 0, argv",
        "loaded()",
        "names = list(flagke.__all__)",
        "loaded()",
    ])
    src = str(Path(flagke.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split("\n") == ["[]", "[]", "[]", ""], out.stdout


def test_public_names_resolve():
    missing = [name for name in flagke.__all__ if not hasattr(flagke, name)]
    assert not missing, missing
    namespace = {}
    exec("from flagke import *", namespace)
    assert set(flagke.__all__) <= set(namespace)


def test_import_loads_every_module():
    # no module of the package survives only for tests: the package, its CLI
    # and one `flagke profile` (which loads `flagke.profile`) reach them all
    root = Path(flagke.__file__).resolve().parent
    expected = {f"flagke.{path.stem}" for path in root.glob("*.py")} - {"flagke.__init__", "flagke.__main__"}
    code = "\n".join([
        "import contextlib, io, sys, flagke, flagke.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    argv = ['profile', 'A1:*', '--m1', '--chi', '3', '--lambda', '-1', '--samples', '2']",
        "    assert flagke.cli.main(argv) == 0",
        "print(' '.join(sorted(sys.modules)))",
    ])
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


def _module_reads(tree: ast.AST, package: str, level: int) -> tuple[dict, set]:
    """The modules imported by `from <package> import module [as alias]` at
    `level`, by alias, and the (module, name) of every `alias.name` read."""
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module, node.level) == (package, level)
               for alias in node.names}
    used = {(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules}
    return modules, used


WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def _worker_reads() -> tuple[dict, set]:
    # the benchmark worker calls the package through `from flagke import module [as alias]`
    return _module_reads(ast.parse(WORKER.read_text(encoding="utf-8")), "flagke", 0)


def test_benchmark_entry_points_resolve():
    # every `alias.name` the benchmark worker reads must still exist
    modules, used = _worker_reads()
    assert {mod for mod, _ in used} == set(modules.values()), sorted(used)  # the scan sees every module
    missing = [f"{mod}.{name}" for mod, name in sorted(used)
               if not hasattr(importlib.import_module(f"flagke.{mod}"), name)]
    assert not missing, missing


def test_benchmark_passes_run_without_failure(tmp_path):
    # one small spec per workload through the benchmark worker's own passes:
    # a change of the package API that would fail every benchmark pass fails here
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    runs = [
        (worker.chi_sweep_pass, {"chi_range": [-1, 0, 1],
                                 "diagrams": [{"key": "B4:*oo*", "starts": [2], "k": 2}]}),
        (worker.profile_pass, {"rows": 2, "data": [{"key": "A11:oo*oo*ooooo", "start": 1, "end": "left",
                                                    "chi": [1, 1], "lam": "1", "check_rows": [1]}]}),
        (worker.census_pass, {"family": "A", "max_rank": 3, "out": str(tmp_path / "census.jsonl"),
                              "summary": str(tmp_path / "census.csv")}),
    ]
    for run_pass, pass_spec in runs:
        p = worker.Pass()
        run_pass(pass_spec, p, None)
        assert p.attempted > 0 and p.failed == 0, (run_pass.__name__, p.errors)


def test_end_orientation_is_decided_in_bundle():
    # `bundle.End.sign` carries the mirror of the right end: no other module
    # compares with an end's name
    root = Path(flagke.__file__).resolve().parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "bundle.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            operands += [e for op in operands if isinstance(op, (ast.Tuple, ast.List, ast.Set)) for e in op.elts]
            if any(isinstance(op, ast.Constant) and op.value in ("left", "right") for op in operands):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_the_profile_table_reads_lambda_only_through_its_sign():
    # a profile's table is built in v = |lambda| u from the unit pairs and
    # sign lambda, so lambda's magnitude and the coordinate u enter only at
    # the query boundary: the exact set-up and the table read none of them
    path = Path(flagke.__file__).resolve().parent / "profile.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    table = {"_j_expansion", "_j_exact", "_end", "_parts"}
    scopes = [node for node in classes["MetricProfile"].body if getattr(node, "name", None) in table]
    assert {node.name for node in scopes} == table
    unscaled = {"lam", "pairs", "_scale", "_float_scales", "u_exit", "u_sup"}
    found = [f"{path.name}:{node.lineno} .{node.attr}" for scope in scopes + [classes["_Part"]]
             for node in ast.walk(scope) if isinstance(node, ast.Attribute) and node.attr in unscaled]
    assert not found, found


def test_the_profile_pairs_roots_without_rootspace_inner():
    # a profile takes each root's pair as two integer dot products, one
    # Fraction pair per distinct value; `inner` makes a Fraction per root
    path = Path(flagke.__file__).resolve().parent / "profile.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "inner"
             or isinstance(node, ast.Name) and node.id == "inner"
             or isinstance(node, ast.alias) and node.name == "inner"]
    assert not found, found


def test_kappa_sq_builds_no_weight():
    # kappa^2 is one integer dot product of xi_0's numerators: `bundle.kappa`
    # and the module functions it calls build no weight and pair none
    path = Path(flagke.__file__).resolve().parent / "bundle.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    called = {node.func.id for node in ast.walk(defs["kappa"])
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in defs}
    forbidden = {"from_numerators", "Weight", "kappa_z0_form", "inner"}
    found = [f"{path.name}:{node.lineno}" for scope in ["kappa", *sorted(called)]
             for node in ast.walk(defs[scope])
             if isinstance(node, ast.Attribute) and node.attr in forbidden
             or isinstance(node, ast.Name) and node.id in forbidden
             or isinstance(node, ast.alias) and node.name in forbidden]
    assert not found, found


# public names without a reader in the package or the benchmark, and why each stays
UNREAD_PUBLIC_NAMES = {
    "diagram": "the README library example builds its diagram with it",
    "verdiani_check": "ROADMAP item 11 makes it part of `flagke profile --diagnostics`",
}


def _attribute_reads(tree: ast.AST, skip: ast.AST = None) -> set:
    """Every name read as `<expr>.name` in `tree`, outside the subtree `skip`."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_name_has_a_reader():
    # no public name survives only for tests: each is read as `module.name` in
    # another module of the package, bare in its own module outside its own
    # def or class, or as `alias.name` by the benchmark worker.  Each public
    # method and property of a public class is read as `.name` in another
    # module of the package, in its own module outside its own def, or by the
    # benchmark worker
    root = Path(flagke.__file__).resolve().parent
    readers = set(_worker_reads()[1])
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in root.glob("*.py")
             if path.name != "__init__.py"}
    for tree in trees.values():
        readers |= _module_reads(tree, None, 1)[1]
    unread = set()
    for name in flagke.__all__:
        module = getattr(flagke, name).__module__.rpartition(".")[2]
        outside = [node for node in trees[module].body
                   if getattr(node, "name", None) != name or not isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        bare = any(isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                   for top in outside for node in ast.walk(top))
        if not bare and (module, name) not in readers:
            unread.add(name)
        if not isinstance(getattr(flagke, name), type):
            continue
        elsewhere = _attribute_reads(ast.parse(WORKER.read_text(encoding="utf-8")))
        elsewhere = elsewhere.union(*(_attribute_reads(tree) for stem, tree in trees.items() if stem != module))
        (cls,) = [node for node in trees[module].body if isinstance(node, ast.ClassDef) and node.name == name]
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and not method.name.startswith("_") and \
                    method.name not in elsewhere | _attribute_reads(trees[module], skip=method):
                unread.add(f"{name}.{method.name}")
    assert unread == set(UNREAD_PUBLIC_NAMES), sorted(unread)
