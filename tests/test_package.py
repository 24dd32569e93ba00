import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import centext
from centext.cli import main


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(centext).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(centext.__all__)) == len(centext.__all__)
    assert set(centext.__all__) == public


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "centext"


def _trees(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _names_used(tree, strings=False) -> set:
    """Every identifier read in a module: names and attribute names, and
    with strings=True the parts of every string that is a dotted name
    (monkeypatch targets, the patch table of perfbench/spans.py)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                used.update(node.value.split("."))
    return used


def test_no_module_imports_a_name_it_never_uses():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(ROOT.glob("tests/*.py"))
    unused = []
    for path, tree in _trees(paths).items():
        used = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(ROOT)}: {name}")
    assert unused == []


def test_src_imports_only_the_standard_library():
    # every import in the package is relative or names a stdlib module
    outside = []
    for path, tree in _trees(sorted(SRC.glob("*.py"))).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.relative_to(ROOT)}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_every_private_definition_in_src_is_referenced():
    src = _trees(sorted(SRC.glob("*.py")))
    others = _trees(sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("perfbench/*.py")))
    # a definition is not a read, so any name read here is a reference
    used = set().union(*(_names_used(t, strings=True) for t in [*src.values(), *others.values()]))
    unreferenced = [
        f"{path.relative_to(ROOT)}: {node.name}"
        for path, tree in src.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in used
    ]
    assert unreferenced == []


# The public functions and methods that nothing in src/ reads, each with
# the reason it stays.  Any other public definition needs a caller in src/.
KEPT = {
    "rref": "named in the README",
    "kernel_basis": "named in the README",
    "rep_from_coords": "named in the README",
    "basis_vector": "named in the README",
    "evaluate": "named in the README",
    "multiply": "named in the README, wrapped by perfbench/spans.py",
    "contains": "Subspace and RootSubgroup membership; tests check cosets as sub.contains(x / y)",
    "coboundary_space": "wrapped by perfbench/spans.py, pinned by test_every_traced_name_resolves",
    "class_action_matrix": "wrapped by perfbench/spans.py, pinned by test_every_traced_name_resolves",
    "mat_vec": "wrapped by perfbench/spans.py, pinned by test_every_traced_name_resolves",
    "mat_mul": "wrapped by perfbench/spans.py, pinned by test_every_traced_name_resolves",
    "opposite": "tests build right-handed algebras with it",
    "compose": "the orbits from the group's generators will compose automorphisms",
    "same_orbit": "certified orbit labels will test orbit membership with it",
    "annihilator_intersection": "wrapped by perfbench/spans.py; tests check it against the kernel oracle",
    "annihilator": "tests check it against the kernel oracle; src/ reads only its dimension, by _annihilator_dim",
}


def _units(tree):
    """The top-level statements of a module, each class split into its
    bases, decorators and body statements."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (*node.bases, *node.decorator_list, *node.body)
        else:
            yield node


def test_every_public_definition_in_src_is_read_in_src():
    units = [unit for tree in _trees(sorted(SRC.glob("*.py"))).values() for unit in _units(tree)]
    names = [_names_used(unit) for unit in units]
    unread = {
        unit.name
        for k, unit in enumerate(units)
        if isinstance(unit, ast.FunctionDef)
        and not unit.name.startswith("_")
        and not any(unit.name in used for j, used in enumerate(names) if j != k)
    }
    assert {"unexplained": sorted(unread - set(KEPT)), "stale": sorted(set(KEPT) - unread)} == {
        "unexplained": [],
        "stale": [],
    }


def test_every_private_function_in_src_is_read_in_src():
    # a private function or method that only tests call is dead code;
    # dunder methods are called by Python itself
    units = [unit for tree in _trees(sorted(SRC.glob("*.py"))).values() for unit in _units(tree)]
    names = [_names_used(unit) for unit in units]
    unread = [
        unit.name
        for k, unit in enumerate(units)
        if isinstance(unit, ast.FunctionDef)
        and unit.name.startswith("_")
        and not unit.name.startswith("__")
        and not any(unit.name in used for j, used in enumerate(names) if j != k)
    ]
    assert unread == []


def test_src_has_no_assert_statement():
    # invariants raise typed errors, which python -O does not strip
    asserts = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _trees(sorted(SRC.glob("*.py"))).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_python_m_centext_runs_the_cli(capsys):
    src = str(Path(centext.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["identities", "--variety", "lc"]
    done = subprocess.run(
        [sys.executable, "-m", "centext", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )
    assert done.returncode == 0, done.stderr
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out
