import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import centext
from centext.cli import main


def test_all_lists_every_public_name():
    assert len(set(centext.__all__)) == len(centext.__all__)
    for name in centext.__all__:
        module = importlib.import_module(f"centext.{centext._EXPORTS[name]}")
        value = getattr(centext, name)
        assert value is getattr(module, name), name
        assert not isinstance(value, types.ModuleType), name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == module.__name__, name  # the defining module
    bound = {
        name
        for name, value in vars(centext).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound - set(centext.__all__) == set()
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        centext.__getattr__("no_such_name")


def _modules_loaded(code: str) -> set:
    """The centext modules in sys.modules after a fresh interpreter runs code."""
    src = str(Path(centext.__file__).resolve().parent.parent)
    probe = code + "\nprint(sorted(m for m in sys.modules if m.startswith('centext')))"
    done = subprocess.run(
        [sys.executable, "-c", "import sys\n" + probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
        check=True,
    )
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))


def test_import_centext_loads_no_submodule_until_a_name_is_used():
    assert _modules_loaded("import centext") == {"centext"}
    loaded = _modules_loaded("import centext\ncentext.orbits\ncentext.Field")
    assert {"centext.orbits", "centext.fields"} <= loaded
    assert "centext.reproduce" not in loaded and "centext.cli" not in loaded


# the modules that only some subcommands load
OPTIONAL = {"centext.extensions", "centext.orbits", "centext.reproduce"}


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["identities", "--variety", "lc"], set()),
        (["cohomology", "--algebra", "mu0:3", "--variety", "lc"], set()),
        (["extend", "--algebra", "mu0:3", "--variety", "lc", "--cocycle", "expr:nabla_n"], {"extensions"}),
        (["classify", "--n", "3", "--field", "Fp:3", "--variety", "lc"], {"extensions", "orbits"}),
        (["verify-table1", "--n", "3"], {"extensions", "orbits"}),
        (["reproduce", "--n-max", "2", "--primes", "3"], {"extensions", "orbits", "reproduce"}),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else "+".join(sorted(v)) or "shared",
)
def test_each_command_loads_only_its_modules(argv, loads):
    code = (
        "import contextlib, io\n"
        "from centext.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main({argv!r})\n"
        "assert rc == 0, rc"
    )
    assert _modules_loaded(code) & OPTIONAL == {f"centext.{m}" for m in loads}

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
    "entry": "named in the README",
    "basis": "the only way to read the vectors of the Subspace that annihilator_intersection returns",
    "orbit_of_class": "the criterion-9 acceptance test reads it",
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
    # a method or property is read only as an attribute (x.name): a local
    # variable or a module function of the same name is no read of it
    trees = _trees(sorted(SRC.glob("*.py"))).values()
    methods = {id(node) for tree in trees for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body}
    units = [unit for tree in trees for unit in _units(tree)]
    names = [_names_used(unit) for unit in units]
    attributes = [{node.attr for node in ast.walk(unit) if isinstance(node, ast.Attribute)} for unit in units]
    unread = {
        unit.name
        for k, unit in enumerate(units)
        if isinstance(unit, ast.FunctionDef)
        and not unit.name.startswith("_")
        and not any(unit.name in used for j, used in enumerate(attributes if id(unit) in methods else names) if j != k)
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
