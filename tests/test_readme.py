"""The README's examples run as written: every ``centext`` command of its
``sh`` blocks, its JSON file formats, and the values its quick tour states
in comments."""

import ast
import json
import re
import shlex
from pathlib import Path

import pytest

from centext import Algebra, BilinearForm
from centext.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def _commands():
    lines = "\n".join(_blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("centext ")]


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_readme_command_runs(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    json.loads(out)


def test_readme_commands_cover_every_subcommand():
    assert {argv[0] for argv in _commands()} == {
        "identities", "cohomology", "extend", "aut", "act", "classify", "verify-table1",
        "reproduce",
    }


def test_readme_json_formats_load():
    algebra, cocycle = (json.loads(block) for block in _blocks("json"))
    assert Algebra.from_json(algebra).dim == 3
    assert BilinearForm.from_json(cocycle).n == 3


def test_quick_tour_values_hold():
    """Run the quick tour; each line `code  # value` must have code
    evaluate to value, and the `dim Z = ...` comment must match h."""
    (tour,) = _blocks("python")
    ns = {}
    exec(tour, ns)
    checked = 0
    for line in tour.splitlines():
        code, sep, comment = line.partition("  # ")
        if not sep:
            continue
        dims = dict(re.findall(r"dim ([ZBH]) = (\d+)", comment))
        if dims:
            h = ns["h"]
            assert (h.dim_z, h.dim_b, h.dim_h) == tuple(int(dims[k]) for k in "ZBH")
        else:
            assert eval(code.strip(), ns) == ast.literal_eval(comment.strip()), line
        checked += 1
    assert checked == 4
