"""A seeded mutation probe of the inputs read from outside: an algebra
file, a cocycle file in both formats, a cocycle expression and a --mu
sample, each mutated a few dozen times.  Every mutant handed to the CLI
exits 0, 1 or 2, and exit 2 prints one ``error:`` line; every refusal of
``Algebra.from_json`` and ``BilinearForm.from_json`` is a CentextError."""

import json
import random

import pytest

from centext import RATIONALS, Algebra, BilinearForm, CentextError, nabla, null_filiform
from centext.cli import main

SEED = 20201
ALGEBRA = null_filiform(3, RATIONALS).to_json()
ENTRIES = {"n": 3, "field": "Q",
           "entries": [{"i": 1, "j": 3, "c": "1"}, {"i": 2, "j": 2, "c": "1"}, {"i": 3, "j": 1, "c": "1/2"}]}
MATRIX = nabla(3, 3, RATIONALS).to_json()
EXPRESSION = "nabla_n - 1/2*delta_3_1 + 2 delta_2_1"
MU = "1,-1/2,0"

# what a mutation may put in a JSON document or a text
VALUES = ["x", "1.5", 1.5, True, None, -1, 0, 4, 10**6, "1/0", "-1/2", "Fp:4", "Fp:7", "", [], {}, [1],
          {"k": 1}, "٣", "1e1"]
CHARS = list("\"{}[],:-+/*_ .0123456789exn") + ["٣", "nabla_", "delta_"]


def _mutate_text(rng, text):
    k = rng.randrange(len(text) + 1)
    span = rng.randint(1, 3)
    kind = rng.randrange(4)
    if kind == 0:
        return text[:k] + text[k + span:]
    if kind == 1:
        return text[:k] + rng.choice(CHARS) + text[k:]
    if kind == 2:
        return text[:k] + rng.choice(CHARS) + text[k + 1:]
    return text[:k] + text[k:k + span] * 2 + text[k + span:]


def _nodes(doc, path=()):
    """Every (path, value) under doc, the root included."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _mutate_doc(rng, doc):
    doc = json.loads(json.dumps(doc))
    path, _ = rng.choice(list(_nodes(doc))[1:])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kind = rng.randrange(3)
    if kind == 0 or isinstance(parent, list) and kind == 1:
        parent[key] = rng.choice(VALUES)
    elif kind == 1:
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, parent[key])
    else:
        parent[rng.choice(["dim", "n", "field", "i", "j", "k", "c", "out", "matrix", "entries"])] = parent[key]
    return doc


def _mutants(rng, seed, count, doc=True):
    """count mutants of seed: half rewrite a node of a document, half edit
    its text; one or two mutations each."""
    out = []
    for m in range(count):
        if doc and m % 2 == 0:
            x = seed
            for _ in range(rng.randint(1, 2)):
                x = _mutate_doc(rng, x)
            out.append(json.dumps(x))
        else:
            text = json.dumps(seed) if doc else seed
            for _ in range(rng.randint(1, 2)):
                text = _mutate_text(rng, text)
            out.append(text)
    return out


def _run(capsys, argv):
    """The exit code of the CLI on argv; a refusal prints one error line."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    return code


def test_mutated_inputs_exit_0_1_or_2(capsys, monkeypatch, tmp_path):
    # the budget keeps a mutated dimension cheap: it refuses lc on an
    # algebra of dimension 14 and more before the walk
    monkeypatch.setenv("CENTEXT_BUDGET", "5000")
    rng = random.Random(SEED)
    path = str(tmp_path / "input.json")
    codes = []
    for text in _mutants(rng, ALGEBRA, 80):
        with open(path, "w") as fh:
            fh.write(text)
        codes.append(_run(capsys, ["cohomology", "--algebra", path, "--variety", "lc"]))
    for text in _mutants(rng, ENTRIES, 60) + _mutants(rng, MATRIX, 60):
        with open(path, "w") as fh:
            fh.write(text)
        codes.append(_run(capsys, ["extend", "--algebra", "mu0:3", "--variety", "lc", "--cocycle", path]))
        codes.append(_run(capsys, ["act", "--n", "3", "--col", "1,1,0", "--cocycle", path, "--variety", "lc"]))
    for text in _mutants(rng, EXPRESSION, 60, doc=False):
        codes.append(_run(capsys, ["extend", "--algebra", "mu0:3", "--variety", "lc", f"--cocycle=expr:{text}"]))
        codes.append(_run(capsys, ["act", "--n", "3", "--col", "1,1,0", f"--cocycle=expr:{text}"]))
    for text in _mutants(rng, MU, 40, doc=False):
        codes.append(_run(capsys, ["verify-table1", "--n", "3", f"--mu={text}"]))
    # the probe reaches both outcomes
    assert codes.count(0) > 25 and codes.count(2) > 300


@pytest.mark.parametrize("reader, seeds", [
    (Algebra.from_json, [ALGEBRA]),
    (BilinearForm.from_json, [ENTRIES, MATRIX]),
], ids=["Algebra", "BilinearForm"])
def test_every_refusal_of_a_json_mutant_is_typed(reader, seeds):
    rng = random.Random(SEED)
    untyped = []
    for seed in seeds:
        for text in _mutants(rng, seed, 300):
            try:
                doc = json.loads(text)
            except ValueError:
                continue
            try:
                reader(doc)
            except CentextError:
                pass
            except Exception as exc:  # the probe reports every other kind
                untyped.append((text, repr(exc)))
    assert not untyped, f"{len(untyped)} untyped refusals, first {untyped[:3]}"
