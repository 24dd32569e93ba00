"""Numbers and JSON entries read from outside the package: one number
grammar for every flag, spec, environment variable and literal, one JSON
entry reader for algebra and cocycle files, and one mod-p reduction.
Input that cannot be read is refused with a CentextError, and a
dimension is checked against the budget before anything is built."""

import itertools
import json
import random
import sys

import pytest

from centext import (
    Algebra,
    BilinearForm,
    BudgetExceeded,
    CentextError,
    ClassAction,
    CompositeModulus,
    Field,
    MalformedInput,
    RATIONALS,
    closed_field_representatives,
)
from centext import fields
from centext.budget import resolve_budget
from centext.cli import build_parser, main, parse_cocycle_expr
from centext.fields import Scalar

REFUSED = ["٣", "1_0", "1.5", "1e1", " 3"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_scalar_init_reduces_a_residue():
    assert Scalar(Field.prime(7), 9).value == 2
    assert Scalar(Field.prime(7), -1).value == 6
    f = Field.prime(5)
    assert (f.scalar(3) + f.scalar(4)).value == 2
    assert (f.scalar(3) - f.scalar(4)).value == 4
    assert (f.scalar(3) * f.scalar(4)).value == 2
    assert (-f.scalar(3)).value == 2
    assert f.from_raw(-7).value == 3
    assert f.scalar("-1/2").value == 2


@pytest.mark.parametrize("text", REFUSED)
def test_field_scalar_refuses_text_outside_the_grammar(text):
    for field in (RATIONALS, Field.prime(5)):
        with pytest.raises(ValueError):
            field.scalar(text)


def test_field_scalar_reads_signs_and_fractions():
    assert RATIONALS.scalar("+3") == 3
    assert RATIONALS.scalar("-1/2").literal() == "-1/2"
    assert RATIONALS.scalar("4/2").raw == 2
    assert Field.prime(5).scalar("+3") == 3


@pytest.mark.parametrize("text", REFUSED)
def test_field_spec_refuses_text_outside_the_grammar(text):
    with pytest.raises(CompositeModulus):
        Field.from_spec("Fp:" + text)
    assert Field.from_spec("Fp:+3") == Field.prime(3)


@pytest.mark.parametrize("text", REFUSED)
def test_mu0_spec_refuses_text_outside_the_grammar(capsys, text):
    spec = "mu0:" + text
    code, out, err = run(capsys, "cohomology", "--algebra", spec, "--variety", "lc")
    assert (code, out) == (2, "")
    assert repr(spec) in err and "invalid literal" not in err
    code, _, err = run(capsys, "cohomology", "--algebra", "mu0:+3", "--variety", "lc")
    assert code == 0, err


_INT_FLAGS = [
    ("aut", "--n", ["--col", "1,0,0"]),
    ("reproduce", "--n-max", []),
    ("reproduce", "--seed", []),
    ("reproduce", "--budget", []),
    ("classify", "--budget", ["--n", "3", "--field", "Fp:3", "--variety", "lc"]),
]


@pytest.mark.parametrize("command, flag, rest", _INT_FLAGS)
def test_integer_flags_follow_the_grammar(capsys, command, flag, rest):
    parser = build_parser()
    for text in REFUSED + ["3/1"]:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, *rest, f"{flag}={text}"])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err
    args = parser.parse_args([command, *rest, f"{flag}=+3"])
    assert getattr(args, flag[2:].replace("-", "_")) == 3


@pytest.mark.parametrize("text", REFUSED)
def test_primes_follow_the_grammar(capsys, text):
    code, out, err = run(capsys, "reproduce", "--n-max", "2", "--primes", f"3,{text}")
    assert (code, out) == (2, "")
    assert err == f"error: --primes: {text!r} is not an integer\n"
    code, out, _ = run(capsys, "reproduce", "--n-max", "2", "--primes", "+3")
    assert code == 0 and json.loads(out)["ok"]


@pytest.mark.parametrize("text", REFUSED)
def test_budget_variable_follows_the_grammar(monkeypatch, text):
    monkeypatch.setenv("CENTEXT_BUDGET", text)
    with pytest.raises(BudgetExceeded, match="CENTEXT_BUDGET"):
        resolve_budget(None)
    monkeypatch.setenv("CENTEXT_BUDGET", "+3")
    assert resolve_budget(None) == 3


@pytest.mark.parametrize("text", REFUSED)
def test_column_and_mu_follow_the_grammar(capsys, text):
    code, out, _ = run(capsys, "aut", "--n", "3", "--col", f"{text},0,0")
    assert (code, out) == (2, "")
    code, out, err = run(capsys, "verify-table1", "--n", "3", "--mu", f"0,{text}")
    assert (code, out) == (2, "")
    assert err == f"error: --mu: {text!r} is not a scalar of Q\n"
    code, out, _ = run(capsys, "aut", "--n", "3", "--col", "+3,-1/2,0")
    assert code == 0 and json.loads(out)["column"] == ["3", "-1/2", "0"]
    code, out, _ = run(capsys, "verify-table1", "--n", "3", "--mu", "+3,-1/2")
    assert code == 0 and json.loads(out)["ok"]


def _cocycle_doc(c):
    return {"n": 3, "field": "Q", "entries": [{"i": 3, "j": 1, "c": c}]}


def _algebra_doc(c):
    return {"dim": 2, "field": "Q", "products": [{"i": 1, "j": 1, "out": [{"k": 2, "c": c}]}]}


def _write(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _extend(capsys, tmp_path, cocycle):
    """`extend` of mu0:3 (lc) by the cocycle file holding the given document."""
    return run(capsys, "extend", "--algebra", "mu0:3", "--variety", "lc",
               "--cocycle", _write(tmp_path, cocycle))


def _cohomology(capsys, tmp_path, algebra):
    """`cohomology` (lc) of the algebra file holding the given document."""
    return run(capsys, "cohomology", "--variety", "lc", "--algebra", _write(tmp_path, algebra))


@pytest.mark.parametrize("text", REFUSED)
def test_json_literals_follow_the_grammar(capsys, tmp_path, text):
    code, out, _ = _extend(capsys, tmp_path, _cocycle_doc(text))
    assert (code, out) == (2, "")
    code, out, _ = _cohomology(capsys, tmp_path, _algebra_doc(text))
    assert (code, out) == (2, "")


def test_json_literals_read_signs_and_fractions(capsys, tmp_path):
    for c in ("+3", "-1/2"):
        code, out, err = _extend(capsys, tmp_path, _cocycle_doc(c))
        assert code == 0, err
        assert json.loads(out)["cocycles"][0]["matrix"][6] == c.lstrip("+")
        algebra = Algebra.from_json(_algebra_doc(c))
        assert algebra.table[0][0][1] == RATIONALS.scalar(c)


def test_a_repeated_json_entry_exits_2(capsys, tmp_path):
    repeated = [
        {"n": 3, "field": "Q", "entries": [{"i": 3, "j": 1, "c": "1"}, {"i": 3, "j": 1, "c": "5"}]},
        {"n": 3, "field": "Q", "entries": [{"i": 3, "j": 1, "c": "0"}, {"i": 3, "j": 1, "c": "0"}]},
    ]
    for doc in repeated:
        code, out, err = _extend(capsys, tmp_path, doc)
        assert (code, out) == (2, "")
        assert err == "error: entry i=3 j=1 of 'entries' is repeated\n"
    products = [
        ([{"i": 1, "j": 1, "out": [{"k": 2, "c": "1"}]},
          {"i": 1, "j": 1, "out": [{"k": 2, "c": "1"}]}], "i=1 j=1 of 'products'"),
        ([{"i": 1, "j": 1, "out": [{"k": 2, "c": "1"}, {"k": 2, "c": "0"}]}], "k=2 of 'out'"),
    ]
    for entries, where in products:
        doc = {"dim": 2, "field": "Q", "products": entries}
        code, out, err = _cohomology(capsys, tmp_path, doc)
        assert (code, out) == (2, "")
        assert err == f"error: entry {where} is repeated\n"


_LITERALS = ["0", "1", "-1", "+2", "3", "-4/3", "5/7", 6, 0, -9]


@pytest.mark.parametrize("field", [RATIONALS, Field.prime(2), Field.prime(5)])
def test_algebra_from_json_matches_the_scalar_built_algebra(monkeypatch, field):
    rng = random.Random(str(field))
    for _ in range(25):
        n = rng.randint(1, 4)
        table = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
        products = []
        for i, j in itertools.product(range(n), repeat=2):
            if rng.random() < 0.4:
                continue
            out = []
            for k in rng.sample(range(n), rng.randint(0, n)):
                c = rng.choice(_LITERALS)
                out.append({"k": k + 1, "c": c})
                table[i][j][k] = field.scalar(c)
            products.append({"i": i + 1, "j": j + 1, "out": out})
        rng.shuffle(products)
        doc = {"dim": n, "field": field.spec(), "products": products}
        created = []
        init = Scalar.__init__
        with monkeypatch.context() as m:
            m.setattr(Scalar, "__init__", lambda self, *args: created.append(1) or init(self, *args))
            a = Algebra.from_json(doc)
        assert created == []
        expected = Algebra(field, table)
        assert a == expected and hash(a) == hash(expected)
        assert all(c for row in a._sparse for vec in row for _, c in vec)  # "0" terms dropped
        assert a.table == expected.table
        assert Algebra.from_json(a.to_json()) == a


def test_json_entries_makes_indices_0_based_and_reads_raw_values():
    data = {"xs": [{"i": 2, "j": 1, "c": "-1/2"}, {"i": 1, "j": 2, "c": 7}]}
    entries = fields.json_entries(Field.prime(5), data, "xs", ("i", "j"), 2)
    assert {at: c % 5 for at, c in entries.items()} == {(1, 0): 2, (0, 1): 2}
    entries = fields.json_entries(RATIONALS, data, "xs", ("i", "j"), 2)
    assert entries == {(1, 0): fields.Fraction(-1, 2), (0, 1): 7}


def test_malformed_library_input_is_a_typed_error(capsys):
    # MalformedInput is also a ValueError, so callers that catch that still do
    calls = [
        (lambda: parse_cocycle_expr("nabla_1 nabla_2", 3, RATIONALS),
         "no '+' or '-' before the term at 'nabla_2'"),
        (lambda: closed_field_representatives("lc", 3, Field.prime(5), level="x"),
         "level must be 'H2' or 'T1', not 'x'"),
        (lambda: ClassAction(2, "lc", Field.prime(3)).normalize_line((0, 0)),
         "zero vector spans no line"),
    ]
    for call, message in calls:
        with pytest.raises(MalformedInput) as info:
            call()
        assert str(info.value) == message
        assert isinstance(info.value, CentextError) and isinstance(info.value, ValueError)
    assert run(capsys, "aut", "--n", "3") == (2, "", "error: aut needs --col and/or --count\n")


def test_a_form_document_is_bounded_before_it_is_built(monkeypatch):
    for doc in ({"n": 1000000, "field": "Q", "entries": []},
                {"dim": 1000000, "field": "Q", "matrix": []}):
        with pytest.raises(BudgetExceeded, match="^1000000000000 form entries exceed budget 500000$"):
            BilinearForm.from_json(doc)
    monkeypatch.setenv("CENTEXT_BUDGET", "9")
    assert BilinearForm.from_json({"n": 3, "field": "Q", "entries": []}).n == 3
    with pytest.raises(BudgetExceeded):
        BilinearForm.from_json({"n": 4, "field": "Q", "entries": []})


def test_deeply_nested_json_files_exit_2_with_one_error_line(capsys, tmp_path):
    algebra = tmp_path / "deep.json"
    algebra.write_text("[" * 100000 + "]" * 100000)
    cocycle = tmp_path / "cocycle.json"
    cocycle.write_text('{"n": 3, "field": "Q", "entries": ' + "[" * 50000 + "]" * 50000 + "}")
    for argv in (
        ("cohomology", "--algebra", str(algebra), "--variety", "lc"),
        ("extend", "--algebra", "mu0:3", "--variety", "lc", "--cocycle", str(cocycle)),
        ("act", "--n", "3", "--col", "1,0,0", "--cocycle", str(cocycle)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert "JSON nested too deeply" in err and "Traceback" not in err


def test_a_file_that_is_no_json_exits_2_with_an_error_naming_it(capsys, tmp_path):
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"n": 3, ')
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"n": 3, "field": "\xff"}')
    paths = [truncated, latin]
    if hasattr(sys, "get_int_max_str_digits"):  # json refuses longer ints
        paths.append(tmp_path / "long.json")
        paths[-1].write_text('{"n": 3, "field": "Q", "entries": [{"i": 1, "j": 1, "c": 1' + "0" * 5000 + "}]}")
    for path in paths:
        for argv in (
            ("cohomology", "--algebra", str(path), "--variety", "lc"),
            ("extend", "--algebra", "mu0:3", "--variety", "lc", "--cocycle", str(path)),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.count("\n") == 1 and err.startswith(f"error: {path}: "), err


def test_a_repeated_json_key_exits_2_with_an_error_naming_it(capsys, tmp_path):
    # json keeps the last value of a repeated key, so the second "c" would
    # silently replace the first
    cases = [
        ('{"n": 3, "n": 3, "field": "Q", "entries": []}', "n"),
        ('{"n": 3, "field": "Q", "entries": [{"i": 3, "j": 1, "c": "1", "c": "5"}]}', "c"),
    ]
    for text, key in cases:
        path = tmp_path / "dup.json"
        path.write_text(text)
        code, out, err = run(capsys, "extend", "--algebra", "mu0:3", "--variety", "lc", "--cocycle", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: repeated key '{key}'\n"


_FILE_COMMANDS = (
    (_cocycle_doc, ("extend", "--algebra", "mu0:3", "--variety", "lc", "--cocycle")),
    (_algebra_doc, ("cohomology", "--variety", "lc", "--algebra")),
)


def test_a_byte_order_mark_opening_a_json_file_is_ignored(capsys, tmp_path):
    for doc, argv in _FILE_COMMANDS:
        outs = []
        for encoding in ("utf-8", "utf-8-sig"):
            path = tmp_path / f"{encoding}.json"
            path.write_text(json.dumps(doc("-1/2")), encoding=encoding)
            code, out, err = run(capsys, *argv, str(path))
            assert (code, err) == (0, ""), err
            outs.append(out)
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert outs[0] == outs[1]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="ints of any length are read")
def test_a_json_integer_too_long_to_read_is_refused_by_the_grammar(capsys, tmp_path):
    path = tmp_path / "long.json"
    for doc, argv in _FILE_COMMANDS:
        path.write_text(json.dumps(doc("X")).replace('"X"', "1" + "0" * 5000))
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: a literal of 5001 characters is too long\n"
        assert "set_int_max_str_digits" not in err


def test_an_expression_index_too_long_to_read_is_malformed_input(capsys):
    text = "delta_" + "9" * 5000 + "_1"
    with pytest.raises(MalformedInput, match="^a literal of 5000 characters is too long$"):
        parse_cocycle_expr(text, 3, RATIONALS)
    code, out, err = run(capsys, "extend", "--algebra", "mu0:3", "--variety", "lc",
                         "--cocycle", f"expr:{text}")
    assert (code, out) == (2, "")
    assert err == "error: a literal of 5000 characters is too long\n"
