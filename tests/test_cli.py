import argparse
import json
import random
import re

import pytest

from centext import (
    VARIETY_NAMES,
    Algebra,
    BilinearForm,
    CentextError,
    CharTooSmall,
    CompositeModulus,
    DimMismatch,
    Field,
    InvalidDim,
    NotACocycle,
    RATIONALS,
    automorphism_count,
    automorphism_from_column,
    builtin_variety,
    check_cocycle,
    delta,
    nabla,
    null_filiform,
    run_reproduction,
    second_cohomology,
)
from centext.cli import build_parser, main, parse_cocycle_expr


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_identities_lists_catalog(capsys):
    data = run_json(capsys, "identities", "--variety", "novikov")
    assert data["variety"] == "novikov"
    assert len(data["identities"]) == 2
    assert all(i["multilinear"] for i in data["identities"])
    data = run_json(capsys, "identities", "--variety", "jordan")
    assert data["char_exclusions"] == [2, 3]
    assert any(not i["multilinear"] for i in data["identities"])
    assert len(data["multilinearized"]) == 2


def test_cohomology_output(capsys):
    data = run_json(
        capsys, "cohomology", "--algebra", "mu0:4", "--variety", "lc"
    )
    assert (data["dim_z"], data["dim_b"], data["dim_h"]) == (7, 3, 4)
    labels = [r["label"] for r in data["h_representatives"]]
    assert labels == ["nabla4", "delta2_1", "delta3_1", "delta4_1"]
    assert data["preferred_basis_used"]
    assert len(data["z_basis"]) == 7


def test_extend_with_expression(capsys):
    data = run_json(
        capsys,
        "extend",
        "--algebra",
        "mu0:3",
        "--variety",
        "lc",
        "--cocycle",
        "expr:nabla_n + 2*delta_2_1",
    )
    assert data["non_split"] is True
    assert data["t1"] is True
    assert data["annihilator_dim"] == 1
    assert data["class_coordinates"] == [["1", "2", "0"]]
    assert data["extended"]["dim"] == 4


def test_extend_zero_class_reports_t1_false(capsys):
    data = run_json(
        capsys,
        "extend",
        "--algebra",
        "mu0:3",
        "--variety",
        "lc",
        "--cocycle",
        "named:nabla_2",
    )
    assert data["non_split"] is False
    assert data["t1"] is False


def test_extend_nonzero_class_outside_t1_reports_t1_false(capsys):
    data = run_json(
        capsys,
        "extend",
        "--algebra",
        "mu0:3",
        "--variety",
        "lc",
        "--cocycle",
        "named:delta_2_1",
    )
    assert data["non_split"] is True
    assert data["annihilator_dim"] == 2
    assert data["t1"] is False


def test_extend_multiple_cocycles(capsys):
    data = run_json(
        capsys,
        "extend",
        "--algebra",
        "mu0:3",
        "--variety",
        "lc",
        "--cocycle",
        "named:nabla_n",
        "--cocycle",
        "named:delta_2_1",
    )
    assert data["extended"]["dim"] == 5
    assert data["t1"] is None
    assert len(data["class_coordinates"]) == 2


def test_cocycle_json_file(capsys, tmp_path):
    from centext import delta

    theta = delta(2, 1, 3, RATIONALS)
    path = tmp_path / "form.json"
    path.write_text(json.dumps(theta.to_json()))
    data = run_json(
        capsys,
        "extend",
        "--algebra",
        "mu0:3",
        "--variety",
        "lc",
        "--cocycle",
        str(path),
    )
    assert data["annihilator_dim"] == 2
    assert data["t1"] is False


def test_algebra_json_file(capsys, tmp_path):
    a = null_filiform(3, RATIONALS)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(a.to_json()))
    via_file = run_json(capsys, "cohomology", "--algebra", str(path), "--variety", "bc")
    via_name = run_json(capsys, "cohomology", "--algebra", "mu0:3", "--variety", "bc")
    assert via_file == via_name


def test_a_non_cocycle_gets_the_same_error_from_every_entry_point(capsys):
    # H^2 decides whether a form is a cocycle and names its first failing
    # equation: reduce_class, the module-level walk, extend and act --variety
    # all give one text
    a, lc, theta = null_filiform(3, RATIONALS), builtin_variety("lc"), delta(2, 2, 3, RATIONALS)
    h = second_cohomology(a, lc)
    texts = set()
    for check in (h.reduce_class, lambda t: check_cocycle(a, lc, t)):
        with pytest.raises(NotACocycle) as exc:
            check(theta)
        texts.add(str(exc.value))
    (text,) = texts
    assert "fails at" in text
    for argv in (
        ("act", "--n", "3", "--col", "1,0,0", "--cocycle", "expr:delta_2_2", "--variety", "lc"),
        ("extend", "--algebra", "mu0:3", "--variety", "lc", "--cocycle", "expr:delta_2_2"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {text}\n")


def test_cohomology_of_an_algebra_outside_the_variety_exits_2(capsys, tmp_path):
    o, z = RATIONALS.one, RATIONALS.zero
    not_lc = Algebra(RATIONALS, [[[o, z], [z, o]], [[z, z], [z, z]]]).opposite()
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(not_lc.to_json()))
    code, out, err = run(capsys, "cohomology", "--algebra", str(path), "--variety", "lc")
    assert (code, out, err) == (2, "", "error: algebra does not satisfy left_commutative\n")
    data = run_json(capsys, "cohomology", "--algebra", str(path), "--variety", "rc")
    assert data["dim_h"] == data["dim_z"] - data["dim_b"]  # it is right-commutative


def test_aut_subcommand(capsys):
    data = run_json(capsys, "aut", "--n", "3", "--field", "Fp:5", "--col", "1,1,0")
    assert data["matrix"] == [["1", "0", "0"], ["1", "1", "0"], ["0", "2", "1"]]
    assert data["phi11"] == "1"
    data = run_json(capsys, "aut", "--n", "3", "--field", "Fp:5", "--count")
    assert data["count"] == 100
    code, _, err = run(capsys, "aut", "--n", "3", "--field", "Fp:5")
    assert code == 2 and "col" in err


def test_aut_and_act_refuse_a_column_of_the_wrong_length(capsys):
    for argv in (
        ("aut", "--n", "3", "--col", "1,2"),
        ("aut", "--n", "2", "--col", "1,2,0"),
        ("act", "--n", "3", "--col", "1,2", "--cocycle", "named:nabla_n"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        n, length = int(argv[2]), len(argv[4].split(","))
        assert err == f"error: column length {length} != {n}\n"
    with pytest.raises(DimMismatch):
        automorphism_from_column(3, RATIONALS, ["1", "2"])


def test_aut_count_refuses_a_dimension_below_one(capsys):
    for n in ("0", "-1"):
        code, out, err = run(capsys, "aut", "--n", n, "--count", "--field", "Fp:5")
        assert code == 2 and out == ""
        assert err == f"error: dimension {n} must be >= 1\n"
    with pytest.raises(InvalidDim):
        automorphism_count(0, Field.prime(5))


def test_aut_count_refuses_a_group_order_too_long_to_print(capsys):
    code, out, err = run(capsys, "aut", "--n", "100000", "--count", "--field", "Fp:5")
    assert code == 2 and out == ""
    assert err == "error: the group order has more than 4300 digits\n"
    # 4 * 5^6151 has 4300 digits and is printed in full
    data = run_json(capsys, "aut", "--n", "6152", "--count", "--field", "Fp:5")
    assert data["count"] == 4 * 5**6151


def test_verify_table1_refuses_a_bad_mu_before_any_work(capsys):
    for field, mu, item in (
        ("Q", "1,1/0", "1/0"),
        ("Q", "x", "x"),
        ("Fp:5", "0,1/5", "1/5"),
    ):
        code, out, err = run(capsys, "verify-table1", "--n", "3", "--field", field, "--mu", mu)
        assert code == 2 and out == ""
        assert err == f"error: --mu: {item!r} is not a scalar of {field}\n"


def test_verify_table1_lists_each_mu_once(capsys):
    # repeated values, equal as given or after reduction mod p, give one row
    for field, mu, distinct in (("Q", "0,1,1", "0,1"), ("Fp:3", "1,4", "1")):
        data = run_json(capsys, "verify-table1", "--n", "3", "--field", field, "--mu", mu)
        labels = [r["label"] for r in data["rows"]]
        assert len(labels) == len(set(labels))
        assert data == run_json(capsys, "verify-table1", "--n", "3", "--field", field, "--mu", distinct)


def test_reproduce_refuses_a_bad_prime_before_any_work(capsys):
    for primes, message in (
        ("4", "modulus 4 is not prime"),
        ("3,1", "modulus 1 is not prime"),
        ("3,x", "--primes: 'x' is not an integer"),
    ):
        code, out, err = run(capsys, "reproduce", "--n-max", "2", "--primes", primes)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"
    with pytest.raises(CompositeModulus, match="modulus 9 is not prime"):
        run_reproduction(n_max=2, orbit_primes=(3, 9))


def test_identities_report_the_characteristics_the_gate_refuses(capsys):
    for name in VARIETY_NAMES:
        variety = builtin_variety(name)
        refused = []
        for p in (2, 3, 5, 7):
            try:
                variety.char_gate(Field.prime(p))
            except CharTooSmall:
                refused.append(p)
        data = run_json(capsys, "identities", "--variety", name)
        assert data["char_exclusions"] == refused, name
    assert run_json(capsys, "identities", "--variety", "alternative")["char_exclusions"] == [2, 3]


def test_act_subcommand(capsys):
    data = run_json(
        capsys,
        "act",
        "--n",
        "3",
        "--col",
        "2,0,0",
        "--cocycle",
        "named:nabla_n",
        "--variety",
        "associative",
    )
    assert data["class_before"] == ["1"]
    assert data["class_after"] == ["16"]  # phi11^(n+1) = 2^4


def test_classify_deterministic(capsys):
    args = ("classify", "--n", "3", "--field", "Fp:3", "--variety", "lc")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["orbit_count"] == 5
    assert data["domain_size"] == 12
    assert data["kind"] == "T1_lines"


def test_classify_h2_level(capsys):
    data = run_json(
        capsys,
        "classify",
        "--n",
        "2",
        "--field",
        "Fp:5",
        "--variety",
        "bc",
        "--level",
        "h2",
        "--members",
    )
    assert data["orbit_count"] == 7
    assert sum(o["size"] for o in data["orbits"]) == 25
    assert all("members" in o for o in data["orbits"])


@pytest.mark.parametrize("variety", ["lc", "bc", "jordan"])
def test_classify_n1_reports_its_one_unlabelled_orbit(capsys, variety):
    data = run_json(capsys, "classify", "--n", "1", "--field", "Fp:5", "--variety", variety)
    assert data["domain_size"] == data["orbit_count"] == 1
    assert data["matched_labels"] == {}
    assert data["orbits"][0]["labels"] == []


def test_verify_table1_exit_codes(capsys):
    code, out, _ = run(capsys, "verify-table1", "--n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and all(r["ok"] for r in data["rows"])
    code, out, _ = run(
        capsys, "verify-table1", "--n", "3", "--field", "Fp:7", "--mu", "0,1,-1,3"
    )
    assert code == 0
    assert json.loads(out)["ok"]


def test_reproduce_small(capsys):
    code, out, _ = run(capsys, "reproduce", "--n-max", "2", "--primes", "3")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and len(data["claims"]) >= 10


def test_error_paths(capsys):
    cases = [
        ("cohomology", "--algebra", "mu0:3", "--field", "Fp:9", "--variety", "lc"),
        ("cohomology", "--algebra", "mu0:3", "--variety", "nosuch"),
        ("extend", "--algebra", "mu0:3", "--variety", "lc", "--cocycle", "named:delta_2_2"),
        ("extend", "--algebra", "mu0:3", "--variety", "lc", "--cocycle", "/does/not/exist.json"),
        ("classify", "--n", "3", "--field", "Q", "--variety", "lc"),
        ("cohomology", "--algebra", "mu0:0", "--variety", "lc"),
        ("act", "--n", "3", "--col", "0,1,1", "--cocycle", "named:nabla_n"),
        ("extend", "--algebra", "mu0:3", "--variety", "jordan", "--field", "Fp:3",
         "--cocycle", "named:nabla_n"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_expression_parser():
    f = RATIONALS
    form = parse_cocycle_expr("nabla_n - delta_2_1 + 1/2*delta_1_1", 3, f)
    assert form.entry(2, 1) == f.scalar(-1)  # nabla3 has no (2,1) entry
    assert form.entry(3, 1) == f.one
    assert form.entry(1, 1) == f.scalar("1/2")
    form2 = parse_cocycle_expr("2*nabla_2", 3, f)
    assert form2.entry(1, 2) == f.scalar(2)
    assert form2.entry(2, 1) == f.scalar(2)
    for bad in ("nabla_n +", "3", "delta_2", "nabla_1_2", "* delta_1_1", "x+y"):
        with pytest.raises(ValueError):
            parse_cocycle_expr(bad, 3, f)


def test_cocycle_file_in_readme_format(capsys, tmp_path):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({
        "n": 3, "field": "Q",
        "entries": [{"i": 1, "j": 3, "c": "1"}, {"i": 2, "j": 2, "c": "1"},
                    {"i": 3, "j": 1, "c": "1/2"}],
    }))
    via_file = run_json(capsys, "extend", "--algebra", "mu0:3", "--variety", "lc",
                        "--cocycle", str(path))
    via_expr = run_json(capsys, "extend", "--algebra", "mu0:3", "--variety", "lc",
                        "--cocycle", "expr:nabla_n - 1/2*delta_3_1")
    assert via_file == via_expr
    assert via_file["non_split"] and via_file["t1"]


@pytest.mark.parametrize("doc", [
    {"field": "Q", "entries": [{"i": 1, "j": 1, "c": "1"}]},           # no n
    {"n": 3, "field": "Q", "entries": [{"i": 4, "j": 1, "c": "1"}]},   # index > n
    {"n": 3, "field": "Q", "entries": [{"i": 1, "c": "1"}]},           # no j
    {"n": 3, "field": "Q", "entries": [{"i": 1, "j": 1, "c": None}]},  # bad scalar
    {"n": "3", "field": "Q", "entries": []},
    {"n": 3, "field": 7, "entries": []},
    {"dim": 3, "field": "Q"},                                          # no matrix
    {"dim": 2, "field": "Q", "matrix": [[1, 0], [0, 1]]},
    [1, 2, 3],
])
def test_malformed_cocycle_file_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "extend", "--algebra", "mu0:3", "--variety", "lc",
                       "--cocycle", str(path))
    assert code == 2, err
    assert err.startswith("error:")


@pytest.mark.parametrize("doc", [
    {"field": "Q", "products": []},                                     # no dim
    {"dim": 2, "products": []},                                         # no field
    {"dim": 2, "field": "Q", "products": [{"i": 1, "j": 1}]},           # no out
    {"dim": 2, "field": "Q", "products": [{"i": 1, "j": 1, "out": [{"k": 2}]}]},
    {"dim": 2, "field": "Q", "products": [{"i": "x", "j": 1, "out": []}]},
    {"dim": 2, "field": "Q", "products": {"i": 1}},
    "mu0:3",
])
def test_malformed_algebra_file_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "cohomology", "--algebra", str(path), "--variety", "lc")
    assert code == 2, err
    assert err.startswith("error:")


@pytest.mark.parametrize("spec", ["mu0:x", "mu0:3.5"])
def test_malformed_mu0_spec_exits_2(capsys, spec):
    code, out, err = run(capsys, "cohomology", "--algebra", spec, "--variety", "lc")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and repr(spec) in err
    assert "invalid literal" not in err


def test_budget_must_be_positive(capsys):
    for value in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--n", "3", "--field", "Fp:3", "--variety", "lc",
                  "--budget", value])
        assert exc.value.code == 2
        assert "--budget: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-5", "many"])
def test_budget_env_must_be_a_positive_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("CENTEXT_BUDGET", value)
    code, out, err = run(capsys, "cohomology", "--algebra", "mu0:2", "--variety", "lc")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "CENTEXT_BUDGET" in err
    assert "structure constants" not in err


def test_algebra_size_is_bounded_by_the_budget(capsys):
    # mu0:80 has 80^3 = 512000 structure constants, over the default budget
    code, _, err = run(capsys, "cohomology", "--algebra", "mu0:80", "--variety", "lc")
    assert code == 2
    assert "512000 structure constants exceed budget" in err


def test_identity_tuples_are_bounded_by_the_budget(capsys):
    # Jordan's degree-4 identity on mu0:30 walks 30^4 basis tuples
    code, _, err = run(capsys, "cohomology", "--algebra", "mu0:30", "--variety", "jordan")
    assert code == 2
    assert "identity tuples exceed budget" in err


def test_huge_modulus_is_refused(capsys):
    code, _, err = run(capsys, "cohomology", "--algebra", "mu0:3", "--variety", "lc",
                       "--field", f"Fp:{2**89 - 1}")
    assert code == 2
    assert "too large to certify as prime" in err


_ALGEBRA_ZERO_DEN = {"dim": 2, "field": "Q",
                     "products": [{"i": 1, "j": 1, "out": [{"k": 2, "c": "1/0"}]}]}
_COCYCLE_ZERO_DEN = {"n": 3, "field": "Q", "entries": [{"i": 3, "j": 1, "c": "1/0"}]}


@pytest.mark.parametrize("argv", [
    ("aut", "--n", "3", "--col", "1/0,0,0"),
    ("act", "--n", "3", "--col", "1,0,0", "--cocycle", "expr:3/0*delta_1_1"),
    ("extend", "--algebra", "mu0:3", "--variety", "lc", "--cocycle", "expr:1/0*nabla_3"),
    ("cohomology", "--algebra", "ALGEBRA", "--variety", "lc"),
    ("extend", "--algebra", "mu0:3", "--variety", "lc", "--cocycle", "COCYCLE"),
])
def test_zero_denominators_exit_2(capsys, tmp_path, argv):
    files = {"ALGEBRA": _ALGEBRA_ZERO_DEN, "COCYCLE": _COCYCLE_ZERO_DEN}
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "zero denominator" in err
    assert "Traceback" not in err


def test_expression_parser_refuses_a_second_star():
    for bad in ("2**nabla_3", "2 * * delta_1_1", "nabla_3 + 1/2**delta_2_1"):
        with pytest.raises(ValueError, match="two '\\*' in a row"):
            parse_cocycle_expr(bad, 3, RATIONALS)
    assert parse_cocycle_expr("2*nabla_3 + 3*delta_1_1", 3, RATIONALS).entry(1, 1) == 3


def test_budget_bounds_every_enumeration_of_the_command(capsys, monkeypatch):
    # mu0:3 has 27 structure constants and 27 lc identity tuples, both
    # over a budget of 10; the env budget would admit them
    monkeypatch.setenv("CENTEXT_BUDGET", "1000")
    code, out, err = run(capsys, "classify", "--n", "3", "--field", "Fp:2",
                         "--variety", "lc", "--budget", "10")
    assert (code, out) == (2, "")
    assert err == "error: 27 structure constants exceed budget 10\n"
    code, out, err = run(capsys, "reproduce", "--n-max", "3", "--budget", "10",
                         "--primes", "3")
    assert (code, out) == (2, "")
    assert err == "error: 27 structure constants exceed budget 10\n"
    # within the table budget, the claims over it fail, and the env budget
    # stays unread when --budget is given
    code, out, _ = run(capsys, "reproduce", "--n-max", "2", "--budget", "10", "--primes", "3")
    data = json.loads(out)
    assert code == 1 and data["config"]["budget"] == 10
    failed = {c["id"]: c["detail"] for c in data["claims"] if not c["ok"]}
    assert "triviality-jordan-n2" in failed and "orbits-t1-bicommutative-n2-p3" in failed
    assert all("exceed budget 10" in d for d in failed.values())
    # the explicit budget also covers the tabulated representatives that
    # label the orbits, under an env budget that would refuse them
    monkeypatch.setenv("CENTEXT_BUDGET", "8")
    data = run_json(capsys, "classify", "--n", "3", "--field", "Fp:3", "--variety", "lc",
                    "--budget", "100")
    assert data["matched_labels"]


def test_verify_table1_refuses_an_over_budget_n_before_building_a_row(capsys, monkeypatch):
    import centext.orbits as orbits_mod
    from centext import BudgetExceeded, closed_field_representatives

    def no_form(*args):
        raise AssertionError("a tabulated form was built")

    monkeypatch.setattr(orbits_mod, "_tabulated_class", no_form)
    code, out, err = run(capsys, "verify-table1", "--n", "120")
    assert (code, out) == (2, "")
    assert err == "error: 1728000 structure constants exceed budget 500000\n"
    monkeypatch.setenv("CENTEXT_BUDGET", "26")
    for vname in ("lc", "bc"):
        for level in ("T1", "H2"):
            with pytest.raises(BudgetExceeded, match="^27 structure constants exceed budget 26$"):
                closed_field_representatives(vname, 3, RATIONALS, level)


def test_verify_table1_counts_its_rows_before_building_a_form(capsys, monkeypatch):
    import centext.orbits as orbits_mod

    def no_form(*args):
        raise AssertionError("a tabulated form was built")

    monkeypatch.setattr(orbits_mod, "_tabulated_class", no_form)
    code, out, err = run(capsys, "verify-table1", "--n", "3", "--field", "Fp:10007")
    assert (code, out) == (2, "")
    assert err == "error: 1281280 identity tuples of the table rows exceed budget 500000\n"


@pytest.mark.parametrize("text", ["nabla_3 delta_1_1", "nabla_3delta_1_1", "delta_2_1 2*nabla_3"])
def test_expression_parser_needs_a_sign_between_terms(capsys, text):
    with pytest.raises(ValueError, match="no '\\+' or '-' before the term"):
        parse_cocycle_expr(text, 3, RATIONALS)
    code, out, err = run(capsys, "extend", "--algebra", "mu0:3", "--variety", "lc",
                         "--cocycle", f"expr:{text}")
    assert (code, out) == (2, "")
    assert err.startswith("error: no '+' or '-' before the term")


def test_expression_parser_keeps_the_values_it_read():
    f = RATIONALS
    n3, d11, d21 = nabla(3, 3, f), delta(1, 1, 3, f), delta(2, 1, 3, f)
    assert parse_cocycle_expr("2 nabla_3", 3, f) == 2 * n3
    assert parse_cocycle_expr("- -nabla_3", 3, f) == n3
    assert parse_cocycle_expr("nabla_3 + -delta_1_1", 3, f) == n3 - d11
    # the README's examples
    assert parse_cocycle_expr("nabla_n + delta_2_1", 3, f) == n3 + d21
    want = n3 - 2 * d21 + f.scalar("1/2") * d11
    assert parse_cocycle_expr("nabla_n - 2*delta_2_1 + 1/2*delta_1_1", 3, f) == want


def test_expression_parser_returns_a_form_or_a_typed_error():
    pieces = ["nabla_3", "nabla_n", "nabla_9", "delta_1_1", "delta_2_1", "delta_n_1", "delta_2",
              "nabla_1_2", "nabla_", "_", "n", "+", "-", " - ", "*", "2", "1/2", "1/0", "/", " ",
              "x", "\u00b2", "\u0663", "2*"]
    rng = random.Random(12)
    for _ in range(2000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 6)))
        for field in (RATIONALS, Field.prime(5)):
            try:
                form = parse_cocycle_expr(text, 3, field)
            except (ValueError, CentextError):
                continue
            assert isinstance(form, BilinearForm) and (form.field, form.n) == (field, 3)


def test_aut_count_refuses_a_long_order_before_computing_it(capsys, monkeypatch):
    import centext.cli as cli_mod

    data = run_json(capsys, "aut", "--n", "6152", "--field", "Fp:5", "--count")
    assert len(str(data["count"])) == 4300
    code, out, err = run(capsys, "aut", "--n", "6153", "--field", "Fp:5", "--count")
    assert (code, out, err) == (2, "", "error: the group order has more than 4300 digits\n")

    def no_count(n, field):
        raise AssertionError("the group order was computed")

    monkeypatch.setattr(cli_mod, "automorphism_count", no_count)
    code, out, err = run(capsys, "aut", "--n", "10000000", "--field", "Fp:5", "--count")
    assert (code, out, err) == (2, "", "error: the group order has more than 4300 digits\n")


def test_the_mu_family_counts_against_the_budget(capsys, monkeypatch):
    monkeypatch.setenv("CENTEXT_BUDGET", "1000")
    code, out, err = run(capsys, "verify-table1", "--n", "3", "--field", "Fp:1009")
    assert (code, out) == (2, "")
    assert err == "error: 1009 values of the mu family exceed budget 1000\n"
    code, out, err = run(capsys, "verify-table1", "--n", "3", "--mu", ",".join(["1"] * 1001))
    assert (code, out) == (2, "")
    assert err == "error: 1001 values of the mu family exceed budget 1000\n"


def test_a_cocycle_file_of_dimension_below_1_exits_2(capsys, tmp_path):
    for dim, matrix in ((0, []), (-1, ["5"])):
        path = tmp_path / f"dim{dim}.json"
        path.write_text(json.dumps({"dim": dim, "field": "Q", "matrix": matrix}))
        code, out, err = run(capsys, "extend", "--algebra", "mu0:3", "--variety", "lc",
                             "--cocycle", str(path))
        assert (code, out, err) == (2, "", f"error: dimension {dim} must be >= 1\n")


@pytest.mark.parametrize("text", ["nabla_\u0663", "\u0663*nabla_3"])
def test_expression_digits_are_ascii(capsys, text):
    with pytest.raises(ValueError, match=f"^cannot read cocycle expression at {re.escape(repr(text))}$"):
        parse_cocycle_expr(text, 3, RATIONALS)
    code, out, err = run(capsys, "extend", "--algebra", "mu0:3", "--variety", "lc",
                         "--cocycle", f"expr:{text}")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read cocycle expression at")


def test_the_table_rows_count_their_identity_tuples_against_the_budget(capsys, monkeypatch):
    import centext.orbits as orbits_mod

    # n = 6 over Q: 13 rows, each walking x*(y*z) = y*(x*z) and
    # (x*y)*z = (x*z)*y on 7^3 tuples of the 7-dimensional extension
    monkeypatch.setenv("CENTEXT_BUDGET", str(13 * 686))
    data = run_json(capsys, "verify-table1", "--n", "6")
    assert data["ok"] and len(data["rows"]) == 13
    monkeypatch.setenv("CENTEXT_BUDGET", str(13 * 686 - 1))
    code, out, err = run(capsys, "verify-table1", "--n", "6")
    assert (code, out) == (2, "")
    assert err == "error: 8918 identity tuples of the table rows exceed budget 8917\n"

    def no_work(*args, **kwargs):
        raise AssertionError("the base's H2 or a row was computed")

    # Fp:10007 under the default budget: 10010 rows of 4^3 + 4^3 tuples
    monkeypatch.delenv("CENTEXT_BUDGET")
    monkeypatch.setattr(orbits_mod, "second_cohomology", no_work)
    monkeypatch.setattr(orbits_mod, "_check_row", no_work)
    code, out, err = run(capsys, "verify-table1", "--n", "3", "--field", "Fp:10007")
    assert (code, out) == (2, "")
    assert err == "error: 1281280 identity tuples of the table rows exceed budget 500000\n"


def test_a_cocycle_file_of_another_algebra_exits_2(capsys, tmp_path):
    for name, theta, message in (
        ("f5.json", nabla(3, 3, Field.prime(5)), "cocycle file field differs from the algebra's"),
        ("n4.json", nabla(4, 4, RATIONALS), "cocycle file dimension differs from the algebra's"),
    ):
        path = tmp_path / name
        path.write_text(json.dumps(theta.to_json()))
        for argv in (
            ("extend", "--algebra", "mu0:3", "--variety", "lc", "--cocycle", str(path)),
            ("act", "--n", "3", "--col", "1,0,0", "--cocycle", str(path)),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_reproduce_refuses_n_max_below_two(capsys):
    code, out, err = run(capsys, "reproduce", "--n-max", "1")
    assert (code, out, err) == (2, "", "error: n_max must be at least 2\n")


def test_main_builds_no_grammar(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    run_json(capsys, "identities", "--variety", "lc")
    run_json(capsys, "cohomology", "--algebra", "mu0:3", "--variety", "lc")
    run_json(capsys, "aut", "--n", "3", "--field", "Fp:3", "--count")
    with pytest.raises(SystemExit):
        main(["cohomology"])
    assert built == []


# (argv, the exit code): an append list, a usage error, a default --level
_SEQUENCE = [
    (("extend", "--algebra", "mu0:3", "--variety", "lc",
      "--cocycle", "named:nabla_n", "--cocycle", "named:delta_2_1"), 0),
    (("extend", "--algebra", "mu0:3", "--variety", "lc", "--cocycle", "named:nabla_n"), 0),
    (("classify", "--n", "2", "--field", "Fp:3", "--variety", "lc", "--budget", "0"), 2),
    (("classify", "--n", "2", "--field", "Fp:3", "--variety", "lc", "--level", "h2"), 0),
    (("classify", "--n", "2", "--field", "Fp:3", "--variety", "lc"), 0),
]


def _exit_code(call):
    try:
        return call()
    except SystemExit as exc:
        return exc.code


def _on_a_fresh_grammar(argv):
    args = build_parser().parse_args(argv)
    return args.fn(args)


def test_the_shared_grammar_keeps_no_state_between_calls(capsys):
    outs = []
    for argv, expected in _SEQUENCE:
        code = _exit_code(lambda: main(list(argv)))
        out = capsys.readouterr().out
        assert code == expected, argv
        assert (code, out) == (_exit_code(lambda: _on_a_fresh_grammar(list(argv))),
                               capsys.readouterr().out), argv
        outs.append(out)
    assert len(json.loads(outs[0])["cocycles"]) == 2
    assert len(json.loads(outs[1])["cocycles"]) == 1
    assert json.loads(outs[3])["kind"] != json.loads(outs[4])["kind"]
