"""Byte-for-byte CLI output contract.

Each file under tests/golden/ is the stdout of one command, captured
before the code it exercises was restructured (the classify and
verify-table1 files before the orbit and representative code, the
cohomology and extend files before the sparse raw-value kernel, the
classify files for lc over F_7 and F_5 before orbits became image sets,
the classify files of (4, lc, F_7), (5, bc, F_5), (4, novikov, F_5) and
(4, associative, F_7) before the class action moved to raw values, and
``verify-table1 --n 6`` over Q and ``--n 5`` over F_7 before Table 1
verification reused the stored cocycle equations and membership verdicts,
and ``cohomology`` of mu0:8 for right-commutative over Q and of mu0:6 for
left-symmetric over F_5, whose representatives are the greedy pick from
the cocycle basis, before that pick became one echelon, and the H2-level
classify files of (4, lc, F_5), with both mubar-coset families, and of
(3, bc, F_7), with the trivial nabla_3 and the bc cosets, and
``verify-table1 --n 4 --field Fp:5 --mu 0,1,-1,3``, before the tabulated
classes and the table rows came from one list of parameters, and
``reproduce --n-max 4 --seed 5 --primes 3`` before the claims shared one
H2 per dimension and variety, and ``identities`` of every catalog variety
before the identity tokenizer became one regular expression); refactors
must leave these outputs unchanged.  To add a case, run the command with the
package as it stands and save its stdout under the case name.

``tabulated_classes.json`` is no command's stdout: it holds the parameters
of every tabulated class of ``closed_field_representatives`` (lc and bc,
both levels, n = 2..5, over Q, F_5 and F_7), captured before the family
lists became one formula, so a class that no orbit matches is pinned too.
"""

import json
from pathlib import Path

import pytest

from centext import RATIONALS, Field, closed_field_representatives
from centext.cli import main
from centext.identities import VARIETY_NAMES

GOLDEN = Path(__file__).parent / "golden"


def _classify(n, p, variety, level):
    return ["classify", "--n", str(n), "--field", f"Fp:{p}", "--variety", variety,
            "--level", level, "--members"]


def _cohomology(n, variety, field):
    return ["cohomology", "--algebra", f"mu0:{n}", "--variety", variety, "--field", field]


CASES = {
    "classify_lc_n3_f5_t1": _classify(3, 5, "lc", "t1"),
    "classify_lc_n3_f3_h2": _classify(3, 3, "lc", "h2"),
    "classify_lc_n3_f2_h2": _classify(3, 2, "lc", "h2"),
    "classify_lc_n4_f3_t1": _classify(4, 3, "lc", "t1"),
    "classify_bc_n3_f5_t1": _classify(3, 5, "bc", "t1"),
    "classify_bc_n2_f5_h2": _classify(2, 5, "bc", "h2"),
    "classify_associative_n3_f3_t1": _classify(3, 3, "associative", "t1"),
    "classify_novikov_n3_f3_h2": _classify(3, 3, "novikov", "h2"),
    "classify_lc_n3_f7_h2": _classify(3, 7, "lc", "h2"),
    "classify_lc_n4_f5_t1": _classify(4, 5, "lc", "t1"),
    "classify_lc_n4_f7_t1": _classify(4, 7, "lc", "t1"),
    "classify_bc_n5_f5_t1": _classify(5, 5, "bc", "t1"),
    "classify_novikov_n4_f5_t1": _classify(4, 5, "novikov", "t1"),
    "classify_associative_n4_f7_h2": _classify(4, 7, "associative", "h2"),
    "classify_lc_n4_f5_h2": _classify(4, 5, "lc", "h2"),
    "classify_bc_n3_f7_h2": _classify(3, 7, "bc", "h2"),
    "verify_table1_n4": ["verify-table1", "--n", "4"],
    "verify_table1_n4_f5_mu": ["verify-table1", "--n", "4", "--field", "Fp:5",
                               "--mu", "0,1,-1,3"],
    "verify_table1_n6": ["verify-table1", "--n", "6"],
    "verify_table1_n5_f7": ["verify-table1", "--n", "5", "--field", "Fp:7"],
    "cohomology_jordan_n5_q": _cohomology(5, "jordan", "Q"),
    "cohomology_jordan_n5_f5": _cohomology(5, "jordan", "Fp:5"),
    "cohomology_novikov_n6_q": _cohomology(6, "novikov", "Q"),
    "cohomology_alternative_n5_q": _cohomology(5, "alternative", "Q"),
    "cohomology_lc_n7_f7": _cohomology(7, "lc", "Fp:7"),
    "cohomology_rc_n8_q": _cohomology(8, "rc", "Q"),
    "cohomology_left_symmetric_n6_f5": _cohomology(6, "left_symmetric", "Fp:5"),
    "extend_lc_n3_expr": ["extend", "--algebra", "mu0:3", "--variety", "lc",
                          "--cocycle", "expr:nabla_n + 1/2*delta_2_1 - delta_1_1"],
    "reproduce_n4_seed5_p3": ["reproduce", "--n-max", "4", "--seed", "5", "--primes", "3"],
    **{f"identities_{v}": ["identities", "--variety", v] for v in VARIETY_NAMES},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


def _tabulated_classes() -> str:
    """One JSON line per tabulated class, in list order."""
    records = [
        {"variety": variety, "level": level, "n": n, "field": field.spec(),
         "label": c.label, "nabla": c.nabla, "i": c.i, "mu": c.mu.literal(),
         "t1": c.t1, "ann_dim": c.ann_dim}
        for variety in ("left_commutative", "bicommutative")
        for level in ("H2", "T1")
        for n in range(2, 6)
        for field in (RATIONALS, Field.prime(5), Field.prime(7))
        for c in closed_field_representatives(variety, n, field, level)
    ]
    return "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n"


def test_tabulated_classes_match_golden():
    assert _tabulated_classes() == (GOLDEN / "tabulated_classes.json").read_text()
