"""Byte-for-byte CLI output contract.

Each file under tests/golden/ is the stdout of one command, captured
before the orbit and representative code was restructured; refactors
must leave these outputs unchanged.  To add a case, run the command
with the package as it stands and save its stdout under the case name.
"""

from pathlib import Path

import pytest

from centext.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _classify(n, p, variety, level):
    return ["classify", "--n", str(n), "--field", f"Fp:{p}", "--variety", variety,
            "--level", level, "--members"]


CASES = {
    "classify_lc_n3_f5_t1": _classify(3, 5, "lc", "t1"),
    "classify_lc_n3_f3_h2": _classify(3, 3, "lc", "h2"),
    "classify_lc_n3_f2_h2": _classify(3, 2, "lc", "h2"),
    "classify_lc_n4_f3_t1": _classify(4, 3, "lc", "t1"),
    "classify_bc_n3_f5_t1": _classify(3, 5, "bc", "t1"),
    "classify_bc_n2_f5_h2": _classify(2, 5, "bc", "h2"),
    "classify_associative_n3_f3_t1": _classify(3, 3, "associative", "t1"),
    "classify_novikov_n3_f3_h2": _classify(3, 3, "novikov", "h2"),
    "verify_table1_n4": ["verify-table1", "--n", "4"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()
