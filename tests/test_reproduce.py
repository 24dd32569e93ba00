import json
import sys
from collections import Counter

import centext.cohomology as coh
import centext.orbits as orbits
import centext.reproduce as rep
from centext import run_reproduction
from centext.reproduce import _claim


def test_small_run_passes_with_enough_claims():
    report = run_reproduction(n_max=2, orbit_primes=(3,))
    assert report["ok"]
    assert len(report["claims"]) >= 10
    ids = [c["id"] for c in report["claims"]]
    assert len(set(ids)) == len(ids)
    assert report["config"]["n_max"] == 2


def test_a_repeated_orbit_prime_runs_once():
    report = run_reproduction(n_max=2, orbit_primes=(3, 3))
    ids = [c["id"] for c in report["claims"]]
    assert len(set(ids)) == len(ids)
    assert report == run_reproduction(n_max=2, orbit_primes=(3,))
    assert report["config"]["orbit_primes"] == [3]


def test_reports_are_deterministic():
    a = run_reproduction(n_max=3, seed=5, orbit_primes=(3,))
    b = run_reproduction(n_max=3, seed=5, orbit_primes=(3,))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = run_reproduction(n_max=3, seed=6, orbit_primes=(3,))
    assert c["ok"]  # a different seed still passes everything


def test_claim_failures_are_recorded_not_raised():
    claims = []
    _claim(claims, "boom", lambda: (_ for _ in ()).throw(RuntimeError("nope")))
    _claim(claims, "fine", lambda: (True, "all good"))
    _claim(claims, "sad", lambda: (False, "expectedly bad"))
    assert [c["ok"] for c in claims] == [False, True, False]
    assert "nope" in claims[0]["detail"]
    assert not all(c["ok"] for c in claims)


def test_expected_claim_families_present():
    report = run_reproduction(n_max=2, orbit_primes=(3,))
    ids = {c["id"] for c in report["claims"]}
    for needle in (
        "dims-associative-n2",
        "dims-left-commutative-n2",
        "dims-bicommutative-n2",
        "triviality-jordan-n2",
        "reduction-novikov-n2",
        "trivial-extension-n2",
        "unique-associative-extension-n2",
        "nabla-class-scaling-n2",
        "table-rows-n2",
        "orbits-t1-left-commutative-n2-p3",
        "orbits-t1-bicommutative-n2-p3",
    ):
        assert needle in ids


def test_each_cohomology_space_is_solved_once(monkeypatch):
    # the claims share one H^2 per (n, field, variety); check_table1 solves
    # its own, and no claim solves a cocycle space on its own
    solves, in_table, table_solves, inside_h2, z_only = Counter(), [False], [], [0], []
    second_cohomology, cocycle_space = coh.second_cohomology, coh.cocycle_space
    check_table1 = rep.check_table1

    def counted_h2(a, variety):
        key = (a.dim, a.field.spec(), variety.name)
        if in_table[0]:
            table_solves.append(key)
        else:
            solves[key] += 1
        inside_h2[0] += 1  # the cocycle_space call inside is not Z-only
        try:
            return second_cohomology(a, variety)
        finally:
            inside_h2[0] -= 1

    def counted_z(a, variety):
        z_only.append(inside_h2[0] == 0)
        return cocycle_space(a, variety)

    def counted_table(n, field, mu_sample=None):
        in_table[0] = True
        try:
            return check_table1(n, field, mu_sample)
        finally:
            in_table[0] = False

    for name, mod in list(sys.modules.items()):
        if name.startswith("centext"):
            for attr, fn in (("second_cohomology", counted_h2), ("cocycle_space", counted_z)):
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, fn)
    monkeypatch.setattr(rep, "check_table1", counted_table)
    report = run_reproduction(n_max=6, orbit_primes=(3, 5))
    assert report["ok"]
    assert z_only and not any(z_only)
    assert max(solves.values()) == 1
    assert len(solves) == 9 * 5 + 2 * 2 * 2  # nine varieties over Q, n = 2..6; lc, bc over F_p
    assert table_solves == [(n, "Q", "left_commutative") for n in range(2, 7)]


def test_orbit_claims_build_the_tabulated_classes_once(monkeypatch):
    # the T1 orbit report keeps the labels of its T1-flagged classes, so the
    # claim reads them from the report instead of building the classes again
    calls = []
    named_classes = orbits._named_classes

    def counted(*args):
        calls.append(args)
        return named_classes(*args)

    monkeypatch.setattr(orbits, "_named_classes", counted)
    ok, detail = rep._orbits(4, "left_commutative", 7)
    assert ok, detail
    assert len(calls) == 1
    assert detail.endswith("representatives pairwise inequivalent")
