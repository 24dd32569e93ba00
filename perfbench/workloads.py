"""The benchmark's workloads: which operations each runs, at which size,
and how their inputs are made from the seed.

Operations are plain data (a CLI argv, or the inputs of one lemma trial)
plus the independent checker that judges their output.  Only the lemma
trials depend on the seed; every other input is fixed by its workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import checks

CATALOG = (
    "associative",
    "left_alternative",
    "alternative",
    "jordan",
    "left_commutative",
    "right_commutative",
    "bicommutative",
    "assosymmetric",
    "novikov",
    "left_symmetric",
)


@dataclass
class Op:
    name: str
    argv: list | None = None        # a `centext` command line, or None
    trial: dict | None = None       # the inputs of one extension-lemma trial
    frontier: bool = False          # the workload's largest operation
    expect_fault: bool = False      # fails until README cocycle files load
    check: object = None            # callable(output), raises CheckFailed
    ctx: dict = field(default_factory=dict)  # package objects built in set-up


@dataclass
class Workload:
    name: str
    varieties: tuple
    ops: list


def _cohomology(n, variety, fld, frontier=False):
    argv = ["cohomology", "--algebra", f"mu0:{n}", "--variety", variety, "--field", fld]
    return Op(
        name=f"cohomology mu0:{n} {variety} {fld}",
        argv=argv,
        frontier=frontier,
        check=lambda out: checks.check_cohomology(n, variety, fld, json.loads(out)),
    )


def _classify(n, variety, fld, level, frontier=False):
    argv = ["classify", "--n", str(n), "--field", fld, "--variety", variety,
            "--level", level, "--members"]
    return Op(
        name=f"classify {level} n={n} {variety} {fld}",
        argv=argv,
        frontier=frontier,
        check=lambda out: checks.check_classify(n, variety, fld, level, json.loads(out)),
    )


def _verify_table1(n, fld, frontier=False):
    return Op(
        name=f"verify-table1 n={n} {fld}",
        argv=["verify-table1", "--n", str(n), "--field", fld],
        frontier=frontier,
        check=lambda out: checks.check_table1(n, fld, json.loads(out)),
    )


# Cocycles of mu0:3 for the left-commutative variety, in the README's
# cocycle-file format.  Fixed, not seeded: these operations fail on every
# run until the package reads that format.
EXTEND_COCYCLES = (
    [{"i": 1, "j": 3, "c": "1"}, {"i": 2, "j": 2, "c": "1"}, {"i": 3, "j": 1, "c": "1"}],
    [{"i": 2, "j": 1, "c": "1"}],
    [{"i": 1, "j": 3, "c": "1"}, {"i": 2, "j": 2, "c": "1"}, {"i": 3, "j": 1, "c": "2"}],
    [{"i": 1, "j": 3, "c": "1"}, {"i": 2, "j": 2, "c": "1"}, {"i": 3, "j": 1, "c": "1/2"}],
)


def _extend_ops(inputs_dir: Path):
    ops = []
    for k, entries in enumerate(EXTEND_COCYCLES):
        path = inputs_dir / f"cocycle-{k + 1}.json"
        path.write_text(json.dumps({"n": 3, "field": "Q", "entries": entries}))
        ops.append(
            Op(
                name=f"extend mu0:3 lc cocycle-{k + 1}.json",
                argv=["extend", "--algebra", "mu0:3", "--variety", "lc",
                      "--cocycle", str(path)],
                expect_fault=True,
                check=lambda out, e=entries: checks.check_extend(3, "Q", e, json.loads(out)),
            )
        )
    return ops


def _nonzero(rng, p):
    if p is None:
        return rng.choice((-2, -1, 1, 2))
    return rng.randint(1, p - 1)


def lemma_trials(seed, ns):
    """One trial per (n, variety): over Q or F_5 and with a cocycle or a
    random form, both by a fixed pattern.  The seed draws only the
    nonzero coefficients, so every seed runs the same mix and sparsity."""
    rng = random.Random(seed)
    trials = []
    for n in ns:
        for vi, variety in enumerate(CATALOG):
            fld = ("Q", "Fp:5")[(vi + n) % 2]
            p = checks.parse_field(fld)
            kind = ("cocycle", "random")[(vi // 2 + n) % 2]
            if kind == "cocycle":
                form = checks.zero_form(n)
                for z in checks.closed_form(variety, n)[1]:
                    c = _nonzero(rng, p)
                    form = [[checks.norm(x + c * y, p) for x, y in zip(r, s)] for r, s in zip(form, z)]
                entries = [str(x) for x in checks.flat(form)]
            else:
                entries = [str(_nonzero(rng, p)) for _ in range(n * n)]
            trials.append({"variety": variety, "n": n, "field": fld, "kind": kind, "entries": entries})
    return trials


def _lemma_ops(seed, ns):
    return [
        Op(
            name=f"lemma {t['variety']} n={t['n']} {t['field']} {t['kind']}",
            trial=t,
            check=lambda out, t=t: checks.check_lemma(t, out),
        )
        for t in lemma_trials(seed, ns)
    ]


def build(name, seed, smoke, inputs_dir: Path) -> Workload:
    """The workload's operations, in the order every round runs them.
    The frontier operation (the largest one) comes first."""
    if name == "h2-deg4":
        n = 4 if smoke else 7
        ops = [
            _cohomology(n, "jordan", "Q", frontier=True),
            _cohomology(n, "jordan", "Fp:5"),
            _cohomology(n, "alternative", "Q"),
            _cohomology(n, "novikov", "Q"),
        ]
        return Workload(name, ("jordan", "alternative", "novikov"), ops)
    if name == "h2-wide":
        n = 5 if smoke else 13
        ops = [
            _cohomology(n, "left_commutative", "Q", frontier=True),
            _cohomology(n - 1, "right_commutative", "Q"),
            _cohomology(n, "left_commutative", "Fp:7"),
        ]
        return Workload(name, ("left_commutative", "right_commutative"), ops)
    if name == "orbits":
        big = (3, "Fp:3") if smoke else (4, "Fp:7")
        mid = (3, "Fp:3") if smoke else (5, "Fp:5")
        small = (2, "Fp:3") if smoke else (3, "Fp:7")
        ops = [
            _classify(big[0], "lc", big[1], "t1", frontier=True),
            _classify(mid[0], "bc", mid[1], "t1"),
            _classify(small[0], "lc", small[1], "h2"),
        ]
        return Workload(name, ("left_commutative", "bicommutative"), ops)
    if name == "extensions":
        inputs_dir.mkdir(parents=True, exist_ok=True)
        ops = [
            _verify_table1(3 if smoke else 6, "Q", frontier=True),
            _verify_table1(3 if smoke else 5, "Fp:7"),
            *_lemma_ops(seed, (2, 3) if smoke else (2, 3, 4, 5)),
            *_extend_ops(inputs_dir),
        ]
        return Workload(name, CATALOG, ops)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("h2-deg4", "h2-wide", "orbits", "extensions")
