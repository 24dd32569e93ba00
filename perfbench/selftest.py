"""Self-test of the checkers: each must accept the package's real output
and reject one deliberately wrong copy of it.

    python3 perfbench/selftest.py

Runs every workload's operations at smoke size (a few seconds in all),
then corrupts one output per checker: a dropped Z vector, a split orbit,
a flipped t1 flag, a swapped lemma answer and a wrong annihilator
dimension.  Exits 1 if any checker accepts a wrong output or rejects a
right one.
"""

from __future__ import annotations

import copy
import json
import sys

import checks
import run
import workloads


def verdict(check, output):
    try:
        check(output)
    except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
        return f"rejected ({exc})"
    return "accepted"


def drop_z_vector(out):
    out = json.loads(out)
    out["z_basis"].pop()
    return json.dumps(out)


def split_orbit(out):
    out = json.loads(out)
    orbit = next(o for o in out["orbits"] if o["size"] > 1)
    moved = orbit["members"].pop()
    orbit["size"] -= 1
    out["orbits"].append({"representative": moved, "size": 1, "labels": [], "members": [moved]})
    out["orbit_count"] += 1
    return json.dumps(out)


def flip_t1(out):
    out = json.loads(out)
    out["rows"][0]["t1"] = not out["rows"][0]["t1"]
    return json.dumps(out)


def swap_lemma(answer):
    return (not answer[0], not answer[1])


def wrong_annihilator(out):
    out = json.loads(out)
    out["annihilator_dim"] += 1
    return json.dumps(out)


def main():
    centext = run.import_package()
    outputs = {}
    ok = True
    for name in workloads.NAMES:
        args = run.parse_args(["--workload", name, "--seed", "0", "--smoke"])
        _, wl = run.build_inputs(centext, args)
        for op in wl.ops:
            _, out, failure = run.run_op(centext, op, sampling=False)
            if failure is not None:
                if not op.expect_fault:
                    print(f"FAIL {op.name}: {failure}")
                    ok = False
                continue
            result = verdict(op.check, out)
            print(f"{'ok  ' if result == 'accepted' else 'FAIL'} {op.name}: {result}")
            ok &= result == "accepted"
            outputs.setdefault(op.argv[0] if op.argv else "lemma", (op, out))

    # extend through an expression, the path that loads today, so the
    # extend checker also meets a real output
    entries = [{"i": 1, "j": 3, "c": "1"}, {"i": 2, "j": 2, "c": "1"},
               {"i": 3, "j": 1, "c": "1"}, {"i": 2, "j": 1, "c": "1"}]
    extend = workloads.Op(
        name="extend mu0:3 lc expr:nabla_n+delta_2_1",
        argv=["extend", "--algebra", "mu0:3", "--variety", "lc", "--cocycle", "expr:nabla_n+delta_2_1"],
        check=lambda out: checks.check_extend(3, "Q", entries, json.loads(out)),
    )
    _, out, failure = run.run_op(centext, extend, sampling=False)
    result = verdict(extend.check, out) if failure is None else failure
    print(f"{'ok  ' if result == 'accepted' else 'FAIL'} {extend.name}: {result}")
    ok &= result == "accepted"
    outputs["extend"] = (extend, out)

    wrong = (
        ("cohomology", "dropped Z vector", drop_z_vector),
        ("classify", "split orbit", split_orbit),
        ("verify-table1", "flipped t1 flag", flip_t1),
        ("lemma", "swapped lemma answer", swap_lemma),
        ("extend", "wrong annihilator dimension", wrong_annihilator),
    )
    for key, what, corrupt in wrong:
        op, out = outputs[key]
        result = verdict(op.check, corrupt(copy.deepcopy(out)))
        good = result.startswith("rejected")
        print(f"{'ok  ' if good else 'FAIL'} {what} in {op.name}: {result}")
        ok &= good
    print("checker self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
