"""End-to-end reproduction of the classification's checkable claims.

Runs a deterministic battery of checks (cocycle space dimensions,
variety reductions, extension towers, class scaling, the table of
one-dimensional extensions, and finite-field orbit partitions) and
collects one pass/fail record per claim.  A failing claim never aborts
the run; it is recorded and reflected in the overall flag.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import null_filiform, satisfies_variety
from .automorphisms import Automorphism, act_on_cocycle
from .budget import resolve_budget
from .cohomology import cocycle_space, is_cocycle, second_cohomology
from .errors import InvalidDim, NotACocycle
from .extensions import build_extension, central_extension
from .fields import RATIONALS, Field
from .forms import BilinearForm, delta, nabla
from .identities import builtin_variety
from .orbits import (
    check_table1,
    closed_field_representatives,
    orbits_on_T1,
)

EXPECTED_DIMS = {
    "associative": lambda n: (n, n - 1, 1),
    "left_commutative": lambda n: (2 * n - 1, n - 1, n),
    "bicommutative": lambda n: (n + 1, n - 1, 2),
}

# varieties whose cocycle space on the null-filiform algebra collapses
# to that of another catalog variety
SAME_COCYCLES_AS = {
    "left_alternative": "associative",
    "alternative": "associative",
    "jordan": "associative",
    "assosymmetric": "bicommutative",
    "novikov": "bicommutative",
    "left_symmetric": "left_commutative",
}


def _z_vectors(algebra, variety_name):
    basis = cocycle_space(algebra, builtin_variety(variety_name))
    return [theta.as_vector() for theta in basis]


def _random_fraction(rng, nonzero=False):
    num = rng.randint(1, 9) if nonzero else rng.randint(-9, 9)
    if nonzero and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, 9))


def _claim(claims, cid, fn):
    try:
        ok, detail = fn()
    except Exception as exc:  # record, never abort
        ok, detail = False, f"error: {exc!r}"
    claims.append({"id": cid, "ok": bool(ok), "detail": detail})


def _dims_claim(algebra, vname, n):
    def run():
        h = second_cohomology(algebra, builtin_variety(vname))
        got = (h.dim_z, h.dim_b, h.dim_h)
        want = EXPECTED_DIMS[vname](n)
        return got == want, f"dim Z={got[0]}, dim B={got[1]}, dim H={got[2]}, expected {want}"

    return run


def _same_space_claim(algebra, vname, target):
    def run():
        got = _z_vectors(algebra, vname)
        want = _z_vectors(algebra, target)
        return got == want, (
            f"cocycle space of {vname} {'equals' if got == want else 'differs from'} "
            f"that of {target} (dim {len(got)} vs {len(want)})"
        )

    return run


def _tower_claim(algebra, n, field):
    def run():
        ext = central_extension(
            algebra, [nabla(n, n, field)], builtin_variety("associative")
        )
        out = ext.extended
        ok = (
            out.is_null_filiform()
            and ext.non_split
            and out.annihilator().dim == 1
            and satisfies_variety(out, builtin_variety("associative"))
        )
        return ok, f"extension by the full antidiagonal form is null-filiform of dim {out.dim}"

    return run


def _scaling_claim(algebra, n, field, h, cols):
    def run():
        base = h.reduce_class(nabla(n, n, field))
        for col in cols:
            phi = Automorphism(field, col)
            moved = h.reduce_class(act_on_cocycle(phi, nabla(n, n, field)))
            factor = phi.phi11 ** (n + 1)
            if moved != tuple(factor * c for c in base):
                return False, f"scaling failed for column {[str(c) for c in col]}"
        return True, f"class of the antidiagonal form scales by phi11^{n + 1} ({len(cols)} automorphisms)"

    return run


def _split_claim(algebra, n, field):
    def run():
        theta = nabla(n - 1, n, field)  # a coboundary
        ext = central_extension(algebra, [theta], builtin_variety("associative"))
        h = second_cohomology(algebra, builtin_variety("associative"))
        ok = (not ext.non_split) and h.class_is_zero(theta)
        return ok, "coboundary extension is split and its class vanishes"

    return run


def _cocycle_detection_claim(algebra, n, field, weights):
    def run():
        lc = builtin_variety("left_commutative")
        basis = cocycle_space(algebra, lc)
        combo = BilinearForm.zero(field, n)
        for w, theta in zip(weights, basis):
            combo = combo + field.scalar(w) * theta
        if not is_cocycle(algebra, lc, combo):
            return False, "a combination of basis cocycles failed the cocycle check"
        ext = central_extension(algebra, [combo], lc)
        if not satisfies_variety(ext.extended, lc):
            return False, "extension by a cocycle left the variety"
        # first elementary form outside the cocycle space, row-major scan
        bad = None
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                cand = delta(i, j, n, field)
                if not is_cocycle(algebra, lc, cand):
                    bad = cand
                    break
            if bad is not None:
                break
        if bad is None:
            return False, "every elementary form is a cocycle, cannot test rejection"
        try:
            central_extension(algebra, [bad], lc)
        except NotACocycle:
            pass
        else:
            return False, "non-cocycle was accepted"
        if satisfies_variety(build_extension(algebra, [bad]), lc):
            return False, "extension by a non-cocycle stayed in the variety"
        return True, "cocycles extend inside the variety, non-cocycles are rejected"

    return run


def _table_claim(n, field):
    def run():
        rows = check_table1(n, field)
        bad = [r["label"] for r in rows if not r["ok"]]
        if bad:
            return False, f"rows failed: {bad}"
        return True, f"all {len(rows)} table rows verified"

    return run


def _orbit_claim(n, vname, p, budget):
    def run():
        report = orbits_on_T1(n, vname, Field.prime(p), budget=budget)
        reps = closed_field_representatives(vname, n, Field.prime(p), level="T1")
        t1_labels = [named.label for named in reps if named.t1]
        missing = [lab for lab in t1_labels if lab not in report.matched_labels]
        if missing:
            return False, f"unmatched representatives: {missing}"
        hit = [report.matched_labels[lab] for lab in t1_labels]
        if len(set(hit)) != len(hit):
            return False, "distinct representatives landed in the same orbit"
        if sum(o.size for o in report.orbits) != report.domain_size:
            return False, "orbit sizes do not partition the domain"
        return True, (
            f"{len(report.orbits)} orbits on {report.domain_size} lines; "
            f"{len(t1_labels)} representatives pairwise inequivalent"
        )

    return run


def run_reproduction(n_max=6, seed=0, budget=None, orbit_primes=(3, 5)) -> dict:
    """Run every claim check up to dimension n_max and return a JSON-ready
    report.  Identical arguments give an identical report."""
    if n_max < 2:
        raise InvalidDim("n_max must be at least 2")
    for p in orbit_primes:
        Field.prime(p)  # a modulus that is not prime is refused before any work
    budget = resolve_budget(budget)
    rng = random.Random(seed)
    claims = []
    for n in range(2, n_max + 1):
        field = RATIONALS
        algebra = null_filiform(n, field)
        h_assoc = second_cohomology(algebra, builtin_variety("associative"))
        # draw all randomness for this n upfront so failures don't shift it
        cols = []
        for _ in range(10):
            col = [_random_fraction(rng, nonzero=True)]
            col.extend(_random_fraction(rng) for _ in range(n - 1))
            cols.append(col)
        weights = [rng.randint(-5, 5) for _ in range(2 * n - 1)]

        def add(cid, fn):
            _claim(claims, cid, fn)

        add(
            f"power-dims-n{n}",
            lambda a=algebra, n=n: (
                a.power_dims() == tuple(range(n, -1, -1)) and a.annihilator().dim == 1,
                f"descending power dims {a.power_dims()}, annihilator dim {a.annihilator().dim}",
            ),
        )
        for vname in EXPECTED_DIMS:
            add(f"dims-{vname.replace('_', '-')}-n{n}", _dims_claim(algebra, vname, n))
        for vname, target in SAME_COCYCLES_AS.items():
            kind = "triviality" if target == "associative" else "reduction"
            add(
                f"{kind}-{vname.replace('_', '-')}-n{n}",
                _same_space_claim(algebra, vname, target),
            )
        add(f"trivial-extension-n{n}", _split_claim(algebra, n, field))
        add(f"unique-associative-extension-n{n}", _tower_claim(algebra, n, field))
        add(f"nabla-class-scaling-n{n}", _scaling_claim(algebra, n, field, h_assoc, cols))
        add(f"cocycle-detection-n{n}", _cocycle_detection_claim(algebra, n, field, weights))
        add(f"table-rows-n{n}", _table_claim(n, field))
    for p in orbit_primes:
        for n in range(2, min(n_max, 3) + 1):
            for vname in ("left_commutative", "bicommutative"):
                _claim(
                    claims,
                    f"orbits-t1-{vname.replace('_', '-')}-n{n}-p{p}",
                    _orbit_claim(n, vname, p, budget),
                )
    return {
        "config": {
            "n_max": n_max,
            "seed": seed,
            "budget": budget,
            "orbit_primes": list(orbit_primes),
        },
        "claims": claims,
        "ok": all(c["ok"] for c in claims),
    }
