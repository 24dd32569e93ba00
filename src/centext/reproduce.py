"""End-to-end reproduction of the classification's checkable claims.

Runs a deterministic battery of checks (cocycle space dimensions,
variety reductions, extension towers, class scaling, the table of
one-dimensional extensions, and finite-field orbit partitions) and
collects one pass/fail record per claim.  A failing claim never aborts
the run; it is recorded and reflected in the overall flag.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from .algebra import _check_size, null_filiform, satisfies_variety
from .automorphisms import Automorphism, act_on_cocycle
from .budget import budget_scope, resolve_budget
from .cohomology import is_cocycle, second_cohomology
from .errors import InvalidDim, NotACocycle
from .extensions import build_extension, central_extension
from .fields import RATIONALS, Field
from .forms import BilinearForm, delta, nabla
from .identities import builtin_variety
from .orbits import check_table1, orbits_on_T1

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


def _random_fraction(rng, nonzero=False):
    num = rng.randint(1, 9) if nonzero else rng.randint(-9, 9)
    if nonzero and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, 9))


def _claim(claims, cid, fn, *args):
    try:
        ok, detail = fn(*args)
    except Exception as exc:  # record, never abort
        ok, detail = False, f"error: {exc!r}"
    claims.append({"id": cid, "ok": bool(ok), "detail": detail})


# Each claim below is a plain function returning (ok, detail).  The
# argument h maps a variety name to H^2 of mu0:n over Q for it, built on
# the first call, so a failing solve fails only the claim that made it.

def _power_dims(a, n):
    dims, ann = a.power_dims(), a._annihilator_dim()
    ok = dims == tuple(range(n, -1, -1)) and ann == 1
    return ok, f"descending power dims {dims}, annihilator dim {ann}"


def _dims(h, vname, n):
    space = h(vname)
    got = (space.dim_z, space.dim_b, space.dim_h)
    want = EXPECTED_DIMS[vname](n)
    return got == want, f"dim Z={got[0]}, dim B={got[1]}, dim H={got[2]}, expected {want}"


def _same_space(h, vname, target):
    got, want = h(vname).z_basis, h(target).z_basis
    return got == want, (
        f"cocycle space of {vname} {'equals' if got == want else 'differs from'} "
        f"that of {target} (dim {len(got)} vs {len(want)})"
    )


def _split(a, n, h):
    theta = nabla(n - 1, n, a.field)  # a coboundary
    assoc = h("associative")
    ext = central_extension(a, [theta], assoc.variety, h=assoc)
    ok = (not ext.non_split) and all(c.is_zero for c in assoc.reduce_class(theta))
    return ok, "coboundary extension is split and its class vanishes"


def _tower(a, n, h):
    assoc = h("associative")
    ext = central_extension(a, [nabla(n, n, a.field)], assoc.variety, h=assoc)
    out = ext.extended
    ok = (
        out.is_null_filiform()
        and ext.non_split
        and out._annihilator_dim() == 1
        and satisfies_variety(out, assoc.variety)
    )
    return ok, f"extension by the full antidiagonal form is null-filiform of dim {out.dim}"


def _scaling(a, n, h, cols):
    assoc = h("associative")
    base = assoc.reduce_class(nabla(n, n, a.field))
    for col in cols:
        phi = Automorphism(a.field, col)
        moved = assoc.reduce_class(act_on_cocycle(phi, nabla(n, n, a.field)))
        factor = phi.phi11 ** (n + 1)
        if moved != tuple(factor * c for c in base):
            return False, f"scaling failed for column {[str(c) for c in col]}"
    return True, f"class of the antidiagonal form scales by phi11^{n + 1} ({len(cols)} automorphisms)"


def _cocycle_detection(a, n, h, weights):
    field, hlc = a.field, h("left_commutative")
    lc = hlc.variety
    combo = BilinearForm.zero(field, n)
    for w, theta in zip(weights, hlc.z_basis):
        combo = combo + field.scalar(w) * theta
    if not is_cocycle(a, lc, combo):
        return False, "a combination of basis cocycles failed the cocycle check"
    ext = central_extension(a, [combo], lc, h=hlc)
    if not satisfies_variety(ext.extended, lc):
        return False, "extension by a cocycle left the variety"
    # first elementary form outside the cocycle space, row-major scan
    forms = (delta(i, j, n, field) for i in range(1, n + 1) for j in range(1, n + 1))
    bad = next((f for f in forms if not is_cocycle(a, lc, f)), None)
    if bad is None:
        return False, "every elementary form is a cocycle, cannot test rejection"
    try:
        central_extension(a, [bad], lc, h=hlc)
    except NotACocycle:
        pass
    else:
        return False, "non-cocycle was accepted"
    if satisfies_variety(build_extension(a, [bad]), lc):
        return False, "extension by a non-cocycle stayed in the variety"
    return True, "cocycles extend inside the variety, non-cocycles are rejected"


def _table(n, field):
    rows = check_table1(n, field)
    bad = [r["label"] for r in rows if not r["ok"]]
    if bad:
        return False, f"rows failed: {bad}"
    return True, f"all {len(rows)} table rows verified"


def _orbits(n, vname, p):
    report = orbits_on_T1(n, vname, Field.prime(p))
    t1_labels = report.t1_labels
    missing = [lab for lab in t1_labels if lab not in report.matched_labels]
    if missing:
        return False, f"unmatched representatives: {missing}"
    hit = [report.matched_labels[lab] for lab in t1_labels]
    if len(set(hit)) != len(hit):
        return False, "distinct representatives landed in the same orbit"
    return True, (
        f"{len(report.orbits)} orbits on {report.domain_size} lines; "
        f"{len(t1_labels)} representatives pairwise inequivalent"
    )


def _battery(n_max, rng, orbit_primes) -> list:
    claims = []
    for n in range(2, n_max + 1):
        algebra = null_filiform(n, RATIONALS)
        h = functools.cache(lambda v, a=algebra: second_cohomology(a, builtin_variety(v)))
        # draw all randomness for this n upfront so failures don't shift it
        cols = [
            [_random_fraction(rng, nonzero=True)] + [_random_fraction(rng) for _ in range(n - 1)]
            for _ in range(10)
        ]
        weights = [rng.randint(-5, 5) for _ in range(2 * n - 1)]
        _claim(claims, f"power-dims-n{n}", _power_dims, algebra, n)
        for vname in EXPECTED_DIMS:
            _claim(claims, f"dims-{vname.replace('_', '-')}-n{n}", _dims, h, vname, n)
        for vname, target in SAME_COCYCLES_AS.items():
            kind = "triviality" if target == "associative" else "reduction"
            cid = f"{kind}-{vname.replace('_', '-')}-n{n}"
            _claim(claims, cid, _same_space, h, vname, target)
        _claim(claims, f"trivial-extension-n{n}", _split, algebra, n, h)
        _claim(claims, f"unique-associative-extension-n{n}", _tower, algebra, n, h)
        _claim(claims, f"nabla-class-scaling-n{n}", _scaling, algebra, n, h, cols)
        _claim(claims, f"cocycle-detection-n{n}", _cocycle_detection, algebra, n, h, weights)
        _claim(claims, f"table-rows-n{n}", _table, n, RATIONALS)
    for p in orbit_primes:
        for n in range(2, min(n_max, 3) + 1):
            for vname in ("left_commutative", "bicommutative"):
                cid = f"orbits-t1-{vname.replace('_', '-')}-n{n}-p{p}"
                _claim(claims, cid, _orbits, n, vname, p)
    return claims


def run_reproduction(n_max=6, seed=0, budget=None, orbit_primes=(3, 5)) -> dict:
    """Run every claim check up to dimension n_max and return a JSON-ready
    report.  Identical arguments give an identical report; a repeated
    orbit prime is run once.  The budget bounds every enumeration of
    every claim, and mu0:n_max over budget is refused before any claim
    runs."""
    if n_max < 2:
        raise InvalidDim("n_max must be at least 2")
    for p in orbit_primes:
        Field.prime(p)  # a modulus that is not prime is refused before any work
    orbit_primes = tuple(dict.fromkeys(orbit_primes))  # distinct, first seen
    budget = resolve_budget(budget)
    with budget_scope(budget):
        _check_size(n_max)
        claims = _battery(n_max, random.Random(seed), orbit_primes)
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
