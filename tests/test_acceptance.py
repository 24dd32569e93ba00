"""Acceptance gate: one test per numbered criterion, each printing a
single summary line on success.  Run with -s to see the lines."""

import itertools
import random
import time
from fractions import Fraction

from centext import (
    BilinearForm,
    ClassAction,
    Field,
    RATIONALS,
    builtin_variety,
    build_extension,
    central_extension,
    check_table1,
    closed_field_representatives,
    cocycle_space,
    delta,
    is_cocycle,
    nabla,
    null_filiform,
    orbits_on_T1,
    roots_of_unity_subgroup,
    satisfies_variety,
    second_cohomology,
)
from centext.automorphisms import Automorphism, act_on_cocycle

from oracles import frac_rref

LC = builtin_variety("left_commutative")
BC = builtin_variety("bicommutative")
ASSOC = builtin_variety("associative")

ALL_VARIETIES = (
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


def vecs(forms):
    return [[x.value for x in f.as_vector()] for f in forms]


def test_criterion_1_associative_baseline():
    for n in range(2, 8):
        start = time.perf_counter()
        a = null_filiform(n, RATIONALS)
        h = second_cohomology(a, ASSOC)
        assert h.dim_z == n
        assert list(h.z_basis) == [nabla(j, n, RATIONALS) for j in range(1, n + 1)]
        assert h.dim_b == n - 1
        assert h.dim_h == 1
        red = h.reduce_class(nabla(n, n, RATIONALS))
        assert tuple(x.value for x in red) == (1,)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"n={n} took {elapsed:.2f}s"
    print("PASS criterion 1: associative Z/B/H dims and antidiagonal basis, n=2..7, <1s each")


def test_criterion_2_lc_bc_dimensions():
    for n in range(2, 8):
        start = time.perf_counter()
        f = RATIONALS
        a = null_filiform(n, f)
        h_lc = second_cohomology(a, LC)
        assert h_lc.dim_z == 2 * n - 1 and h_lc.dim_h == n
        stated_lc = [delta(1, 1, n, f)]
        stated_lc += [nabla(j, n, f) - delta(j, 1, n, f) for j in range(2, n + 1)]
        stated_lc += [delta(i, 1, n, f) for i in range(2, n + 1)]
        assert len(stated_lc) == h_lc.dim_z
        assert all(is_cocycle(a, LC, t) for t in stated_lc)
        rows, _ = frac_rref(vecs(stated_lc))
        assert len(rows) == h_lc.dim_z  # linearly independent, so a basis
        h_bc = second_cohomology(a, BC)
        assert h_bc.dim_z == n + 1 and h_bc.dim_h == 2
        stated_bc = [nabla(j, n, f) for j in range(1, n + 1)] + [delta(2, 1, n, f)]
        assert all(is_cocycle(a, BC, t) for t in stated_bc)
        rows, _ = frac_rref(vecs(stated_bc))
        assert len(rows) == h_bc.dim_z
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"n={n} took {elapsed:.2f}s"
    print("PASS criterion 2: LC/BC cocycle dims (2n-1, n+1) and stated bases, n=2..7, <5s each")


def test_criterion_3_cocycle_space_collapse():
    for n in range(2, 8):
        a = null_filiform(n, RATIONALS)
        antidiagonals = vecs([nabla(j, n, RATIONALS) for j in range(1, n + 1)])
        z_la = vecs(cocycle_space(a, builtin_variety("left_alternative")))
        assert z_la == antidiagonals
        z_j = vecs(cocycle_space(a, builtin_variety("jordan")))
        assert z_j == antidiagonals
        z_alt = vecs(cocycle_space(a, builtin_variety("alternative")))
        merged, _ = frac_rref(z_la + z_alt)
        assert len(merged) == len(z_la)  # alternative cocycles inside left-alternative
        for name in ("left_alternative", "jordan", "alternative"):
            assert second_cohomology(a, builtin_variety(name)).dim_h == 1
    print("PASS criterion 3: left-alternative/Jordan cocycles = antidiagonal span, dim H = 1, n=2..7")


def test_criterion_4_reduction_equalities():
    for n in range(2, 8):
        a = null_filiform(n, RATIONALS)
        z_bc = vecs(cocycle_space(a, BC))
        assert vecs(cocycle_space(a, builtin_variety("assosymmetric"))) == z_bc
        assert vecs(cocycle_space(a, builtin_variety("novikov"))) == z_bc
        z_lc = vecs(cocycle_space(a, LC))
        assert vecs(cocycle_space(a, builtin_variety("left_symmetric"))) == z_lc
    print("PASS criterion 4: assosymmetric/Novikov cocycles = BC, left-symmetric = LC, n=2..7")


def test_criterion_5_extension_lemma_randomized():
    rng = random.Random(2024)
    fields = (RATIONALS, Field.prime(5))
    spaces = {}
    checked = 0
    for vname in ALL_VARIETIES:
        variety = builtin_variety(vname)
        seen = {True: 0, False: 0}
        for trial in range(200):
            n = rng.randint(2, 5)
            field = fields[trial % 2]
            a = null_filiform(n, field)
            key = (vname, n, field.spec())
            if key not in spaces:
                spaces[key] = cocycle_space(a, variety)
            basis = spaces[key]
            if rng.random() < 0.5:
                theta = BilinearForm.zero(field, n)
                for t in basis:
                    theta = theta + field.scalar(rng.randint(-2, 2)) * t
            else:
                theta = BilinearForm.from_vector(
                    field,
                    n,
                    [field.scalar(rng.randint(-2, 2)) for _ in range(n * n)],
                )
            lhs = is_cocycle(a, variety, theta)
            rhs = satisfies_variety(build_extension(a, [theta]), variety)
            assert lhs == rhs, (vname, n, field.spec(), theta)
            seen[lhs] += 1
            checked += 1
        assert seen[True] > 0 and seen[False] > 0, vname
    print(f"PASS criterion 5: extension-membership equivalence, {checked} trials, both directions, 0 failures")


def test_criterion_6_trivial_extension_tower():
    for n in range(2, 8):
        f = RATIONALS
        result = central_extension(null_filiform(n, f), [nabla(n, n, f)], ASSOC)
        assert result.extended == null_filiform(n + 1, f)
        assert result.extended.is_null_filiform()
        assert result.non_split
    print("PASS criterion 6: extension by the full antidiagonal is null-filiform of dim n+1, n=2..7")


def test_criterion_7_nabla_class_scaling():
    rng = random.Random(777)
    for n in range(2, 7):
        f = RATIONALS
        a = null_filiform(n, f)
        h = second_cohomology(a, LC)
        base = h.reduce_class(nabla(n, n, f))
        for _ in range(100):
            head = f.scalar(Fraction(rng.randint(1, 7), rng.randint(1, 5)))
            if rng.random() < 0.5:
                head = -head
            col = [head] + [
                f.scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
                for _ in range(n - 1)
            ]
            phi = Automorphism(f, col)
            moved = h.reduce_class(act_on_cocycle(phi, nabla(n, n, f)))
            factor = phi.phi11 ** (n + 1)
            assert moved == tuple(factor * c for c in base)
    print("PASS criterion 7: LC class of the antidiagonal scales by phi11^(n+1), n=2..6, 100 automorphisms each")


def test_criterion_8_table_reconstruction():
    total = 0
    for n in (3, 4, 5):
        results = check_table1(n, RATIONALS)
        assert [r for r in results if not r["ok"]] == []
        wide = [r for r in results if r["annihilator_dim"] == 2]
        assert len(wide) == n - 2  # the delta_k_1 rows, 2 <= k <= n-1
        assert all(not r["t1"] for r in wide)
        total += len(results)
    print(f"PASS criterion 8: all {total} table rows for n=3,4,5 match products and flags exactly")


def test_criterion_9_finite_field_orbits():
    pairs = ((2, 3), (2, 5), (3, 3), (3, 5), (4, 3))
    for (n, p) in pairs:
        for vname in ("left_commutative", "bicommutative"):
            start = time.perf_counter()
            field = Field.prime(p)
            report = orbits_on_T1(n, vname, field)
            elapsed = time.perf_counter() - start
            assert elapsed < 60.0, f"{vname} n={n} p={p} took {elapsed:.1f}s"
            t1_reps = [
                r
                for r in closed_field_representatives(vname, n, field, level="T1")
                if r.t1
            ]
            for r in t1_reps:
                assert r.label in report.matched_labels, (vname, n, p, r.label)
            hit = [report.matched_labels[r.label] for r in t1_reps]
            assert len(set(hit)) == len(hit), f"orbit collision {vname} n={n} p={p}"
            assert sum(o.size for o in report.orbits) == report.domain_size
    # coset criterion, exhaustively over all nonzero parameter pairs
    checked_pairs = 0
    for (n, p, idxs) in ((3, 13, (2,)), (4, 5, (2, 3))):
        field = Field.prime(p)
        action = ClassAction(n, "left_commutative", field)
        for i in idxs:
            sub = roots_of_unity_subgroup(i, n, field)
            coords = {}
            orbits = {}
            for mu in range(1, p):
                theta = nabla(n, n, field) + field.scalar(mu) * delta(i, 1, n, field)
                coords[mu] = action.coords_of(theta)
            for mu in range(1, p):
                orbits[mu] = action.orbit_of_class(coords[mu])
            for mu in range(1, p):
                for nu in range(1, p):
                    same = coords[nu] in orbits[mu]
                    want = sub.contains(field.scalar(nu) / field.scalar(mu))
                    assert same == want, (n, p, i, mu, nu)
                    checked_pairs += 1
    print(
        "PASS criterion 9: T1 orbits for 5 (n,p) pairs x {LC,BC} with distinct tabulated "
        f"representatives; coset criterion exhaustive on {checked_pairs} parameter pairs"
    )


def _det3(m, p):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    ) % p


def _gl3_isomorphism(ta, tb, p):
    """Search all of GL_3(F_p) for M with M(xy) = (Mx)(My), tables as
    nested ints mod p.  Returns the first witness or None."""

    def mulb(x, y):
        out = [0, 0, 0]
        for i in range(3):
            if x[i] == 0:
                continue
            for j in range(3):
                if y[j] == 0:
                    continue
                c = x[i] * y[j]
                for k in range(3):
                    out[k] = (out[k] + c * tb[i][j][k]) % p
        return out

    count = 0
    for flat in itertools.product(range(p), repeat=9):
        m = (flat[0:3], flat[3:6], flat[6:9])
        if _det3(m, p) == 0:
            continue
        count += 1
        cols = [[m[r][c] for r in range(3)] for c in range(3)]
        ok = True
        for i in range(3):
            for j in range(3):
                want = [0, 0, 0]
                for k in range(3):
                    if ta[i][j][k]:
                        want = [
                            (w + ta[i][j][k] * m[r][k]) % p for r, w in enumerate(want)
                        ]
                if mulb(cols[i], cols[j]) != want:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return m, count
    return None, count


def test_criterion_10_gl3_isomorphism_crosscheck():
    start = time.perf_counter()
    p = 3
    field = Field.prime(p)
    a = null_filiform(2, field)
    h = second_cohomology(a, LC)
    report = orbits_on_T1(2, "left_commutative", field)
    assert len(report.orbits) == 4 and all(o.size == 1 for o in report.orbits)

    def int_table(theta):
        ext = build_extension(a, [theta])
        return [
            [[c.value for c in cell] for cell in row] for row in ext.table
        ]

    tables = []
    for orbit in report.orbits:
        theta = h.rep_from_coords(orbit.representative)
        tables.append(int_table(theta))
    searched = 0
    for i in range(4):
        for j in range(i + 1, 4):
            witness, count = _gl3_isomorphism(tables[i], tables[j], p)
            searched = max(searched, count)
            assert witness is None, (i, j)  # distinct orbits: never isomorphic
    assert searched == 11232  # |GL_3(F_3)|
    # same line, different cocycle: must be isomorphic
    scaled = int_table(
        field.scalar(2) * h.rep_from_coords(report.orbits[0].representative)
    )
    witness, _ = _gl3_isomorphism(tables[0], scaled, p)
    assert witness is not None
    # and every algebra is isomorphic to itself
    witness, _ = _gl3_isomorphism(tables[0], tables[0], p)
    assert witness is not None
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(
        "PASS criterion 10: exhaustive GL3(F3) search agrees with orbit classification "
        f"on all pairs ({elapsed:.1f}s)"
    )


def test_criterion_11_bicommutative_headline():
    for p in (5, 7):
        field = Field.prime(p)
        a = null_filiform(3, field)
        h = second_cohomology(a, BC)
        report = orbits_on_T1(3, "bicommutative", field)
        assert len(report.orbits) >= 2
        trivial_idx = report.matched_labels["nabla3"]
        trivial_rep = h.rep_from_coords(report.orbits[trivial_idx].representative)
        trivial_ext = central_extension(a, [trivial_rep], BC)
        assert trivial_ext.non_split
        assert trivial_ext.extended == null_filiform(4, field)
        other_idx = next(k for k in range(len(report.orbits)) if k != trivial_idx)
        other_rep = h.rep_from_coords(report.orbits[other_idx].representative)
        other_ext = central_extension(a, [other_rep], BC)
        assert other_ext.non_split
        assert satisfies_variety(other_ext.extended, BC)
        # associativity separates it from the trivial mu0^4 extension
        assert not satisfies_variety(other_ext.extended, ASSOC)
    print(
        "PASS criterion 11: over F5 and F7 the 3-dim base has the trivial null-filiform "
        "BC extension plus a second, inequivalent non-split one"
    )
