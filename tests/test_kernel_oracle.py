"""Differential tests of the sparse raw-value kernel against the dense
Fraction/int reference implementations in oracles.py: variety
membership, cocycle equations, cocycle checks, annihilators and row
reduction, on random sparse structure constants, forms and matrices
(fixed seeds)."""

import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from centext import (
    RATIONALS,
    Algebra,
    BilinearForm,
    BudgetExceeded,
    CharTooSmall,
    Field,
    NotACocycle,
    NotInVariety,
    VARIETY_NAMES,
    annihilator_intersection,
    build_extension,
    builtin_variety,
    check_cocycle,
    cocycle_space,
    delta,
    format_identity,
    is_cocycle,
    kernel_basis,
    nabla,
    null_filiform,
    rref,
    satisfies_variety,
    second_cohomology,
)
import centext.algebra as algebra_mod
import centext.cohomology as cohomology_mod
from centext.algebra import _sorted_tuples, _weights
from centext.cohomology import _cocycle_equations
from centext.linalg import mat_mul, rref_with_transform

from oracles import (
    cocycle_rows,
    frac_kernel,
    frac_rref,
    identity_holds,
    modp_kernel,
    modp_rref,
)

FIELDS = {"Q": RATIONALS, "F5": Field.prime(5)}


def _value(rng, p):
    if p:
        return rng.randint(1, p - 1)
    return Fraction(rng.choice((-3, -2, -1, 1, 2)), rng.choice((1, 1, 2, 3)))


def random_table(rng, n, p, graded):
    """Sparse structure constants: any (i, j, k) with probability 1/6, or
    for graded tables only e_i e_j -> e_{i+j}, so some lie in varieties."""
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if graded:
                if i + j + 1 < n and rng.random() < 0.7:
                    table[i][j][i + j + 1] = _value(rng, p)
            else:
                for k in range(n):
                    if rng.random() < 1 / 6:
                        table[i][j][k] = _value(rng, p)
    return table


def algebras(seed):
    rng = random.Random(seed)
    for name, field in FIELDS.items():
        for n in (2, 3, 4):
            for graded in (True, False):
                for _ in range(2):
                    table = random_table(rng, n, field.p, graded)
                    yield name, field, table, Algebra(field, table)


def reduce(x, p):
    return x % p if p else x


def oracle_equations(table, ident, p):
    monos = [(m.coeff, m.tree) for m in ident.monomials]
    return cocycle_rows(table, ident.variables, monos, p)


def first_seen(rows):
    out = []
    for row in rows:
        if any(row) and row not in out:
            out.append(row)
    return out


def dense(rows, ncols):
    out = []
    for row in rows:
        vec = [0] * ncols
        for k, v in row.items():
            vec[k] = v
        out.append(vec)
    return out


@pytest.mark.parametrize("vname", VARIETY_NAMES)
def test_membership_matches_dense_oracle(vname):
    variety = builtin_variety(vname)
    outcomes = set()
    for _, field, table, a in algebras(3):
        want = all(
            identity_holds(table, ident.variables, [(m.coeff, m.tree) for m in ident.monomials], field.p)
            for ident in variety.multilinear_identities
        )
        assert satisfies_variety(a, variety) == want
        outcomes.add(want)
    assert outcomes == {True, False}


def test_stored_verdicts_match_dense_oracle_in_any_order():
    # every variety, asked in catalog order and then in reverse on one
    # object, must get the oracle's answer and a fresh object's: no answer
    # depends on what was asked of the object before
    outcomes = set()
    for _, field, table, a in algebras(7):
        want = {
            vname: all(
                identity_holds(table, ident.variables, [(m.coeff, m.tree) for m in ident.monomials], field.p)
                for ident in builtin_variety(vname).multilinear_identities
            )
            for vname in VARIETY_NAMES
        }
        for vname in VARIETY_NAMES + tuple(reversed(VARIETY_NAMES)):
            variety = builtin_variety(vname)
            assert satisfies_variety(a, variety) == want[vname]
            assert satisfies_variety(Algebra(field, table), variety) == want[vname]
        outcomes.update(want.values())
    assert outcomes == {True, False}


def skip_inputs(field, variety, rng):
    """The zero algebra, every 3-dimensional table with a single nonzero
    product e_i e_j = e_k, and extensions of mu0:n for n = 2..4 by a
    random cocycle of the variety and by random forms: every one has
    basis vectors with an empty row and column, and some are members."""
    # commutative, e_2 e_2 = e_3, e_1 e_3 = e_4, e_2 e_4 = e_5: Jordan's
    # quartic fails at x1 = x2 = x3 = e_2, y = e_1 alone, whose y is below
    # the x's, so only the right block keeps that tuple
    table = [[[0] * 5 for _ in range(5)] for _ in range(5)]
    for i, j, k in ((1, 1, 2), (0, 2, 3), (1, 3, 4)):
        table[i][j][k] = table[j][i][k] = 1
    yield Algebra(field, table)
    for entry in [None, *itertools.product(range(3), repeat=3)]:
        table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        if entry:
            i, j, k = entry
            table[i][j][k] = 1
        yield Algebra(field, table)
    p = field.p
    for n in (2, 3, 4):
        base = null_filiform(n, field)
        theta = BilinearForm.zero(field, n)
        for form in cocycle_space(base, variety):
            theta = theta + field.scalar(_value(rng, p)) * form
        yield build_extension(base, [theta])
        for _ in range(2):
            form = [[_value(rng, p) if rng.random() < 1 / 3 else 0 for _ in range(n)]
                    for _ in range(n)]
            yield build_extension(base, [BilinearForm(field, form)])


@pytest.mark.parametrize("vname", VARIETY_NAMES)
def test_membership_skips_match_dense_oracle(vname):
    # satisfies_variety passes over tuples that bind a vector with an empty
    # row and column, and tuples unsorted within a symmetry block; F_2 has
    # the ties of the antisymmetric identities, which are kept.  Each
    # identity is also asked alone, so that one after a failing identity
    # (Jordan's quartic after commutativity) is still checked
    variety = builtin_variety(vname)
    rng = random.Random(43)
    outcomes = set()
    for field in (RATIONALS, Field.prime(2), Field.prime(3), Field.prime(5)):
        if field.characteristic in variety.char_exclusions:
            continue
        for a in skip_inputs(field, variety, rng):
            table = [[[x.value for x in vec] for vec in row] for row in a.table]
            want = [
                identity_holds(table, ident.variables, [(m.coeff, m.tree) for m in ident.monomials], field.p)
                for ident in variety.multilinear_identities
            ]
            for ident, holds in zip(variety.multilinear_identities, want):
                alone = dataclasses.replace(variety, multilinear_identities=(ident,))
                assert satisfies_variety(a, alone) == holds, (field.spec(), format_identity(ident), table)
            assert satisfies_variety(a, variety) == all(want)
            outcomes.update((field.spec(), holds) for holds in want)
    assert {holds for _, holds in outcomes} == {True, False}
    if not variety.char_exclusions:
        assert {("Fp:2", True), ("Fp:2", False)} <= outcomes


def test_membership_walks_the_same_tuples_whatever_ran_before(monkeypatch):
    # membership is a function of the algebra and the variety: bc walks
    # the same (identity, tuple) sequence on a fresh object as on one whose
    # H2 and lc membership were computed first
    walked = []
    real = algebra_mod._walk

    def recording(a, variety, tuples):
        for ident, combo, value in real(a, variety, tuples):
            walked.append((ident, combo))
            yield ident, combo, value

    monkeypatch.setattr(algebra_mod, "_walk", recording)
    bc, lc = builtin_variety("bc"), builtin_variety("lc")
    assert satisfies_variety(null_filiform(4, RATIONALS), bc)
    fresh = list(walked)
    assert {ident for ident, _ in fresh} == set(bc.multilinear_identities)
    a = null_filiform(4, RATIONALS)
    second_cohomology(a, lc)
    assert satisfies_variety(a, lc)
    walked.clear()
    assert satisfies_variety(a, bc)
    assert walked == fresh


def test_membership_reads_only_the_values_that_decide_it(monkeypatch):
    # the walk's values are lazy: satisfies_variety reads a tuple's value
    # only when the tuple is block-sorted over the basis vectors with a
    # nonzero row or column and its weight sum is at most the top weight,
    # and a member reads every one of them once
    base = null_filiform(3, RATIONALS)
    bc = builtin_variety("bc")
    z = cocycle_space(base, bc)
    theta = sum(z[1:], z[0])
    a = build_extension(base, [theta])
    table = a._sparse
    live = [i for i, row in enumerate(table) if any(row) or any(r[i] for r in table)]
    assert live == [0, 1, 2]  # the extension's e_4 has an empty row and column
    # mu0:3 has weights 1, 2, 3, and e_4 the form's largest i + j
    assert max(i + j for i in range(1, 4) for j in range(1, 4) if not theta.entry(i, j).is_zero) == 4
    weights = [1, 2, 3, 4]
    read = []
    real = algebra_mod._walk

    def noted(ident, combo, value):
        read.append((ident, combo))
        yield from value

    def recording(a, variety, tuples):
        for ident, combo, value in real(a, variety, tuples):
            yield ident, combo, noted(ident, combo, value)

    monkeypatch.setattr(algebra_mod, "_walk", recording)
    assert satisfies_variety(a, bc)
    assert read == [
        (ident, combo)
        for ident in bc.multilinear_identities
        for combo in _sorted_tuples(ident, live)
        if sum(weights[i] for i in combo) <= max(weights)
    ]
    assert len(read) < sum(4 ** len(ident.variables) for ident in bc.multilinear_identities)


def test_membership_walks_only_the_decisive_tuples(monkeypatch):
    # the walk generates no tuple that cannot decide the verdict: on each
    # identity it yields exactly the block-sorted tuples over the basis
    # vectors with a nonzero row or column whose weight sum is at most the
    # top weight, fewer than its N^k tuples, while the budget still counts
    # all N^k
    base = null_filiform(3, RATIONALS)
    lc = builtin_variety("lc")
    z = cocycle_space(base, lc)
    theta = sum(z[1:], z[0])
    a = build_extension(base, [theta])
    live = [0, 1, 2]  # the extension's e_4 has an empty row and column
    assert not any(a._sparse[3]) and not any(row[3] for row in a._sparse)
    # mu0:3 has weights 1, 2, 3, and e_4 the form's largest i + j
    assert max(i + j for i in range(1, 4) for j in range(1, 4) if not theta.entry(i, j).is_zero) == 4
    weights = [1, 2, 3, 4]
    walked = Counter()
    real = algebra_mod._walk

    def recording(a, variety, tuples):
        for ident, combo, value in real(a, variety, tuples):
            walked[ident, combo] += 1
            yield ident, combo, value

    monkeypatch.setattr(algebra_mod, "_walk", recording)
    assert satisfies_variety(a, lc)
    assert set(walked.values()) == {1}
    for ident in lc.multilinear_identities:
        got = [combo for i, combo in walked if i is ident]
        want = [combo for combo in _sorted_tuples(ident, live) if sum(weights[i] for i in combo) <= max(weights)]
        assert got == want
        assert len(got) < 4 ** len(ident.variables)
    total = sum(4 ** len(ident.variables) for ident in lc.multilinear_identities)
    monkeypatch.setenv("CENTEXT_BUDGET", str(total - 1))
    with pytest.raises(BudgetExceeded, match=f"{total} identity tuples exceed budget {total - 1}"):
        satisfies_variety(a, lc)


def test_stored_verdicts_keep_the_char_gate_and_the_budget(monkeypatch):
    f3 = Field.prime(3)
    a = null_filiform(3, f3)
    jordan = builtin_variety("jordan")
    # the multilinear identities alone pass the gate
    linear = dataclasses.replace(jordan, identities=jordan.multilinear_identities)
    assert satisfies_variety(a, linear)
    with pytest.raises(CharTooSmall):
        satisfies_variety(a, jordan)
    lc = builtin_variety("lc")
    assert satisfies_variety(a, lc)
    monkeypatch.setenv("CENTEXT_BUDGET", "26")  # mu0:3 has 27 lc tuples
    with pytest.raises(BudgetExceeded, match="27 identity tuples exceed budget 26"):
        satisfies_variety(a, lc)
    with pytest.raises(BudgetExceeded):
        satisfies_variety(a, linear)


def test_second_cohomology_walks_each_identity_once(monkeypatch):
    # membership is read off the cocycle equations: one walk of every
    # identity over every basis tuple; satisfies_variety walks only the
    # decisive tuples, never the full walk of the equations
    calls, walked = [], Counter()
    real = algebra_mod._identity_terms

    def recording(a, variety):
        calls.append(variety.multilinear_identities)
        for ident, combo, terms in real(a, variety):
            walked[ident, combo] += 1
            yield ident, combo, terms

    monkeypatch.setattr(algebra_mod, "_identity_terms", recording)
    monkeypatch.setattr(cohomology_mod, "_identity_terms", recording)
    a = null_filiform(5, RATIONALS)
    jordan = builtin_variety("jordan")
    second_cohomology(a, jordan)
    assert calls == [jordan.multilinear_identities]
    assert set(walked.values()) == {1}
    assert len(walked) == sum(5 ** len(i.variables) for i in jordan.multilinear_identities)
    calls.clear()
    assert satisfies_variety(a, jordan)
    assert calls == []


def test_h2_multiplies_each_shared_subtree_once_per_tuple(monkeypatch):
    # Jordan's multilinear quartic has 24 products below its monomials'
    # roots but 15 distinct ones; alternative shares none, so filling
    # every slot of a tuple adds no product to the 2,744 of its walk
    calls = []
    real = Algebra._product

    def counting(self, u, w):
        calls.append(None)
        return real(self, u, w)

    monkeypatch.setattr(Algebra, "_product", counting)
    a = null_filiform(7, RATIONALS)
    second_cohomology(a, builtin_variety("jordan"))
    assert len(calls) <= 27_783
    calls.clear()
    second_cohomology(a, builtin_variety("alternative"))
    assert len(calls) == 2_744


def block_sorted(ident, combo):
    """Whether the tuple is sorted within every symmetry block."""
    at = ident.variables.index
    return all(
        [combo[at(v)] for v in block] == sorted(combo[at(v)] for v in block)
        for block in ident.symmetry_blocks
    )


CATALOG_IDENTITIES = list(dict.fromkeys(
    ident for name in VARIETY_NAMES for ident in builtin_variety(name).multilinear_identities
))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_sorted_tuples_are_the_block_sorted_product(n):
    assert any(ident.symmetry_blocks for ident in CATALOG_IDENTITIES)
    for ident in CATALOG_IDENTITIES:
        for indices in (range(n), [1, 4, 5, 9][:n]):
            want = [
                combo
                for combo in itertools.product(indices, repeat=len(ident.variables))
                if block_sorted(ident, combo)
            ]
            assert list(_sorted_tuples(ident, indices)) == want, format_identity(ident)


def test_weights_are_the_least_grading_of_the_table():
    for n in range(1, 9):
        base = null_filiform(n, RATIONALS)
        assert _weights(base) == list(range(1, n + 1))
        # the extension's f weighs the largest i + j of the form's support
        assert _weights(build_extension(base, [nabla(n, n, RATIONALS)])) == list(range(1, n + 2))
        for i in range(1, n + 1):
            assert _weights(build_extension(base, [delta(i, 1, n, RATIONALS)]))[-1] == i + 1
    o, z = RATIONALS.one, RATIONALS.zero
    assert _weights(Algebra(RATIONALS, [[[o]]])) is None  # e_1 e_1 = e_1
    # e_1 e_1 = e_2 and e_2 e_2 = e_1
    assert _weights(Algebra(RATIONALS, [[[z, o], [z, z]], [[z, z], [o, z]]])) is None
    graded = set()
    for _, _, table, a in algebras(19):
        w = _weights(a)
        graded.add(w is not None)
        if w is None:
            continue
        n = a.dim
        into = {k: [w[i] + w[j] for i in range(n) for j in range(n) if table[i][j][k]] for k in range(n)}
        assert all(w[k] >= s for k, sums in into.items() for s in sums)
        assert all(w[k] == max(sums, default=1) for k, sums in into.items())  # the least such weights
    assert graded == {True, False}


def test_is_cocycle_evaluates_only_block_sorted_tuples(monkeypatch):
    evaluated = Counter()
    real = algebra_mod._walk

    def noted(ident, combo, terms):
        evaluated[ident, combo] += 1
        yield from terms

    def recording(a, variety, tuples):
        for ident, combo, terms in real(a, variety, tuples):
            yield ident, combo, noted(ident, combo, terms)

    monkeypatch.setattr(cohomology_mod, "_walk", recording)
    a = null_filiform(5, RATIONALS)
    jordan = builtin_variety("jordan")
    z = cocycle_space(a, jordan)
    theta = sum(z[1:], z[0])
    assert is_cocycle(a, jordan, theta)
    # mu0:5 has weights 1..5; a tuple of larger weight sum than the
    # form's largest i + j has a value row the form vanishes on
    weights = [1, 2, 3, 4, 5]
    cap = max(i + j for i in range(1, 6) for j in range(1, 6) if not theta.entry(i, j).is_zero)
    assert cap == 6
    assert set(evaluated.values()) == {1}
    assert set(evaluated) == {
        (ident, combo)
        for ident in jordan.multilinear_identities
        for combo in itertools.product(range(5), repeat=len(ident.variables))
        if block_sorted(ident, combo) and sum(weights[i] for i in combo) <= cap
    }
    assert len(evaluated) < sum(5 ** len(i.variables) for i in jordan.multilinear_identities) / 2


def membership_inputs():
    """The opposite of a left-commutative algebra, random 2- and
    3-dimensional tables over Q, F_3 and F_5, and extensions of mu0:n by
    random forms."""
    o, z = RATIONALS.one, RATIONALS.zero
    yield Algebra(RATIONALS, [[[o, z], [z, o]], [[z, z], [z, z]]]).opposite()
    rng = random.Random(41)
    for field in (RATIONALS, Field.prime(3), Field.prime(5)):
        p = field.p
        for n in (2, 3):
            for graded in (True, False):
                for _ in range(2):
                    yield Algebra(field, random_table(rng, n, p, graded))
            for _ in range(2):
                form = [[_value(rng, p) if rng.random() < 1 / 3 else 0 for _ in range(n)]
                        for _ in range(n)]
                yield build_extension(null_filiform(n, field), [BilinearForm(field, form)])


@pytest.mark.parametrize("vname", VARIETY_NAMES)
def test_cohomology_refuses_exactly_the_non_members(vname):
    variety = builtin_variety(vname)
    outcomes = set()
    for a in membership_inputs():

        def fresh():
            return Algebra(a.field, a.table)

        def answer(v):
            try:
                return satisfies_variety(fresh(), v)
            except CharTooSmall:
                return CharTooSmall

        others = {v: answer(v) for v in map(builtin_variety, VARIETY_NAMES)}
        want = others[variety]
        outcomes.add(want)
        for solve in (cocycle_space, second_cohomology):
            b = fresh()
            if want is CharTooSmall:
                with pytest.raises(CharTooSmall):
                    solve(b, variety)
                continue
            if want:
                solve(b, variety)
            else:
                with pytest.raises(NotInVariety, match=f"^algebra does not satisfy {vname}$"):
                    solve(b, variety)
            # after the solve, b still gets the fresh answers
            for other, expected in others.items():
                if expected is not CharTooSmall:
                    assert satisfies_variety(b, other) == expected, (vname, other.name)
    assert {True, False} <= outcomes


@pytest.mark.parametrize("vname", ["left_commutative", "jordan", "assosymmetric", "alternative"])
def test_equation_rows_and_cocycle_checks_match_dense_oracle(vname):
    variety = builtin_variety(vname)
    rng = random.Random(5)
    for _, field, table, a in algebras(4):
        p, n = field.p, a.dim
        tagged = [
            (ident, idx, row)
            for ident in variety.multilinear_identities
            for idx, row in oracle_equations(table, ident, p)
        ]
        want_rows = first_seen([row for _, _, row in tagged])
        rows = list(_cocycle_equations(a, variety))
        assert dense(rows, n * n) == want_rows
        # the row space's kernel, and forms in it and near it
        if p:
            kernel = modp_kernel(want_rows, n * n, p)
        else:
            kernel = frac_kernel(want_rows, n * n)
        got = [[x.value for x in v] for v in kernel_basis(rows, n * n, field)]
        assert got == kernel
        for _ in range(4):
            theta = [0] * (n * n)
            for vec in kernel:
                c = _value(rng, p)
                theta = [reduce(t + c * x, p) for t, x in zip(theta, vec)]
            if rng.random() < 0.5:
                theta[rng.randrange(n * n)] = _value(rng, p)
            form = BilinearForm.from_vector(field, n, [field.scalar(t) for t in theta])
            failing = [
                (ident, idx)
                for ident, idx, row in tagged
                if reduce(sum(r * t for r, t in zip(row, theta)), p) != 0
            ]
            if not failing:
                check_cocycle(a, variety, form)
                continue
            ident, idx = failing[0]
            args = ", ".join(f"{v}=e_{i + 1}" for v, i in zip(ident.variables, idx))
            with pytest.raises(NotACocycle) as err:
                check_cocycle(a, variety, form)
            assert str(err.value) == (
                f"cocycle equation from '{format_identity(ident)}' fails at {args}"
            )


def shuffled_null_filiform(rng, n):
    """The dense table of mu0:n on a shuffled basis, e_s[i] e_s[j] =
    e_s[i+j+1], so that the weight order of its basis is not the index
    order."""
    s = list(range(n))
    while s == sorted(s):
        rng.shuffle(s)
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n - 1 - i):
            table[s[i]][s[j]][s[i + j + 1]] = 1
    return table


def random_form(rng, field, n):
    p = field.p
    rows = [[_value(rng, p) if rng.random() < 1 / 3 else 0 for _ in range(n)] for _ in range(n)]
    return BilinearForm(field, rows)


def random_cocycle(rng, a, variety):
    theta = BilinearForm.zero(a.field, a.dim)
    for form in cocycle_space(a, variety):
        theta = theta + a.field.scalar(_value(rng, a.field.p)) * form
    return theta


@pytest.mark.parametrize("vname", VARIETY_NAMES)
def test_weight_caps_match_dense_oracle_off_the_index_order(vname):
    # membership and cocycle checks walk only the tuples within a weight
    # cap (_weights); on a shuffled basis of mu0:n and on its extensions
    # the weights do not follow the indices, so a cap too low, or weights
    # that miss a product, skips a tuple on which the oracle fails
    variety = builtin_variety(vname)
    monomials = {ident: [(m.coeff, m.tree) for m in ident.monomials] for ident in variety.multilinear_identities}
    rng = random.Random(53)
    members, cocycles = set(), set()
    for field in (RATIONALS, Field.prime(3), Field.prime(5)):
        if field.characteristic in variety.char_exclusions:
            continue
        p = field.p
        for n in (3, 4, 5):
            base = Algebra(field, shuffled_null_filiform(rng, n))
            thetas = [random_cocycle(rng, base, variety), random_form(rng, field, n), random_form(rng, field, n)]
            for a in [base] + [build_extension(base, [theta]) for theta in thetas]:
                table = [[[x.value for x in vec] for vec in row] for row in a.table]
                member = all(identity_holds(table, ident.variables, monos, p) for ident, monos in monomials.items())
                assert satisfies_variety(a, variety) == member, (field.spec(), table)
                members.add(member)
                if a is not base and not member:
                    continue
                d = a.dim
                tagged = [
                    (ident, idx, row)
                    for ident in variety.multilinear_identities
                    for idx, row in oracle_equations(table, ident, p)
                ]
                cocycle = random_cocycle(rng, a, variety)
                near = cocycle + field.scalar(_value(rng, p)) * delta(rng.randint(1, d), rng.randint(1, d), d, field)
                forms = [cocycle, near, random_form(rng, field, d)]
                if a is base:  # each entry alone, at every weight
                    forms += [delta(i, j, d, field) for i in range(1, d + 1) for j in range(1, d + 1)]
                for theta in forms:
                    entries = [x.value for x in theta.as_vector()]
                    failing = next(
                        (
                            (ident, idx)
                            for ident, idx, row in tagged
                            if reduce(sum(r * t for r, t in zip(row, entries)), p)
                        ),
                        None,
                    )
                    assert is_cocycle(a, variety, theta) == (failing is None)
                    cocycles.add(failing is None)
                    if failing:
                        ident, idx = failing
                        args = ", ".join(f"{v}=e_{k + 1}" for v, k in zip(ident.variables, idx))
                        with pytest.raises(NotACocycle) as err:
                            check_cocycle(a, variety, theta)
                        want = f"cocycle equation from '{format_identity(ident)}' fails at {args}"
                        assert str(err.value) == want
    assert members == {True, False} and cocycles == {True, False}


def annihilator_equations(table, forms):
    """Dense rows on the coordinates of x: (x e_j)_k, (e_j x)_k, then
    theta(x, e_j) and theta(e_j, x) for each form."""
    n = len(table)
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([table[i][j][k] for i in range(n)])
            rows.append([table[j][i][k] for i in range(n)])
    for theta in forms:
        for j in range(n):
            rows.append([theta[i][j] for i in range(n)])
            rows.append([theta[j][i] for i in range(n)])
    return rows


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_annihilators_match_dense_oracle(name):
    p = FIELDS[name].p
    rng = random.Random(29)
    dims = set()
    for fname, field, table, a in algebras(31):
        if fname != name:
            continue
        n = a.dim
        zero = [[[0] * n for _ in range(n)] for _ in range(n)]

        def kernel(rows, ncols=n):
            return modp_kernel(rows, ncols, p) if p else frac_kernel(rows, ncols)

        def values(space):
            return [[x.value for x in v] for v in space.basis]

        assert values(a.annihilator()) == kernel(annihilator_equations(table, []))
        for count in (0, 1, 2):
            forms = [
                [[_value(rng, p) if rng.random() < 0.25 else 0 for _ in range(n)]
                 for _ in range(n)]
                for _ in range(count)
            ]
            thetas = [BilinearForm(field, f) for f in forms]
            want = kernel(annihilator_equations(table, forms))
            assert values(annihilator_intersection(a, thetas)) == want
            dims.add(len(want))
            # the extension's annihilator, from its own table, is the
            # intersection plus the span of f_1..f_s
            m = n + count
            ext_table = [
                [table[i][j] + [f[i][j] for f in forms] if i < n and j < n else [0] * m for j in range(m)]
                for i in range(m)
            ]
            ext_ann = kernel(annihilator_equations(ext_table, []), m)
            assert values(build_extension(a, thetas).annihilator()) == ext_ann
            assert len(ext_ann) == len(want) + count
            # over the zero algebra, whose annihilator is everything,
            # the intersection is the annihilator of the form alone
            for theta, form in zip(thetas, forms):
                assert values(annihilator_intersection(Algebra(field, zero), [theta])) == kernel(
                    annihilator_equations(zero, [form])
                )
    assert len(dims) > 2  # trivial and nontrivial intersections both occur


def random_matrix(rng, nrows, ncols, p):
    rows = []
    for _ in range(nrows):
        if rng.random() < 0.2:
            rows.append([0] * ncols)
        else:
            rows.append([_value(rng, p) if rng.random() < 0.4 else 0 for _ in range(ncols)])
    return rows


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_reduction_matches_dense_oracle(name):
    field = FIELDS[name]
    p = field.p
    rng = random.Random(23)
    shapes = [(3, 4, "zero"), (1, 1, "zero")] + [
        (rng.randint(1, 7), rng.randint(1, 8), "random") for _ in range(40)
    ]
    for nrows, ncols, kind in shapes:
        if kind == "zero":
            mat = [[0] * ncols for _ in range(nrows)]
        else:
            mat = random_matrix(rng, nrows, ncols, p)
        scalars = [[field.scalar(x) for x in row] for row in mat]
        want, want_pivots = modp_rref(mat, p) if p else frac_rref(mat)
        reduced, pivots = rref(scalars)
        assert [[x.value for x in row] for row in reduced] == want
        assert list(pivots) == want_pivots
        kernel = modp_kernel(mat, ncols, p) if p else frac_kernel(mat, ncols)
        got = kernel_basis(scalars, ncols, field)
        assert [[x.value for x in v] for v in got] == kernel
        sparse = [{c: x for c, x in enumerate(row) if x} for row in mat]
        assert kernel_basis(sparse, ncols, field) == got
        # T @ A = reduced rows padded with zeros, and T is invertible
        red, t, t_pivots, rank = rref_with_transform(scalars, field)
        assert rank == len(want) and t_pivots == want_pivots
        assert [[x.value for x in row] for row in red[:rank]] == want
        assert all(x.is_zero for row in red[rank:] for x in row)
        assert mat_mul(t, scalars) == tuple(tuple(row) for row in red)
        t_vals = [[x.value for x in row] for row in t]
        assert len((modp_rref(t_vals, p) if p else frac_rref(t_vals))[0]) == nrows
