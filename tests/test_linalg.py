import random
from fractions import Fraction

import pytest
import sympy

from centext import Field, RATIONALS, Subspace, kernel_basis, rref
from centext.linalg import (
    _echelon,
    basis_vec,
    mat_mul,
    mat_vec,
    rref_with_transform,
)

from oracles import frac_kernel, frac_rref, modp_rref


def random_matrix(rng, nrows, ncols, field):
    return [
        [field.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def as_fracs(rows):
    return [[Fraction(str(x.value)) for x in row] for row in rows]


def test_rref_matches_sympy_and_oracle():
    rng = random.Random(7)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
        mat = random_matrix(rng, nrows, ncols, RATIONALS)
        reduced, pivots = rref(mat)
        got = as_fracs(reduced)
        sym, sym_pivots = sympy.Matrix([[x.value for x in row] for row in mat]).rref()
        want = [
            [Fraction(str(sym[i, j])) for j in range(ncols)]
            for i in range(sym.rank())
        ]
        assert got == want
        assert list(pivots) == list(sym_pivots)
        oracle, oracle_pivots = frac_rref([[x.value for x in row] for row in mat])
        assert got == oracle and list(pivots) == oracle_pivots


def test_kernel_matches_sympy_span():
    rng = random.Random(11)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 7)
        mat = random_matrix(rng, nrows, ncols, RATIONALS)
        ker = kernel_basis(mat, ncols, RATIONALS)
        # every kernel vector is killed by the matrix
        for vec in ker:
            assert all(x.is_zero for x in mat_vec(mat, vec))
        got = as_fracs(ker)
        null = sympy.Matrix([[x.value for x in row] for row in mat]).nullspace()
        want = frac_rref([[Fraction(str(v[i])) for i in range(ncols)] for v in null])[0]
        assert got == want
        oracle = frac_kernel([[x.value for x in row] for row in mat], ncols)
        assert got == oracle


def test_kernel_over_prime_field():
    rng = random.Random(13)
    f = Field.prime(7)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        mat = [
            [f.scalar(rng.randint(0, 6)) for _ in range(ncols)] for _ in range(nrows)
        ]
        ker = kernel_basis(mat, ncols, f)
        for vec in ker:
            assert all(x.is_zero for x in mat_vec(mat, vec))
        reduced, pivots = rref(mat)
        oracle_red, oracle_piv = modp_rref(
            [[x.value for x in row] for row in mat], 7
        )
        assert [[x.value for x in row] for row in reduced] == oracle_red
        assert list(pivots) == oracle_piv
        assert len(ker) == ncols - len(pivots)


def test_rref_with_transform_certificate():
    rng = random.Random(17)
    for _ in range(10):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        mat = random_matrix(rng, nrows, ncols, RATIONALS)
        reduced, t, pivots, rank = rref_with_transform(mat, RATIONALS)
        assert rank == len(pivots)
        prod = mat_mul(t, mat)
        assert as_fracs(prod) == as_fracs(reduced)


def test_subspace_membership_and_intersection():
    f = RATIONALS
    e = lambda i: basis_vec(f, 4, i)
    s1 = Subspace(f, 4, [e(0), e(1)])
    s2 = Subspace(f, 4, [e(1), e(2)])
    assert s1.dim == 2 and s2.dim == 2
    assert s1.contains((f.one, f.scalar(3), f.zero, f.zero))  # e_0 + 3 e_1
    assert not s1.contains(e(2))


def test_subspace_canonical_equality():
    f = RATIONALS
    a = [f.scalar(1), f.scalar(2), f.scalar(0)]
    b = [f.scalar(0), f.scalar(1), f.scalar(1)]
    combo = [f.scalar(1), f.scalar(-3), f.scalar(-5)]  # a - 5 b
    s1 = Subspace(f, 3, [a, b])
    s2 = Subspace(f, 3, [combo, b])
    assert s1 == s2
    assert hash(s1) == hash(s2)


def test_matrix_helpers():
    f = Field.prime(5)
    ident = tuple(basis_vec(f, 3, i) for i in range(3))
    mat = tuple(
        tuple(f.scalar(v) for v in row) for row in ((1, 2, 0), (0, 1, 4), (3, 0, 2))
    )
    assert tuple(mat_mul(ident, mat)) == mat
    assert tuple(mat_mul(mat, ident)) == mat


def _random_rows(rng, nrows, ncols, value):
    """Sparse dense-listed rows with zero rows, repeated rows and
    multiples of earlier rows mixed in."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * ncols)
        elif kind < 0.35 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.45 and rows:
            c = value()
            rows.append([c * x for x in rng.choice(rows)])
        else:
            rows.append([value() if rng.random() < 0.4 else 0 for _ in range(ncols)])
    return rows


@pytest.mark.parametrize("p", [None, 5])
def test_echelon_reports_the_rows_that_open_a_pivot(p):
    """Row k opens a pivot exactly when the rank of rows[:k+1] exceeds the
    rank of rows[:k], by the dense oracles; the echelon itself is the one
    computed without the report."""
    rng = random.Random(7 if p else 3)
    if p:
        value, rank = (lambda: rng.randrange(p)), (lambda rows: len(modp_rref(rows, p)[0]))
    else:
        value = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        rank = lambda rows: len(frac_rref(rows)[0])
    for _ in range(40):
        ncols = rng.randint(1, 7)
        rows = _random_rows(rng, rng.randint(0, 10), ncols, value)
        if p:
            rows = [[x % p for x in row] for row in rows]
        sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
        opened = []
        got = _echelon([dict(r) for r in sparse], p, opened)
        assert got == _echelon([dict(r) for r in sparse], p)
        want = [k for k in range(len(rows)) if rank(rows[: k + 1]) > rank(rows[:k])]
        assert opened == want


@pytest.mark.parametrize("field", [RATIONALS, Field.prime(5)], ids=["Q", "F5"])
def test_subspaces_of_one_span_are_equal_and_hash_alike(field):
    s = lambda *vs: [tuple(field.scalar(x) for x in v) for v in vs]
    a = Subspace(field, 3, s((1, 2, 0), (0, 1, 1)))
    b = Subspace(field, 3, s((1, 3, 1), (2, 4, 0), (1, 2, 0)))
    assert a == b and hash(a) == hash(b)
    assert a.basis == tuple(s((1, 0, -2), (0, 1, 1))) and a.dim == 2
    assert a != Subspace(field, 3, s((1, 2, 0)))
    assert Subspace(field, 3) != Subspace(field, 4)
    f7 = Field.prime(7)
    assert Subspace(field, 3, s((1, 0, 0))) != Subspace(f7, 3, [(f7.one, f7.zero, f7.zero)])
    assert a.contains(s((2, 5, 1))[0]) and not a.contains(s((0, 0, 1))[0])
