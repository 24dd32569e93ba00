import random
from fractions import Fraction

import pytest

from centext import (
    Algebra,
    Field,
    IndexOutOfRange,
    InvalidDim,
    RATIONALS,
    VARIETY_NAMES,
    build_extension,
    builtin_variety,
    delta,
    is_standard_null_filiform,
    nabla,
    null_filiform,
    satisfies_variety,
)

from oracles import basis_vec, is_associative, is_left_commutative, table_mul


def frac_table(a):
    return [
        [[Fraction(str(c.value)) for c in cell] for cell in row] for row in a.table
    ]


def test_null_filiform_products_exhaustive():
    for n in range(1, 7):
        a = null_filiform(n, RATIONALS)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                prod = a.multiply(a.basis_vector(i), a.basis_vector(j))
                if i + j <= n:
                    want = a.basis_vector(i + j)
                else:
                    want = [a.field.zero] * n
                assert list(prod) == list(want)


def test_invalid_dimension():
    with pytest.raises(InvalidDim):
        null_filiform(0, RATIONALS)
    with pytest.raises(InvalidDim):
        null_filiform(-2, RATIONALS)


def test_power_dims_and_annihilator():
    for n in range(1, 8):
        a = null_filiform(n, RATIONALS)
        assert a.power_dims() == tuple(range(n, -1, -1))
        ann = a.annihilator()
        assert ann.dim == 1
        assert ann.contains(a.basis_vector(n))
        assert a.is_null_filiform()
        assert is_standard_null_filiform(a)


def test_null_filiform_recognition_is_basis_free():
    f = RATIONALS
    # same algebra written on the basis e1+e2, e2
    z, o = f.zero, f.one
    table = [[[z, o], [z, z]], [[z, z], [z, z]]]
    mu = null_filiform(2, f)
    assert Algebra(f, table) == mu
    # change of basis g1 = e1 + e2, g2 = e2: g1 g1 = e2 = g2
    twisted = Algebra(f, [[[z, o], [z, z]], [[z, z], [z, z]]])
    assert twisted.is_null_filiform()
    # a genuinely different-looking presentation: g1 g1 = g1 + ... is not nilpotent
    bad = Algebra(f, [[[o, z], [z, z]], [[z, z], [z, z]]])
    assert not bad.is_null_filiform()
    assert not is_standard_null_filiform(bad)


def _explicit_null_filiform_table(n, field):
    """e_i * e_j = e_{i+j} for i + j <= n, as a full Scalar table (0-based)."""
    z, o = field.zero, field.one
    return [
        [[o if k == i + j + 1 else z for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


@pytest.mark.parametrize("field", [RATIONALS, Field.prime(3)])
def test_null_filiform_equals_the_algebra_of_its_explicit_table(field):
    for n in range(1, 7):
        explicit = Algebra(field, _explicit_null_filiform_table(n, field))
        mu = null_filiform(n, field)
        assert mu == explicit and hash(mu) == hash(explicit)
        assert mu.table == explicit.table
        assert is_standard_null_filiform(explicit)


@pytest.mark.parametrize("field", [RATIONALS, Field.prime(3)])
def test_standard_null_filiform_rejects_one_changed_entry(field):
    for n in range(1, 5):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    table = _explicit_null_filiform_table(n, field)
                    table[i][j][k] = table[i][j][k] + field.one
                    assert not is_standard_null_filiform(Algebra(field, table)), (n, i, j, k)


def test_abelian_algebra_power_dims():
    f = RATIONALS
    z = f.zero
    abelian = Algebra(f, [[[z, z], [z, z]], [[z, z], [z, z]]])
    assert abelian.power_dims() == (2, 0)
    assert abelian.annihilator().dim == 2
    assert not abelian.is_null_filiform()


def test_multiply_matches_oracle_over_f5():
    rng = random.Random(31)
    f = Field.prime(5)
    n = 4
    table = [
        [[f.scalar(rng.randint(0, 4)) for _ in range(n)] for _ in range(n)]
        for _ in range(n)
    ]
    a = Algebra(f, table)
    ft = [[[Fraction(c.value) for c in cell] for cell in row] for row in table]
    for _ in range(25):
        x = [rng.randint(0, 4) for _ in range(n)]
        y = [rng.randint(0, 4) for _ in range(n)]
        got = a.multiply([f.scalar(c) for c in x], [f.scalar(c) for c in y])
        want = table_mul(ft, [Fraction(c) for c in x], [Fraction(c) for c in y])
        assert [c.value for c in got] == [int(w) % 5 for w in want]


def test_null_filiform_lies_in_every_catalog_variety():
    # mu0 is commutative and associative, so every catalog identity holds
    for n in range(1, 6):
        a = null_filiform(n, RATIONALS)
        for name in VARIETY_NAMES:
            assert satisfies_variety(a, builtin_variety(name)), name


def test_novikov_counterexample():
    f = RATIONALS
    z, o = f.zero, f.one
    # e1 e1 = e1, e1 e2 = e2: left-symmetric but not right-commutative
    a = Algebra(f, [[[o, z], [z, o]], [[z, z], [z, z]]])
    assert satisfies_variety(a, builtin_variety("left_symmetric"))
    assert not satisfies_variety(a, builtin_variety("right_commutative"))
    assert not satisfies_variety(a, builtin_variety("novikov"))
    # oracle: right-commutativity fails at (1, 1, 2)
    ft = frac_table(a)
    lhs = table_mul(ft, table_mul(ft, basis_vec(2, 0), basis_vec(2, 0)), basis_vec(2, 1))
    rhs = table_mul(ft, table_mul(ft, basis_vec(2, 0), basis_vec(2, 1)), basis_vec(2, 0))
    assert lhs != rhs


def test_variety_membership_against_oracles():
    f = RATIONALS
    z, o = f.zero, f.one
    candidates = [
        null_filiform(3, f),
        Algebra(f, [[[o, z], [z, o]], [[z, z], [z, z]]]),
        Algebra(f, [[[z, o], [z, z]], [[o, z], [z, z]]]),
    ]
    for a in candidates:
        ft = frac_table(a)
        assert satisfies_variety(a, builtin_variety("associative")) == is_associative(ft)
        assert satisfies_variety(a, builtin_variety("lc")) == is_left_commutative(ft)


def test_opposite():
    f = RATIONALS
    z, o = f.zero, f.one
    a = Algebra(f, [[[o, z], [z, o]], [[z, z], [z, z]]])
    op = a.opposite()
    assert op.multiply(op.basis_vector(2), op.basis_vector(1)) == a.multiply(
        a.basis_vector(1), a.basis_vector(2)
    )
    assert a.opposite().opposite() == a
    mu = null_filiform(4, f)
    assert mu.opposite() == mu  # commutative
    # left-commutative of the opposite is right-commutative of the original
    assert satisfies_variety(a, builtin_variety("lc")) == satisfies_variety(
        op, builtin_variety("rc")
    )


def test_json_round_trip_and_validation():
    for field in (RATIONALS, Field.prime(7)):
        a = null_filiform(4, field)
        data = a.to_json()
        assert Algebra.from_json(data) == a
    data = null_filiform(2, RATIONALS).to_json()
    data["products"][0]["out"][0]["k"] = 5
    with pytest.raises(Exception):
        Algebra.from_json(data)


def test_table_shape_validation():
    f = RATIONALS
    with pytest.raises(Exception):
        Algebra(f, [[[f.zero]], [[f.zero]]])  # ragged


def test_basis_vector_refuses_an_index_outside_1_to_dim():
    a = null_filiform(3, RATIONALS)
    assert a.basis_vector(1) == (1, 0, 0) and a.basis_vector(3) == (0, 0, 1)
    for i in (0, 4, -1):
        with pytest.raises(IndexOutOfRange):
            a.basis_vector(i)


@pytest.mark.parametrize("field", [RATIONALS, Field.prime(5)], ids=["Q", "F5"])
def test_to_json_and_opposite_of_a_raw_algebra_leave_its_scalar_table_unbuilt(field):
    a = null_filiform(3, field)
    ext = build_extension(a, [nabla(3, 3, field) + 2 * delta(2, 1, 3, field)])
    doc, op = ext.to_json(), ext.opposite()
    assert doc == Algebra(field, ext.table).to_json()
    n = ext.dim
    assert op.table == tuple(tuple(ext.table[j][i] for j in range(n)) for i in range(n))
    assert op.opposite() == ext
