import operator
import random
from fractions import Fraction

import pytest

from centext import (
    CompositeModulus,
    DivisionByZero,
    Field,
    FieldMismatch,
    RATIONALS,
    delta,
)

from oracles import modp_inv


def test_rational_arithmetic_matches_fraction():
    rng = random.Random(51)
    f = RATIONALS
    for _ in range(100):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        sa, sb = f.scalar(a), f.scalar(b)
        assert (sa + sb).value == a + b
        assert (sa - sb).value == a - b
        assert (sa * sb).value == a * b
        assert (-sa).value == -a
        if b != 0:
            assert (sa / sb).value == a / b


def test_prime_field_tables_match_ints():
    f = Field.prime(7)
    for a in range(7):
        for b in range(7):
            assert (f.scalar(a) + f.scalar(b)).value == (a + b) % 7
            assert (f.scalar(a) * f.scalar(b)).value == (a * b) % 7
            assert (f.scalar(a) - f.scalar(b)).value == (a - b) % 7


def test_inverse_exhaustive_f11():
    f = Field.prime(11)
    for a in range(1, 11):
        s = f.scalar(a)
        assert (s * s.inv()).is_one
        assert s.inv().value == modp_inv(a, 11)
        assert (s ** -1) == s.inv()
        assert (s ** 0).is_one


def test_zero_inverse_raises():
    with pytest.raises(DivisionByZero):
        RATIONALS.zero.inv()
    with pytest.raises(DivisionByZero):
        Field.prime(5).zero.inv()
    with pytest.raises(DivisionByZero):
        RATIONALS.one / RATIONALS.zero


def test_fraction_coercion_into_prime_field():
    f = Field.prime(5)
    assert f.scalar(Fraction(1, 2)) == f.scalar(3)  # 2 * 3 = 6 = 1
    assert f.scalar(Fraction(7, 3)) == f.scalar(2) * f.scalar(3).inv()
    with pytest.raises(DivisionByZero):
        f.scalar(Fraction(1, 5))
    with pytest.raises(DivisionByZero):
        f.scalar(Fraction(3, 10))


def test_string_literals_accepted():
    f = Field.prime(7)
    assert f.scalar("-1").value == 6
    assert f.scalar("3/2").value == (3 * modp_inv(2, 7)) % 7
    assert RATIONALS.scalar("3/2").value == Fraction(3, 2)


def test_from_spec_round_trip():
    assert Field.from_spec("Q") is RATIONALS or Field.from_spec("Q") == RATIONALS
    f = Field.from_spec("Fp:13")
    assert f.p == 13 and f.is_finite and f.characteristic == 13
    assert Field.from_spec(f.spec()) == f
    assert RATIONALS.spec() == "Q"
    assert not RATIONALS.is_finite and RATIONALS.characteristic == 0


def test_bad_specs_rejected():
    for bad in ("Fp:12", "Fp:1", "Fp:0", "Fp:-3", "Fp:abc", "GF:5", ""):
        with pytest.raises(CompositeModulus):
            Field.from_spec(bad)
    with pytest.raises(CompositeModulus):
        Field.prime(9)
    with pytest.raises(CompositeModulus):
        Field.prime(1)


def test_cross_field_operations_raise():
    a = RATIONALS.one
    b = Field.prime(5).one
    with pytest.raises(FieldMismatch):
        a + b
    with pytest.raises(FieldMismatch):
        a * b
    assert a != b  # equality is just False, never an error
    c = Field.prime(7).one
    with pytest.raises(FieldMismatch):
        b + c


def test_literal_formats():
    assert RATIONALS.scalar(Fraction(-3, 7)).literal() == "-3/7"
    assert RATIONALS.scalar(4).literal() == "4"
    assert Field.prime(11).scalar(-1).literal() == "10"


def test_scalars_hashable_and_ordered():
    f = Field.prime(5)
    seen = {f.scalar(i) for i in range(10)}
    assert len(seen) == 5
    residues = [f.scalar(i) for i in range(5)]
    assert sorted(residues) == residues
    assert RATIONALS.scalar(Fraction(1, 3)) < RATIONALS.scalar(Fraction(1, 2))
    # int and Fraction compare equal to matching scalars
    assert f.scalar(3) == 3
    assert RATIONALS.scalar(Fraction(1, 2)) == Fraction(1, 2)


def test_scalars_combine_only_with_scalars_of_their_field():
    # Field.scalar reads a number first; == alone reads an int or Fraction,
    # and one that is no element of the field is unequal, never an error
    for f in (RATIONALS, Field.prime(5)):
        s = f.scalar(3)
        for number in (3, Fraction(1, 2)):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.le):
                for args in ((s, number), (number, s)):
                    with pytest.raises(TypeError):
                        op(*args)
        assert s == 3 and 3 == s and s == Fraction(3) and s != 4
        half, theta = f.scalar(Fraction(1, 2)), delta(2, 1, 3, f)
        assert half == Fraction(1, 2) and Fraction(1, 2) == half
        for c in (Fraction(1, 2), "1/2", half):
            assert (c * theta).entry(2, 1) == half
        assert (2 * theta).entry(2, 1) == f.scalar(2)
    f5 = Field.prime(5)
    assert f5.one != Fraction(1, 5) and Fraction(1, 5) != f5.one


def test_primality_is_exact_below_the_limit():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(-3, 5000):
        if trial_division(n):
            assert Field.prime(n).p == n
        else:
            with pytest.raises(CompositeModulus):
                Field.prime(n)
    assert Field.prime(2**61 - 1).p == 2**61 - 1
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(CompositeModulus):
            Field.prime(n)


def test_moduli_above_the_limit_are_refused():
    from centext import ModulusTooLarge
    from centext.fields import MODULUS_LIMIT

    for n in (MODULUS_LIMIT, 2**89 - 1):
        with pytest.raises(ModulusTooLarge):
            Field.prime(n)
