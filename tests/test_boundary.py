"""Every public entry point that takes a vector reads it the same way:
ints, literal strings and Scalars of the field give one result, a Scalar
of another field raises FieldMismatch, and a vector of the wrong length
raises DimMismatch.  A {column: value} dict row is read as the vector it
spells where the width is given, and refused where it is not.  Every
scalar entry, in a vector, a JSON document or alone, is refused with one
typed error: MalformedInput for an entry that is no number of the field,
DivisionByZero for a denominator that vanishes.  Every function that
takes a variety takes its name too."""

from fractions import Fraction

import pytest

from centext import (
    Algebra,
    Automorphism,
    BilinearForm,
    CentextError,
    DimMismatch,
    DivisionByZero,
    Field,
    FieldMismatch,
    MalformedInput,
    RATIONALS,
    Subspace,
    UnknownVariety,
    builtin_variety,
    central_extension,
    check_cocycle,
    closed_field_representatives,
    cocycle_space,
    delta,
    is_cocycle,
    kernel_basis,
    nabla,
    null_filiform,
    orbits_on_T1,
    rref,
    satisfies_variety,
    second_cohomology,
)
from centext.linalg import mat_mul, mat_vec
from centext.orbits import ClassAction

F7 = Field.prime(7)
F5 = Field.prime(5)


def _scalars(field, *xs):
    return tuple(field.scalar(x) for x in xs)


def _entry_points():
    """(name, field, vector as ints, call): call(v) hands v to the entry
    point in one argument and returns what it returns."""
    q, f7 = RATIONALS, F7
    q_row = lambda *xs: _scalars(q, *xs)
    f7_row = lambda *xs: _scalars(f7, *xs)
    mu3 = null_filiform(3, f7)
    form = nabla(3, 3, q) + 2 * delta(2, 1, 3, q)
    h = second_cohomology(null_filiform(3, f7), builtin_variety("left_commutative"))
    phi = Automorphism(f7, (1, 2, 0))
    action = ClassAction(2, "bicommutative", Field.prime(3))
    return [
        ("rref", q, (1, -2, 0, 3), lambda v: rref([q_row(0, 1, 1, 0), v])),
        ("kernel_basis", f7, (8, -2, 0, 3), lambda v: kernel_basis([v], 4, f7)),
        ("Subspace", q, (1, -2, 3), lambda v: Subspace(q, 3, [v, q_row(0, 1, 0)])),
        ("Subspace.contains", f7, (1, 5, 6),
         lambda v: Subspace(f7, 3, [f7_row(1, 0, 6), f7_row(0, 1, 0)]).contains(v)),
        ("Algebra.multiply", f7, (1, -1, 9), lambda v: mu3.multiply(v, f7_row(0, 1, 1))),
        ("Algebra", q, (0, -2), lambda v: Algebra(q, [[v, q_row(1, 0)], [q_row(0, 0), q_row(0, 0)]])),
        ("BilinearForm", f7, (8, 0, -3), lambda v: BilinearForm(f7, [v, (0, 1, 0), (0, 0, 0)])),
        ("BilinearForm.from_vector", q, (0, 1, -1, 4), lambda v: BilinearForm.from_vector(q, 2, v)),
        ("BilinearForm.evaluate", q, (1, -2, 3), lambda v: form.evaluate(v, q_row(2, 1, 0))),
        ("rep_from_coords", f7, (1, 8, -1), h.rep_from_coords),
        ("Automorphism.apply", f7, (1, 9, -1), phi.apply),
        ("orbit_of_class", action.field, (4, 0), action.orbit_of_class),
        # whether two classes share an orbit, asked of orbit_of_class
        ("same_orbit", action.field, (2, 3), lambda v: action.orbit_of_class(v) == action.orbit_of_class((1, 0))),
        ("mat_vec", q, (1, -2, 3), lambda v: mat_vec([q_row(1, 0, 2), q_row(0, "1/2", 1)], v)),
        ("mat_mul", f7, (8, -1),
         lambda v: mat_mul([v, f7_row(0, 1)], [f7_row(1, 2, 0), f7_row(3, 0, 1)])),
    ]


ENTRY_POINTS = _entry_points()
IDS = [name for name, *_ in ENTRY_POINTS]


@pytest.mark.parametrize("name, field, ints, call", ENTRY_POINTS, ids=IDS)
def test_ints_literals_and_scalars_give_one_result(name, field, ints, call):
    want = call(_scalars(field, *ints))
    assert call(ints) == want
    assert call(tuple(str(x) for x in ints)) == want
    assert call(list(ints)) == want


@pytest.mark.parametrize("name, field, ints, call", ENTRY_POINTS, ids=IDS)
def test_a_scalar_of_another_field_is_refused(name, field, ints, call):
    other = F5 if field == RATIONALS else RATIONALS
    for k in range(len(ints)):
        v = [field.scalar(x) for x in ints]
        v[k] = other.scalar(ints[k])
        with pytest.raises(FieldMismatch):
            call(tuple(v))


@pytest.mark.parametrize("name, field, ints, call", ENTRY_POINTS, ids=IDS)
def test_a_vector_of_another_length_is_refused(name, field, ints, call):
    for v in (ints + (0,), ints[:-1], ()):
        with pytest.raises(DimMismatch):
            call(v)


def _dict_rows():
    """(name, call, error): call hands the entry point a dict row or
    vector that it must refuse with error."""
    q = RATIONALS
    return [
        ("kernel_basis column past the width", lambda: kernel_basis([{5: 1}], 2, F7), DimMismatch),
        ("kernel_basis negative column", lambda: kernel_basis([{-1: 1}], 2, F7), DimMismatch),
        ("kernel_basis string column", lambda: kernel_basis([{"0": 1}], 2, F7), DimMismatch),
        ("kernel_basis other field", lambda: kernel_basis([{0: F5.one}], 2, F7), FieldMismatch),
        ("Subspace column past the width", lambda: Subspace(F7, 2, [{7: 1}]), DimMismatch),
        ("Subspace other field", lambda: Subspace(q, 2, [{1: F7.one}]), FieldMismatch),
        ("rref sparse row", lambda: rref([{0: 1, 3: 2}]), DimMismatch),
        ("rref unreadable value", lambda: rref([{0: "x"}]), DimMismatch),
        ("rref after a vector", lambda: rref([(1, 2), {1: 1}]), DimMismatch),
        ("mat_vec rows", lambda: mat_vec([{0: 1}], (1,)), DimMismatch),
        ("mat_vec vector", lambda: mat_vec([(1, 0)], {0: 1, 1: 0}), DimMismatch),
        ("mat_mul", lambda: mat_mul([(1,)], [{0: 1}]), DimMismatch),
        ("Subspace.contains", lambda: Subspace(F7, 2).contains({0: 1, 1: 0}), DimMismatch),
        ("Algebra.multiply", lambda: null_filiform(3, F7).multiply({0: 1, 1: 1, 2: 1}, (1, 0, 0)),
         DimMismatch),
    ]


DICT_ROWS = _dict_rows()


@pytest.mark.parametrize("name, call, error", DICT_ROWS, ids=[name for name, *_ in DICT_ROWS])
def test_a_bad_dict_row_is_refused(name, call, error):
    assert issubclass(error, CentextError)
    with pytest.raises(error):
        call()


def test_a_dict_row_reads_as_the_vector_it_spells():
    assert kernel_basis([{1: 8, 0: "1/2"}], 2, F7) == kernel_basis([("1/2", 8)], 2, F7)
    assert kernel_basis([{}], 3, RATIONALS) == kernel_basis([(0, 0, 0)], 3, RATIONALS)
    assert Subspace(F7, 3, [{2: F7.scalar(3)}, {0: 1}]) == Subspace(F7, 3, [(0, 0, 3), (1, 0, 0)])


def test_values_read_at_the_boundary():
    # a residue is read mod p, a literal as the number it spells
    assert kernel_basis([(8, -2, 0, 3)], 4, F7) == kernel_basis([(1, 5, 0, 3)], 4, F7)
    assert BilinearForm.from_vector(RATIONALS, 1, ["-1/2"]).entry(1, 1) == Fraction(-1, 2)
    # rref reads its field off its first Scalar, the rationals without one
    reduced, pivots = rref([(2, 1), (0, 3)])
    assert pivots == [0, 1] and reduced[0] == (RATIONALS.one, RATIONALS.zero)
    reduced, _ = rref([(F7.scalar(2), 1)])
    assert reduced == [(F7.one, F7.scalar(4))]
    # so do mat_vec and mat_mul, over both arguments; an empty row is a zero
    assert mat_vec([(RATIONALS.one, RATIONALS.zero)], (1, 0)) == (RATIONALS.one,)
    assert mat_vec([(2, 1)], (F7.scalar(4), 0)) == (F7.one,)
    assert mat_vec([()], ()) == (RATIONALS.zero,)
    assert mat_mul([(1, 2)], [(1,), ("1/2",)]) == ((RATIONALS.scalar(2),),)
    # a first column is read like any other vector
    assert Automorphism(F7, (8, "2", F7.zero)) == Automorphism(F7, (1, 2, 0))
    with pytest.raises(FieldMismatch):
        Automorphism(F7, (1, F5.one))


def _scalar_entry_points():
    """(name, field, call): call(x) hands the one entry x to the entry
    point, inside a vector, a JSON document or alone."""
    theta = nabla(2, 2, F7)
    return [  # the entry first in the vector
        (name, field, lambda x, ints=ints, call=call: call((x,) + ints[1:]))
        for name, field, ints, call in ENTRY_POINTS
    ] + [
        ("kernel_basis dict row", F7, lambda x: kernel_basis([{0: x}], 2, F7)),
        ("Subspace dict row", F7, lambda x: Subspace(F7, 2, [{1: x}])),
        ("Field.scalar Q", RATIONALS, RATIONALS.scalar),
        ("Field.scalar F7", F7, F7.scalar),
        ("Algebra.from_json c", F7, lambda x: Algebra.from_json(
            {"dim": 2, "field": "Fp:7", "products": [{"i": 1, "j": 1, "out": [{"k": 2, "c": x}]}]})),
        ("BilinearForm.from_json entries c", F7, lambda x: BilinearForm.from_json(
            {"n": 2, "field": "Fp:7", "entries": [{"i": 1, "j": 2, "c": x}]})),
        ("BilinearForm.from_json matrix", F7, lambda x: BilinearForm.from_json(
            {"dim": 2, "field": "Fp:7", "matrix": ["1", x, "0", 2]})),
        ("c * theta", F7, lambda x: x * theta),
    ]


SCALAR_ENTRY_POINTS = _scalar_entry_points()
MALFORMED = ["x", "1.5", 1.5, True, None]


@pytest.mark.parametrize("entry", MALFORMED, ids=repr)
@pytest.mark.parametrize("name, field, call", SCALAR_ENTRY_POINTS,
                         ids=[name for name, *_ in SCALAR_ENTRY_POINTS])
def test_an_entry_that_is_no_number_is_malformed_input(name, field, call, entry):
    with pytest.raises(MalformedInput) as info:
        call(entry)
    assert all(isinstance(info.value, kind) for kind in (CentextError, ValueError, TypeError))


@pytest.mark.parametrize("name, field, call", SCALAR_ENTRY_POINTS,
                         ids=[name for name, *_ in SCALAR_ENTRY_POINTS])
def test_a_vanishing_denominator_is_division_by_zero(name, field, call):
    with pytest.raises(DivisionByZero):
        call("1/0")
    if field.is_finite:
        with pytest.raises(DivisionByZero):
            call(Fraction(1, field.p))


def test_an_entry_is_read_as_its_raw_value():
    assert F7._raw(Fraction(3, 2)) == 5 and F7._raw(-1) == 6 and F7._raw("9") == 2
    assert RATIONALS._raw(Fraction(4, 2)) == 2 and type(RATIONALS._raw(Fraction(4, 2))) is int
    assert RATIONALS._raw("-1/2") == Fraction(-1, 2)
    assert F7._raw(F7.scalar(3)) == 3 and RATIONALS._raw(RATIONALS.scalar("6/3")) == 2
    with pytest.raises(FieldMismatch):
        F7._raw(F5.one)
    assert 3 * nabla(2, 2, F7) == "3" * nabla(2, 2, F7) == F7.scalar(3) * nabla(2, 2, F7)


def _variety_calls():
    """(name, call): call(variety) runs the function on mu0:3 over F_5
    (lc contains it) and returns something comparable."""
    f5 = F5
    a = null_filiform(3, f5)
    theta = nabla(3, 3, f5)

    def h2(v):
        h = second_cohomology(a, v)
        return h.variety, h.z_basis, h.b_basis, h.h_reps, h.h_labels

    return [
        ("satisfies_variety", lambda v: satisfies_variety(a, v)),
        ("cocycle_space", lambda v: cocycle_space(a, v)),
        ("check_cocycle", lambda v: check_cocycle(a, v, theta)),
        ("is_cocycle", lambda v: is_cocycle(a, v, delta(1, 2, 3, f5))),
        ("second_cohomology", h2),
        ("central_extension", lambda v: central_extension(a, [theta], v)),
        ("ClassAction", lambda v: ClassAction(3, v, f5).matrices),
        ("orbits_on_T1", lambda v: orbits_on_T1(3, v, f5).to_json(include_members=True)),
        ("closed_field_representatives", lambda v: closed_field_representatives(v, 3, f5)),
    ]


VARIETY_CALLS = _variety_calls()


@pytest.mark.parametrize("name, call", VARIETY_CALLS, ids=[name for name, _ in VARIETY_CALLS])
def test_a_variety_name_gives_what_its_spec_gives(name, call):
    spec = builtin_variety("left_commutative")
    want = call(spec)
    assert call("lc") == want
    assert call("left_commutative") == want


@pytest.mark.parametrize("variety", ["nope", 3], ids=repr)
@pytest.mark.parametrize("name, call", VARIETY_CALLS, ids=[name for name, _ in VARIETY_CALLS])
def test_no_variety_is_unknown_variety(name, call, variety):
    with pytest.raises(UnknownVariety):
        call(variety)


def test_builtin_variety_returns_a_spec_unchanged():
    spec = builtin_variety("bc")
    assert builtin_variety(spec) is spec
    assert central_extension(null_filiform(3, F5), [nabla(3, 3, F5)], "bc").variety is spec
