import random
from fractions import Fraction

import pytest

from centext import (
    BilinearForm,
    Field,
    FieldMismatch,
    IndexOutOfRange,
    InvalidDim,
    RATIONALS,
    act_on_cocycle,
    automorphism_from_column,
    coboundary_space,
    delta,
    nabla,
    null_filiform,
)
from centext.cli import parse_cocycle_expr


def test_delta_entries_exhaustive():
    f = RATIONALS
    for n in range(1, 6):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                form = delta(i, j, n, f)
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        want = f.one if (a, b) == (i, j) else f.zero
                        assert form.entry(a, b) == want


def test_nabla_is_antidiagonal_sum():
    f = RATIONALS
    for n in range(1, 7):
        for j in range(1, n + 1):
            expected = BilinearForm.zero(f, n)
            for k in range(1, j + 1):
                expected = expected + delta(k, j + 1 - k, n, f)
            assert nabla(j, n, f) == expected


def test_index_bounds():
    f = RATIONALS
    for bad in ((0, 1), (1, 0), (4, 1), (1, 4)):
        with pytest.raises(IndexOutOfRange):
            delta(bad[0], bad[1], 3, f)
    with pytest.raises(IndexOutOfRange):
        nabla(0, 3, f)
    with pytest.raises(IndexOutOfRange):
        nabla(4, 3, f)


def test_vector_order_is_row_major():
    f = RATIONALS
    vec = delta(1, 2, 3, f).as_vector()
    assert [x.value for x in vec] == [0, 1, 0, 0, 0, 0, 0, 0, 0]
    vec = delta(2, 1, 3, f).as_vector()
    assert [x.value for x in vec] == [0, 0, 0, 1, 0, 0, 0, 0, 0]
    round_trip = BilinearForm.from_vector(f, 3, vec)
    assert round_trip == delta(2, 1, 3, f)


def test_evaluate_matches_direct_sum():
    rng = random.Random(23)
    f = RATIONALS
    n = 4
    for _ in range(20):
        entries = [
            [Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)
        ]
        form = BilinearForm(f, [[f.scalar(c) for c in row] for row in entries])
        x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        y = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        want = sum(x[i] * entries[i][j] * y[j] for i in range(n) for j in range(n))
        got = form.evaluate([f.scalar(c) for c in x], [f.scalar(c) for c in y])
        assert got.value == want


def test_linear_operations():
    f = Field.prime(7)
    a = nabla(3, 3, f)
    b = delta(2, 1, 3, f)
    c = f.scalar(4)
    combo = a + c * b - b
    assert combo.entry(2, 1) == c - f.one  # nabla3 has no (2,1) entry
    assert combo.entry(3, 1) == f.one
    assert combo.entry(2, 2) == f.one
    assert combo.entry(1, 3) == f.one
    assert (-a) + a == BilinearForm.zero(f, 3)


def test_json_round_trip():
    for field in (RATIONALS, Field.prime(5)):
        form = nabla(2, 3, field) + field.scalar(2) * delta(3, 3, 3, field)
        data = form.to_json()
        assert data["dim"] == 3 and data["field"] == field.spec()
        back = BilinearForm.from_json(data)
        assert back == form


def test_equality_is_field_aware():
    a = delta(1, 1, 2, RATIONALS)
    b = delta(1, 1, 2, Field.prime(5))
    assert a != b
    with pytest.raises(FieldMismatch):
        a + b


def test_repr_names_nonzero_entries():
    form = delta(2, 3, 3, RATIONALS)
    assert "2" in repr(form) and "3" in repr(form)
    assert repr(BilinearForm.zero(RATIONALS, 2))


def _built_every_way(f):
    """Forms over f from each public way of building one, and a few that
    the package builds from raw values."""
    half = f.scalar("1/2")
    rows = [[1, 0, "-1/2"], [0, 0, 0], [3, 5, 0]]
    form = BilinearForm(f, rows)
    yield "constructor", form
    yield "from_vector", BilinearForm.from_vector(f, 3, [f.scalar(x) for r in rows for x in r])
    yield "zero", BilinearForm.zero(f, 3)
    yield "delta", delta(3, 2, 4, f)
    yield "nabla", nabla(4, 4, f)
    yield "+", nabla(3, 3, f) + half * delta(3, 1, 3, f)
    yield "cancelling +", form + (-1) * form
    yield "-", form - nabla(3, 3, f)
    yield "scalar *", half * form
    yield "* 0", 0 * form
    yield "* p", 5 * form
    yield "from_json matrix", BilinearForm.from_json(form.to_json())
    entries = [{"i": 3, "j": 1, "c": "7"}, {"i": 2, "j": 2, "c": "-1/2"}, {"i": 1, "j": 1, "c": 0}]
    yield "from_json entries", BilinearForm.from_json({"n": 3, "field": f.spec(), "entries": entries})
    yield "parse_cocycle_expr", parse_cocycle_expr("nabla_n - 2*delta_2_1 + 1/2*delta_1_1", 3, f)
    yield "act_on_cocycle", act_on_cocycle(automorphism_from_column(3, f, [2, "1/2", 1]), form)
    yield "coboundary_space", coboundary_space(null_filiform(3, f))[-1]
    yield "_from_sparse", BilinearForm._from_sparse(f, 2, {3: 7, 0: half.raw * 4, 1: 0})


@pytest.mark.parametrize("field", [RATIONALS, Field.prime(5)], ids=["Q", "F5"])
def test_the_raw_view_holds_the_nonzero_entries_in_row_major_order(field):
    for how, form in _built_every_way(field):
        want = [(k, x.raw) for k, x in enumerate(form.as_vector()) if not x.is_zero]
        got = list(form._sparse.items())
        assert got == want, how
        # the values are Scalar.raw's: residues over F_p, ints when integral over Q
        assert [type(v) for _, v in got] == [type(v) for _, v in want], how


def test_a_matrix_document_of_dimension_below_1_is_refused():
    for data in ({"dim": 0, "field": "Q", "matrix": []}, {"dim": -1, "field": "Q", "matrix": ["5"]}):
        with pytest.raises(InvalidDim, match=f"^dimension {data['dim']} must be >= 1$"):
            BilinearForm.from_json(data)


@pytest.mark.parametrize(
    "build, n",
    [
        (lambda: BilinearForm(RATIONALS, []), 0),
        (lambda: BilinearForm.zero(RATIONALS, -1), -1),
        (lambda: BilinearForm.zero(Field.prime(5), 0), 0),
        (lambda: BilinearForm.from_vector(RATIONALS, 0, []), 0),
        # n*n matches the length, so only a dimension check made first names -1
        (lambda: BilinearForm.from_vector(RATIONALS, -1, [5]), -1),
    ],
    ids=["constructor", "zero(-1)", "zero(0)", "from_vector", "from_vector(-1)"],
)
def test_a_form_of_dimension_below_1_is_refused(build, n):
    with pytest.raises(InvalidDim, match=f"^dimension {n} must be >= 1$"):
        build()


def test_entry_refuses_an_index_outside_1_to_n():
    form = delta(3, 1, 3, RATIONALS)
    assert form.entry(3, 1) == 1 and form.entry(1, 3) == 0
    # index 0 once wrapped round to row 3 and read the 1 there
    for i, j in ((0, 1), (1, 0), (4, 1), (1, 4), (-1, 1), (1, -3)):
        with pytest.raises(IndexOutOfRange):
            form.entry(i, j)


@pytest.mark.parametrize("field", [RATIONALS, Field.prime(5)], ids=["Q", "F5"])
def test_equal_forms_are_equal_and_hash_alike_however_built(field):
    rows = [[1, 0, "-1/2"], [0, 0, 0], [3, 5, 0]]
    vec = [field.scalar(x) for r in rows for x in r]
    form = BilinearForm(field, rows)
    others = [
        BilinearForm.from_vector(field, 3, vec),
        BilinearForm._from_sparse(field, 3, {k: x.raw for k, x in enumerate(vec)}),
    ]
    for other in others:
        assert other == form and hash(other) == hash(form)
    assert len({form, *others}) == 1


def test_forms_of_different_size_or_field_are_unequal():
    assert BilinearForm.zero(RATIONALS, 2) != BilinearForm.zero(RATIONALS, 3)
    rows = [[1, 2], [0, 3]]
    assert BilinearForm(RATIONALS, rows) != BilinearForm(Field.prime(5), rows)
    assert delta(1, 1, 2, RATIONALS) != delta(1, 1, 2, Field.prime(5))


def test_a_form_built_from_fraction_4_over_2_is_the_form_built_from_2():
    for field in (RATIONALS, Field.prime(5)):
        two = BilinearForm(field, [[2, 0], [0, 0]])
        same = BilinearForm(field, [[Fraction(4, 2), 0], [0, 0]])
        assert same == two and hash(same) == hash(two)
    raw = BilinearForm._from_sparse(RATIONALS, 2, {0: Fraction(4, 2)})
    assert raw == BilinearForm(RATIONALS, [[2, 0], [0, 0]])
    assert type(raw._sparse[0]) is int
