"""How second_cohomology chooses its representatives: the tabulated forms
only when they complete the coboundaries to a basis of the cocycle space,
the z<k> picks otherwise, and an InvariantError when a coboundary lies
outside the cocycle space."""

import itertools

import pytest

from centext import (
    Field,
    InvariantError,
    RATIONALS,
    builtin_variety,
    delta,
    is_cocycle,
    null_filiform,
)
from centext import cohomology

LC = builtin_variety("left_commutative")
BC = builtin_variety("bicommutative")
ASSOC = builtin_variety("associative")


def _non_cocycle(a, variety):
    """The first elementary form delta(i, j) that is no cocycle."""
    n, field = a.dim, a.field
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        form = delta(i, j, n, field)
        if not is_cocycle(a, variety, form):
            return form
    raise AssertionError("every elementary form is a cocycle")


def _fallback(a, variety, monkeypatch):
    """H^2 with no tabulated forms offered."""
    with monkeypatch.context() as m:
        m.setattr(cohomology, "_preferred_h_reps", lambda a, v: None)
        return cohomology.second_cohomology(a, variety)


@pytest.mark.parametrize("field", [RATIONALS, Field.prime(5)])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_preferred_set_one_form_short_of_a_basis_is_refused(monkeypatch, field, n):
    a = null_filiform(n, field)
    full = cohomology.second_cohomology(a, LC)
    assert full.preferred_basis_used
    forms, labels = cohomology._preferred_h_reps(a, LC)
    short = forms[:-1]
    # the short set lies in Z and is independent modulo B: its classes
    # are distinct unit vectors of the full space
    for k, form in enumerate(short):
        assert is_cocycle(a, LC, form)
        assert full.reduce_class(form) == tuple(field.scalar(int(r == k)) for r in range(full.dim_h))
    monkeypatch.setattr(cohomology, "_preferred_h_reps", lambda a, v: (short, labels[:-1]))
    h = cohomology.second_cohomology(a, LC)
    assert not h.preferred_basis_used
    assert h.dim_h == full.dim_h
    assert all(label.startswith("z") for label in h.h_labels)
    expected = _fallback(a, LC, monkeypatch)
    assert (h.h_labels, h.h_reps) == (expected.h_labels, expected.h_reps)


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("field", [RATIONALS, Field.prime(3)])
def test_a_preferred_set_with_a_form_outside_z_is_refused(monkeypatch, field, swap):
    # a form outside Z added to the set, or put in place of its last
    # form: the set stays independent modulo B but leaves Z
    a = null_filiform(4, field)
    forms, labels = cohomology._preferred_h_reps(a, LC)
    extra = _non_cocycle(a, LC)
    forms, labels = (forms[:-1], labels[:-1]) if swap else (forms, labels)
    monkeypatch.setattr(cohomology, "_preferred_h_reps",
                        lambda a, v: (forms + (extra,), labels + ("extra",)))
    h = cohomology.second_cohomology(a, LC)
    assert not h.preferred_basis_used
    expected = _fallback(a, LC, monkeypatch)
    assert (h.h_labels, h.h_reps) == (expected.h_labels, expected.h_reps)


@pytest.mark.parametrize("variety", [LC, BC, ASSOC])
@pytest.mark.parametrize("field", [RATIONALS, Field.prime(5)])
def test_a_coboundary_row_outside_z_raises(monkeypatch, variety, field):
    a = null_filiform(4, field)
    bad = _non_cocycle(a, variety)
    rows = cohomology._coboundary_rows
    monkeypatch.setattr(cohomology, "_coboundary_rows", lambda a: rows(a) + [dict(bad._sparse)])
    with pytest.raises(InvariantError, match="^coboundary outside the cocycle space$"):
        cohomology.second_cohomology(a, variety)
