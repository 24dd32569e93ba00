"""The automorphism action on H^2 class coordinates against independent
references in oracles.py: the distinct class-action matrices of
ClassAction against an enumeration with its own matrices, M^T C M and
solve, and CohomologySpace.reduce_class against a Fraction / int solve
(fixed seeds)."""

import random

import pytest

from centext import (
    RATIONALS,
    BilinearForm,
    ClassAction,
    Field,
    NotACocycle,
    builtin_variety,
    null_filiform,
    second_cohomology,
)

from oracles import class_action_oracle, span_coordinates


def _ints(form):
    return [[x.value for x in row] for row in form.rows]


def _mat_mul(a, b, p):
    return tuple(
        tuple(sum(x * b[k][j] for k, x in enumerate(row)) % p for j in range(len(b[0])))
        for row in a
    )


@pytest.mark.parametrize(
    "n,p,variety", [(3, 5, "lc"), (4, 3, "bc"), (3, 3, "associative"), (3, 5, "novikov")]
)
def test_class_action_matrices_match_oracle(n, p, variety):
    action = ClassAction(n, variety, Field.prime(p))
    mats = action.matrices
    want = class_action_oracle(n, p, [_ints(rep) for rep in action.h.h_reps])
    assert len(set(mats)) == len(mats)  # distinct, each once
    assert set(mats) == want
    d = action.dim_h
    identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    assert identity in want
    for a in mats:
        for b in mats:
            assert _mat_mul(a, b, p) in want


FIELDS = {"Q": RATIONALS, "F5": Field.prime(5)}


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("variety", ["lc", "bc", "novikov", "jordan", "associative"])
def test_reduce_class_matches_oracle(field_name, variety):
    field = FIELDS[field_name]
    p = field.p
    rng = random.Random(f"{field_name}-{variety}")
    for n in (2, 3, 4):
        h = second_cohomology(null_filiform(n, field), builtin_variety(variety))
        columns = [[x.value for x in f.as_vector()] for f in h.b_basis + h.h_reps]
        for _ in range(8):
            theta = BilinearForm.zero(field, n)
            for z in h.z_basis:
                theta = theta + rng.randint(-3, 3) * z
            want = span_coordinates(columns, [x.value for x in theta.as_vector()], p)
            got = [c.value for c in h.reduce_class(theta)]
            assert got == want[h.dim_b :]
        outside = 0
        for _ in range(8):
            theta = BilinearForm(
                field, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            )
            want = span_coordinates(columns, [x.value for x in theta.as_vector()], p)
            if want is None:
                outside += 1
                with pytest.raises(NotACocycle):
                    h.reduce_class(theta)
            else:
                assert [c.value for c in h.reduce_class(theta)] == want[h.dim_b :]
        assert outside  # random forms are rarely cocycles
