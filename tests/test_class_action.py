"""The automorphism action on H^2 class coordinates against independent
references in oracles.py: the distinct class-action matrices of
ClassAction against an enumeration with its own matrices, M^T C M and
solve, and CohomologySpace.reduce_class against a Fraction / int solve
(fixed seeds)."""

import random
from fractions import Fraction

import pytest

from centext import (
    RATIONALS,
    Algebra,
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
    return [[form.entry(i, j).value for j in range(1, form.n + 1)] for i in range(1, form.n + 1)]


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


@pytest.mark.parametrize("n,p,variety", [(4, 5, "lc"), (5, 3, "bc"), (4, 7, "lc")])
def test_class_action_matrices_match_oracle_on_benchmark_shapes(n, p, variety):
    action = ClassAction(n, variety, Field.prime(p))
    mats = action.matrices
    assert len(set(mats)) == len(mats)
    assert set(mats) == class_action_oracle(n, p, [_ints(rep) for rep in action.h.h_reps])


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


def _rescaled_mu0_4(field):
    """mu0:4 in the basis lambda_i e_i, lambda = (1, 2, 3, 5):
    e_i e_j = (lambda_i lambda_j / lambda_(i+j)) e_(i+j)."""
    lam = (1, 2, 3, 5)
    table = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        for j in range(3 - i):
            table[i][j][i + j + 1] = Fraction(lam[i] * lam[j], lam[i + j + 1])
    return Algebra(field, table)


@pytest.mark.parametrize("field_name", ["Q", "F7"])
@pytest.mark.parametrize("variety", ["lc", "bc", "jordan"])
def test_reduce_class_matches_oracle_on_a_rescaled_basis(field_name, variety):
    field = RATIONALS if field_name == "Q" else Field.prime(7)
    p = field.p
    h = second_cohomology(_rescaled_mu0_4(field), builtin_variety(variety))
    if not p:  # the reduction map has proper fractions such as -4/3
        assert any(
            isinstance(x.raw, Fraction) and x.raw.denominator > 1
            for row in h._transform
            for x in row
        )
    columns = [[x.value for x in f.as_vector()] for f in h.b_basis + h.h_reps]
    rng = random.Random(f"rescaled-{field_name}-{variety}")
    for _ in range(12):
        theta = BilinearForm.zero(field, 4)
        for z in h.z_basis:
            theta = theta + Fraction(rng.randint(-6, 6), rng.randint(1, 4)) * z
        want = span_coordinates(columns, [x.value for x in theta.as_vector()], p)
        assert [c.value for c in h.reduce_class(theta)] == want[h.dim_b :]
    outside = 0
    for _ in range(12):
        theta = BilinearForm(field, [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
        if span_coordinates(columns, [x.value for x in theta.as_vector()], p) is None:
            outside += 1
            with pytest.raises(NotACocycle):
                h.reduce_class(theta)
    assert outside
