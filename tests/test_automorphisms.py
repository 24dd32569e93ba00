import random
from fractions import Fraction

import pytest

from centext import (
    Automorphism,
    Field,
    NotInvertible,
    RATIONALS,
    act_on_cocycle,
    automorphism_from_column,
    builtin_variety,
    class_action_matrix,
    delta,
    nabla,
    null_filiform,
    second_cohomology,
)
from centext.errors import DimMismatch

from oracles import is_automorphism, null_filiform_automorphisms

LC = builtin_variety("left_commutative")


def rand_col(rng, n, field):
    head = field.scalar(Fraction(rng.randint(1, 6), rng.randint(1, 4)))
    if rng.random() < 0.5:
        head = -head
    tail = [
        field.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        for _ in range(n - 1)
    ]
    return [head] + tail


def test_frozen_matrix_for_column_1_1_0():
    f = RATIONALS
    phi = automorphism_from_column(3, f, [f.one, f.one, f.zero])
    got = [[x.value for x in row] for row in phi.matrix]
    assert got == [[1, 0, 0], [1, 1, 0], [0, 2, 1]]
    assert phi.phi11 == f.one


def test_random_columns_give_automorphisms():
    rng = random.Random(47)
    for _ in range(100):
        n = rng.randint(2, 5)
        a = null_filiform(n, RATIONALS)
        phi = Automorphism(RATIONALS, rand_col(rng, n, RATIONALS))
        m = phi.matrix
        # defining property, checked directly
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                lhs = phi.apply(a.multiply(a.basis_vector(i), a.basis_vector(j)))
                rhs = a.multiply(phi.apply(a.basis_vector(i)), phi.apply(a.basis_vector(j)))
                assert list(lhs) == list(rhs)
        table = [[[x.value for x in cell] for cell in row] for row in a.table]
        assert is_automorphism(table, [[x.value for x in row] for row in m])


def test_diagonal_entries_are_powers():
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(2, 5)
        col = rand_col(rng, n, RATIONALS)
        phi = Automorphism(RATIONALS, col)
        for i in range(n):
            assert phi.matrix[i][i] == col[0] ** (i + 1)
        # strictly upper entries vanish
        for i in range(n):
            for j in range(i + 1, n):
                assert phi.matrix[i][j].is_zero


def test_zero_leading_entry_rejected():
    f = RATIONALS
    with pytest.raises(NotInvertible):
        Automorphism(f, [f.zero, f.one, f.one])
    with pytest.raises(DimMismatch):
        automorphism_from_column(3, f, [f.one, f.one])


def test_non_triangular_map_is_not_an_automorphism():
    # the oracle, which the automorphism tests rely on, can say no
    table = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]  # mu0:2
    assert is_automorphism(table, [[1, 0], [0, 1]])
    assert not is_automorphism(table, [[0, 1], [1, 0]])  # swap
    assert not is_automorphism(table, [[0, 0], [0, 0]])  # singular


def test_group_closure_over_f3():
    from centext import automorphism_count

    f = Field.prime(3)
    group = null_filiform_automorphisms(3, 3)
    autos = [Automorphism(f, [row[0] for row in m]) for m in group]
    assert [[[x.value for x in row] for row in a.matrix] for a in autos] == group
    assert len(autos) == automorphism_count(3, f) == 2 * 9
    assert len({a.matrix for a in autos}) == len(autos)
    matrices = {a.matrix for a in autos}
    for a in autos:
        for b in autos:
            assert Automorphism(f, a.apply(b.first_col)).matrix in matrices


def test_compose_acts_contravariantly_on_cocycles():
    rng = random.Random(59)
    f = RATIONALS
    n = 4
    for _ in range(10):
        phi = Automorphism(f, rand_col(rng, n, f))
        psi = Automorphism(f, rand_col(rng, n, f))
        theta = nabla(n, n, f) + f.scalar(rng.randint(-3, 3)) * delta(2, 1, n, f)
        lhs = act_on_cocycle(Automorphism(f, phi.apply(psi.first_col)), theta)
        rhs = act_on_cocycle(psi, act_on_cocycle(phi, theta))
        assert lhs == rhs


def test_action_preserves_evaluation():
    rng = random.Random(61)
    f = Field.prime(7)
    n = 3
    for _ in range(20):
        col = [f.scalar(rng.randint(1, 6))] + [
            f.scalar(rng.randint(0, 6)) for _ in range(n - 1)
        ]
        phi = Automorphism(f, col)
        theta = delta(rng.randint(1, n), rng.randint(1, n), n, f)
        moved = act_on_cocycle(phi, theta)
        x = [f.scalar(rng.randint(0, 6)) for _ in range(n)]
        y = [f.scalar(rng.randint(0, 6)) for _ in range(n)]
        assert moved.evaluate(x, y) == theta.evaluate(phi.apply(x), phi.apply(y))


def test_nabla_class_scales_by_power():
    rng = random.Random(67)
    for n in range(2, 6):
        f = RATIONALS
        a = null_filiform(n, f)
        h = second_cohomology(a, LC)
        base = h.reduce_class(nabla(n, n, f))
        for _ in range(10):
            phi = Automorphism(f, rand_col(rng, n, f))
            moved = h.reduce_class(act_on_cocycle(phi, nabla(n, n, f)))
            factor = phi.phi11 ** (n + 1)
            assert moved == tuple(factor * c for c in base)


def test_delta_class_action_on_diagonal_maps():
    f = RATIONALS
    n = 4
    a = null_filiform(n, f)
    h = second_cohomology(a, LC)
    lam = f.scalar(3)
    phi = Automorphism(f, [lam] + [f.zero] * (n - 1))
    for i in range(2, n + 1):
        before = h.reduce_class(delta(i, 1, n, f))
        after = h.reduce_class(act_on_cocycle(phi, delta(i, 1, n, f)))
        factor = lam ** (i + 1)
        assert after == tuple(factor * c for c in before)


def test_class_action_matrix_columns():
    rng = random.Random(71)
    f = Field.prime(5)
    a = null_filiform(3, f)
    h = second_cohomology(a, LC)
    for _ in range(10):
        col = [f.scalar(rng.randint(1, 4))] + [
            f.scalar(rng.randint(0, 4)) for _ in range(2)
        ]
        phi = Automorphism(f, col)
        mat = class_action_matrix(h, phi)
        for k, rep in enumerate(h.h_reps):
            want = h.reduce_class(act_on_cocycle(phi, rep))
            got = tuple(mat[r][k] for r in range(h.dim_h))
            assert got == want
        coords = tuple(f.scalar(rng.randint(0, 4)) for _ in range(h.dim_h))
        image = h.reduce_class(act_on_cocycle(phi, h.rep_from_coords(coords)))
        assert image == tuple(sum((x * c for x, c in zip(row, coords)), f.zero) for row in mat)


def test_maps_of_another_algebra_are_refused():
    f7, f5 = Field.prime(7), Field.prime(5)
    phi = Automorphism(f7, (1, 2, 0))
    for theta in (nabla(2, 2, f7), nabla(3, 3, f5)):
        with pytest.raises(DimMismatch, match="form and automorphism sizes differ"):
            act_on_cocycle(phi, theta)
    h = second_cohomology(null_filiform(4, f7), LC)
    for psi in (phi, Automorphism(f5, (1, 2, 0, 0))):
        with pytest.raises(DimMismatch, match="automorphism does not match the cohomology space"):
            class_action_matrix(h, psi)
