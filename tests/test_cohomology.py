import random
from fractions import Fraction

import pytest

from centext import (
    BilinearForm,
    CharTooSmall,
    CohomologySpace,
    DimMismatch,
    Field,
    InvariantError,
    NotACocycle,
    NotInVariety,
    RATIONALS,
    VARIETY_NAMES,
    annihilator_intersection,
    builtin_variety,
    check_cocycle,
    coboundary_space,
    cocycle_space,
    delta,
    is_cocycle,
    nabla,
    null_filiform,
    second_cohomology,
)
from centext.cohomology import _preferred_h_reps

from oracles import extension_table, frac_rref, is_left_commutative, modp_rref

LC = builtin_variety("left_commutative")
BC = builtin_variety("bicommutative")
ASSOC = builtin_variety("associative")


def vecs(forms):
    return [[x.value for x in f.as_vector()] for f in forms]


def test_associative_cocycles_are_the_antidiagonals():
    for n in range(2, 8):
        a = null_filiform(n, RATIONALS)
        z = cocycle_space(a, ASSOC)
        assert len(z) == n
        want = [nabla(j, n, RATIONALS) for j in range(1, n + 1)]
        assert list(z) == want  # canonical order: pivot at c_{1j}


def test_coboundaries_are_lower_antidiagonals():
    for n in range(2, 8):
        a = null_filiform(n, RATIONALS)
        b = coboundary_space(a)
        want = [nabla(j, n, RATIONALS) for j in range(1, n)]
        assert list(b) == want


def test_lc_cocycle_space_matches_stated_basis():
    for n in range(2, 8):
        f = RATIONALS
        a = null_filiform(n, f)
        z = cocycle_space(a, LC)
        assert len(z) == 2 * n - 1
        stated = [delta(1, 1, n, f)]
        stated += [nabla(j, n, f) - delta(j, 1, n, f) for j in range(2, n + 1)]
        stated += [delta(i, 1, n, f) for i in range(2, n + 1)]
        want, _ = frac_rref(vecs(stated))
        got = [[Fraction(str(v)) for v in row] for row in vecs(z)]
        assert got == want


def test_bc_cocycle_space_matches_stated_basis():
    for n in range(2, 8):
        f = RATIONALS
        a = null_filiform(n, f)
        z = cocycle_space(a, BC)
        assert len(z) == n + 1
        stated = [nabla(j, n, f) for j in range(1, n + 1)] + [delta(2, 1, n, f)]
        want, _ = frac_rref(vecs(stated))
        got = [[Fraction(str(v)) for v in row] for row in vecs(z)]
        assert got == want


def test_dimension_table():
    for n in range(2, 8):
        a = null_filiform(n, RATIONALS)
        for variety, dims in (
            (ASSOC, (n, n - 1, 1)),
            (LC, (2 * n - 1, n - 1, n)),
            (BC, (n + 1, n - 1, 2)),
        ):
            h = second_cohomology(a, variety)
            assert (h.dim_z, h.dim_b, h.dim_h) == dims


def test_triviality_and_reduction_equalities():
    for n in range(2, 8):
        a = null_filiform(n, RATIONALS)
        z_assoc = vecs(cocycle_space(a, ASSOC))
        for name in ("left_alternative", "alternative", "jordan"):
            assert vecs(cocycle_space(a, builtin_variety(name))) == z_assoc
        z_bc = vecs(cocycle_space(a, BC))
        for name in ("assosymmetric", "novikov"):
            assert vecs(cocycle_space(a, builtin_variety(name))) == z_bc
        z_lc = vecs(cocycle_space(a, LC))
        assert vecs(cocycle_space(a, builtin_variety("left_symmetric"))) == z_lc


def test_coboundaries_inside_every_cocycle_space():
    for n in range(2, 6):
        a = null_filiform(n, RATIONALS)
        b = vecs(coboundary_space(a))
        for name in VARIETY_NAMES:
            z = vecs(cocycle_space(a, builtin_variety(name)))
            stacked, _ = frac_rref(z + b)
            assert len(stacked) == len(z)  # adding B does not grow the span


def test_cocycles_extend_inside_variety_oracle():
    # dual route: theta is an LC cocycle iff the extension table satisfies
    # the identity, checked with the independent oracle
    for n in range(2, 5):
        f = RATIONALS
        a = null_filiform(n, f)
        base = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i + j <= n:
                    base[i - 1][j - 1][i + j - 1] = Fraction(1)
        for theta in cocycle_space(a, LC):
            mat = [[Fraction(str(theta.entry(i, j).value)) for j in range(1, n + 1)] for i in range(1, n + 1)]
            assert is_left_commutative(extension_table(base, [mat]))
        rng = random.Random(41)
        rejected = 0
        for _ in range(20):
            mat = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            form = BilinearForm(f, [[f.scalar(c) for c in row] for row in mat])
            accepted = is_cocycle(a, LC, form)
            assert accepted == is_left_commutative(extension_table(base, [mat]))
            rejected += not accepted
        assert rejected >= 5


def test_reduce_class_frozen_values():
    f = RATIONALS
    a = null_filiform(3, f)
    h = second_cohomology(a, LC)
    assert h.h_labels == ("nabla3", "delta2_1", "delta3_1")
    assert h.preferred_basis_used
    red = lambda form: tuple(x.value for x in h.reduce_class(form))
    assert red(delta(1, 2, 3, f)) == (0, -1, 0)
    assert red(nabla(1, 3, f)) == (0, 0, 0)
    assert red(nabla(2, 3, f)) == (0, 0, 0)
    assert red(nabla(3, 3, f)) == (1, 0, 0)
    assert red(delta(2, 1, 3, f)) == (0, 1, 0)
    assert red(delta(3, 1, 3, f)) == (0, 0, 1)
    assert red(delta(1, 1, 3, f)) == (0, 0, 0)  # a coboundary-equivalent cocycle


def test_reduce_class_is_linear():
    rng = random.Random(43)
    f = RATIONALS
    a = null_filiform(4, f)
    h = second_cohomology(a, LC)
    basis = cocycle_space(a, LC)
    for _ in range(10):
        c1 = f.scalar(rng.randint(-4, 4))
        c2 = f.scalar(rng.randint(-4, 4))
        t1 = basis[rng.randrange(len(basis))]
        t2 = basis[rng.randrange(len(basis))]
        lhs = h.reduce_class(c1 * t1 + c2 * t2)
        r1, r2 = h.reduce_class(t1), h.reduce_class(t2)
        want = tuple(c1 * x + c2 * y for x, y in zip(r1, r2))
        assert lhs == want


def test_reduce_class_rejects_non_cocycles():
    f = RATIONALS
    a = null_filiform(3, f)
    h = second_cohomology(a, LC)
    with pytest.raises(NotACocycle):
        h.reduce_class(delta(2, 2, 3, f))
    with pytest.raises(DimMismatch):
        h.reduce_class(delta(1, 1, 2, f))


def test_rep_from_coords_inverts_reduce():
    f = Field.prime(5)
    a = null_filiform(3, f)
    for variety in (LC, BC):
        h = second_cohomology(a, variety)
        for k in range(h.dim_h):
            coords = tuple(
                f.one if i == k else f.zero for i in range(h.dim_h)
            )
            theta = h.rep_from_coords(coords)
            assert h.reduce_class(theta) == coords


def test_annihilator_intersection_frozen():
    f = RATIONALS
    a = null_filiform(3, f)
    both = annihilator_intersection(a, [delta(2, 1, 3, f)])
    assert both.dim == 1 and both.contains(a.basis_vector(3))
    assert annihilator_intersection(a, [nabla(3, 3, f)]).dim == 0
    # two cocycles jointly covering the annihilator
    assert annihilator_intersection(a, [delta(2, 1, 3, f), nabla(3, 3, f)]).dim == 0
    assert annihilator_intersection(a, []).dim == 1  # just Ann(A)


def test_check_cocycle_reports_witness():
    f = RATIONALS
    a = null_filiform(3, f)
    with pytest.raises(NotACocycle) as err:
        check_cocycle(a, LC, delta(2, 2, 3, f))
    msg = str(err.value)
    assert "x=e_" in msg and "y=e_" in msg
    assert is_cocycle(a, LC, nabla(3, 3, f))
    assert not is_cocycle(a, LC, delta(2, 2, 3, f))


def test_generic_h_reps_for_associative():
    a = null_filiform(4, RATIONALS)
    h = second_cohomology(a, ASSOC)
    assert h.dim_h == 1
    assert not h.preferred_basis_used
    assert h.h_labels == ("z4",)
    assert h.h_reps[0] == nabla(4, 4, RATIONALS)
    assert tuple(x.value for x in h.reduce_class(nabla(4, 4, RATIONALS))) == (1,)


def test_finite_field_cohomology():
    for p in (2, 3, 5):
        f = Field.prime(p)
        for n in (2, 3, 4):
            a = null_filiform(n, f)
            h_lc = second_cohomology(a, LC)
            assert (h_lc.dim_z, h_lc.dim_h) == (2 * n - 1, n)
            assert h_lc.preferred_basis_used
            h_bc = second_cohomology(a, BC)
            assert (h_bc.dim_z, h_bc.dim_h) == (n + 1, 2)


def test_cocycle_space_requires_membership():
    f = RATIONALS
    o, z = f.one, f.zero
    from centext import Algebra

    not_lc = Algebra(f, [[[o, z], [z, o]], [[z, z], [z, z]]]).opposite()
    with pytest.raises(NotInVariety):
        cocycle_space(not_lc, LC)


def test_representative_in_the_coboundaries_is_an_invariant_error():
    h = second_cohomology(null_filiform(3, RATIONALS), LC)
    with pytest.raises(InvariantError, match="not independent"):
        CohomologySpace(
            h.algebra, h.variety, h.z_basis, h.b_basis, (h.b_basis[0],), ("b",), False
        )


def test_a_rejected_cocycle_that_no_equation_refutes_is_an_invariant_error(monkeypatch):
    # the reduction map decides; a form it rejects but that satisfies every
    # cocycle equation means the map and the equations disagree
    h = second_cohomology(null_filiform(4, RATIONALS), LC)
    theta = h.z_basis[-1]
    h.reduce_class(theta)

    def reject(self, entries):
        raise NotACocycle("form lies outside the cocycle space")

    monkeypatch.setattr(CohomologySpace, "_reduce_raw", reject)
    with pytest.raises(InvariantError, match="satisfies every cocycle equation"):
        h.reduce_class(theta)


def test_coboundary_outside_the_cocycles_is_an_invariant_error(monkeypatch):
    import centext.cohomology as cohomology_mod

    monkeypatch.setattr(cohomology_mod, "cocycle_space", lambda a, variety: [])
    with pytest.raises(InvariantError, match="coboundary outside the cocycle space"):
        second_cohomology(null_filiform(3, RATIONALS), LC)


@pytest.mark.parametrize("field", [RATIONALS, Field.prime(5)])
def test_representatives_are_the_greedy_prefix_rank_pick(field):
    """The preferred forms are used exactly when they and the coboundaries
    have rank dim Z; otherwise the representatives are the cocycle basis
    vectors that raise the rank of the coboundaries and the vectors before
    them, labelled by their place.  Ranks are from the dense oracles."""
    p = field.p
    if p:
        rank = lambda rows: len(modp_rref(rows, p)[0])
    else:
        rank = lambda rows: len(frac_rref(rows)[0])
    for name in VARIETY_NAMES:
        variety = builtin_variety(name)
        for n in range(1, 6):
            try:
                h = second_cohomology(null_filiform(n, field), variety)
            except (CharTooSmall, NotInVariety):
                continue
            b, z = vecs(h.b_basis), vecs(h.z_basis)
            if h.preferred_basis_used:
                assert len(b) + h.dim_h == h.dim_z == rank(b + vecs(h.h_reps))
                continue
            picked = [k for k in range(len(z)) if rank(b + z[: k + 1]) > rank(b + z[:k])]
            assert h.h_labels == tuple(f"z{k + 1}" for k in picked), (name, n)
            assert h.h_reps == tuple(h.z_basis[k] for k in picked)


def test_preferred_forms_that_are_not_a_complement_fall_back_to_the_greedy_pick(monkeypatch):
    """Preferred forms of the right count are refused when they are
    dependent on the coboundaries or outside the cocycle space; the
    representatives are then the greedy pick, as for a variety with no
    preferred forms."""
    import centext.cohomology as cohomology_mod

    f = RATIONALS
    a = null_filiform(4, f)
    assert second_cohomology(a, BC).preferred_basis_used
    monkeypatch.setattr(cohomology_mod, "_preferred_h_reps", lambda a, variety: None)
    want = second_cohomology(a, BC)
    assert not want.preferred_basis_used
    for forms in (
        [nabla(4, 4, f), nabla(1, 4, f)],  # nabla_1 is a coboundary
        [nabla(4, 4, f), delta(2, 2, 4, f)],  # delta_2_2 is no bc cocycle
    ):
        monkeypatch.setattr(
            cohomology_mod, "_preferred_h_reps", lambda a, variety, forms=forms: (forms, ["x", "y"])
        )
        h = second_cohomology(a, BC)
        assert not h.preferred_basis_used
        assert (h.h_reps, h.h_labels) == (want.h_reps, want.h_labels)


@pytest.mark.parametrize("field", [RATIONALS, Field.prime(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("name", ["left_commutative", "jordan"])
def test_second_cohomology_leaves_its_inputs_intact(name, field):
    """The row reductions consume their rows, so the solve must hand them
    copies of the stored equations and of the forms' raw views."""
    a, v = null_filiform(5, field), builtin_variety(name)
    h = second_cohomology(a, v)
    assert list(h.b_basis) == coboundary_space(a)
    assert list(h.z_basis) == cocycle_space(a, v)
    if h.preferred_basis_used:
        assert h.h_reps == _preferred_h_reps(a, v)[0]


def test_forms_of_another_size_are_refused():
    a, lc = null_filiform(3, RATIONALS), builtin_variety("left_commutative")
    for theta in (nabla(2, 2, RATIONALS), nabla(4, 4, RATIONALS), nabla(3, 3, Field.prime(5))):
        with pytest.raises(DimMismatch, match="form does not match the algebra"):
            check_cocycle(a, lc, theta)
        with pytest.raises(DimMismatch, match="form does not match the algebra"):
            annihilator_intersection(a, [theta])
