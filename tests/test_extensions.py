import itertools
import random

import pytest

from centext import (
    Algebra,
    BilinearForm,
    ClassAction,
    CohomologyMismatch,
    CohomologySpace,
    DimMismatch,
    Field,
    NotACocycle,
    RATIONALS,
    VARIETY_NAMES,
    build_extension,
    builtin_variety,
    central_extension,
    check_cocycle,
    delta,
    is_standard_null_filiform,
    nabla,
    null_filiform,
    satisfies_variety,
    second_cohomology,
)

from oracles import frac_rref, modp_rref

LC = builtin_variety("left_commutative")
BC = builtin_variety("bicommutative")
ASSOC = builtin_variety("associative")


def test_full_antidiagonal_gives_next_null_filiform():
    for n in range(2, 8):
        f = RATIONALS
        a = null_filiform(n, f)
        result = central_extension(a, [nabla(n, n, f)], ASSOC)
        assert result.extended == null_filiform(n + 1, f)
        assert is_standard_null_filiform(result.extended)
        assert result.non_split
        assert result.annihilator_dim == 1
        assert result.class_coords == ((f.one,),)


def test_frozen_products_for_nabla_plus_delta():
    f = RATIONALS
    a = null_filiform(3, f)
    theta = nabla(3, 3, f) + delta(2, 1, 3, f)
    ext = central_extension(a, [theta], LC).extended
    e = ext.basis_vector
    mul = ext.multiply
    assert list(mul(e(1), e(3))) == list(e(4))
    assert list(mul(e(2), e(2))) == list(e(4))
    assert list(mul(e(3), e(1))) == list(e(4))
    got = mul(e(2), e(1))
    want = [f.zero, f.zero, f.one, f.one]  # e3 + e4
    assert list(got) == want
    # the appended direction annihilates
    for i in range(1, 5):
        assert all(x.is_zero for x in mul(e(4), e(i)))
        assert all(x.is_zero for x in mul(e(i), e(4)))


def test_extension_by_coboundary_splits():
    f = RATIONALS
    a = null_filiform(4, f)
    result = central_extension(a, [nabla(2, 4, f)], ASSOC)
    assert not result.non_split
    assert result.extended.dim == 5
    # still an algebra in the variety, just split
    assert satisfies_variety(result.extended, ASSOC)


def test_two_cocycle_extension():
    f = RATIONALS
    a = null_filiform(3, f)
    thetas = [nabla(3, 3, f), delta(2, 1, 3, f)]
    result = central_extension(a, thetas, LC)
    assert result.extended.dim == 5
    assert result.non_split
    assert result.class_coords == (
        (f.one, f.zero, f.zero),
        (f.zero, f.one, f.zero),
    )
    assert satisfies_variety(result.extended, LC)
    # annihilator of the base intersects both cocycle annihilators trivially
    assert result.annihilator_dim == 2
    # a dependent pair is split even though each class is nonzero
    dependent = [nabla(3, 3, f), nabla(3, 3, f) + nabla(2, 3, f)]
    dep = central_extension(a, dependent, LC)
    assert not dep.non_split


def test_non_split_matches_rank_criterion():
    f = Field.prime(5)
    a = null_filiform(3, f)
    h = second_cohomology(a, LC)
    assert central_extension(a, [nabla(3, 3, f)], LC, h).non_split
    assert not central_extension(a, [nabla(2, 3, f)], LC, h).non_split
    assert central_extension(a, [delta(2, 1, 3, f), delta(3, 1, 3, f)], LC, h).non_split
    assert not central_extension(
        a, [delta(2, 1, 3, f), f.scalar(2) * delta(2, 1, 3, f)], LC, h
    ).non_split


def test_non_cocycle_rejected():
    f = RATIONALS
    a = null_filiform(3, f)
    with pytest.raises(NotACocycle):
        central_extension(a, [delta(2, 2, 3, f)], LC)
    # but the raw builder happily constructs the (non-LC) algebra
    raw = build_extension(a, [delta(2, 2, 3, f)])
    assert raw.dim == 4
    assert not satisfies_variety(raw, LC)


def test_central_extension_reduces_each_form_once(monkeypatch):
    # one reduction by H^2 is both a form's cocycle check and its class
    f = RATIONALS
    a = null_filiform(4, f)
    h = second_cohomology(a, LC)
    thetas = [nabla(4, 4, f), delta(2, 1, 4, f), delta(3, 1, 4, f) + h.b_basis[0]]
    seen, reduce_raw = [], CohomologySpace._reduce_raw

    def recorded(self, entries):
        seen.append(dict(entries))
        return reduce_raw(self, entries)

    monkeypatch.setattr(CohomologySpace, "_reduce_raw", recorded)
    result = central_extension(a, thetas, LC, h)
    assert seen == [theta._sparse for theta in thetas]
    assert result.class_coords == tuple(map(h.reduce_class, thetas))


def test_annihilator_dims():
    f = RATIONALS
    a = null_filiform(4, f)
    wide = central_extension(a, [delta(2, 1, 4, f)], LC)
    assert wide.annihilator_dim == 2
    assert wide.extended.annihilator().dim == 2
    narrow = central_extension(a, [nabla(4, 4, f)], LC)
    assert narrow.annihilator_dim == 1
    assert narrow.extended.annihilator().dim == 1


def test_in_t1():
    # one cocycle's class is in T_1 when it is nonzero and the extension
    # has a one-dimensional annihilator
    f = RATIONALS
    a = null_filiform(3, f)
    for theta, t1 in ((nabla(3, 3, f), True), (delta(3, 1, 3, f), True), (delta(2, 1, 3, f), False)):
        result = central_extension(a, [theta], LC)
        assert result.non_split and (result.annihilator_dim == 1) == t1
    assert not central_extension(a, [nabla(2, 3, f)], LC).non_split  # zero class spans no line


def test_extension_stays_in_variety_for_every_basis_cocycle():
    from centext import cocycle_space

    for n in (2, 3, 4):
        f = Field.prime(7)
        a = null_filiform(n, f)
        for variety in (LC, BC, ASSOC):
            for theta in cocycle_space(a, variety):
                ext = build_extension(a, [theta])
                assert satisfies_variety(ext, variety)


def _check_error(fn):
    """The NotACocycle message of fn(), or None when it does not raise."""
    try:
        fn()
    except NotACocycle as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("field", [RATIONALS, Field.prime(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("vname", ["lc", "bc", "novikov", "jordan"])
def test_stored_equations_check_like_check_cocycle(field, vname):
    # central_extension checks each form against the equations kept on h;
    # it must fail exactly when check_cocycle does, naming the same equation
    variety = builtin_variety(vname)
    rng = random.Random(f"{vname}-{field.spec()}")
    failures = set()
    for n in (3, 4, 5):
        a = null_filiform(n, field)
        h = second_cohomology(a, variety)
        forms = []
        for _ in range(6):
            theta = BilinearForm.zero(field, n)
            for z in h.z_basis:
                theta = theta + rng.randint(-3, 3) * z
            forms.append(theta)
            i, j = rng.randint(1, n), rng.randint(1, n)
            forms.append(theta + delta(i, j, n, field))
        for _ in range(4):
            forms.append(BilinearForm(field, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]))
        for theta in forms:
            want = _check_error(lambda: check_cocycle(a, variety, theta))
            got = _check_error(lambda: central_extension(a, [theta], variety, h=h))
            assert got == want
            failures.add(want)
    assert None in failures and len(failures) > 2  # both outcomes, several equations


@pytest.mark.parametrize("vname", VARIETY_NAMES)
def test_check_cocycle_names_what_the_stored_equations_name(vname):
    # the module-level check walks only block-sorted tuples; it must give
    # the verdict and the text of the check on all stored equations, also
    # in characteristic 2, where equal indices in an antisymmetric block
    # decide equations of their own
    variety = builtin_variety(vname)
    fields = [RATIONALS, Field.prime(5)]
    if all(ident.is_multilinear for ident in variety.identities):
        fields.append(Field.prime(2))
    rng = random.Random(vname)
    outcomes = set()
    for field in fields:
        bases = [null_filiform(n, field) for n in (3, 4)]
        z = second_cohomology(bases[0], variety).z_basis
        bases.append(build_extension(bases[0], [sum((rng.randint(1, 3) * f for f in z[1:]), z[0])]))
        for a in bases:
            h, n = second_cohomology(a, variety), a.dim
            forms = []
            for _ in range(4):
                theta = BilinearForm.zero(field, n)
                for f in h.z_basis:
                    theta = theta + rng.randint(-2, 2) * f
                forms += [theta, theta + delta(rng.randint(1, n), rng.randint(1, n), n, field)]
            forms.append(BilinearForm(field, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]))
            for theta in forms:
                want = _check_error(lambda: h.reduce_class(theta))
                assert _check_error(lambda: check_cocycle(a, variety, theta)) == want
                outcomes.add(want is None)
    assert outcomes == {True, False}


def test_space_of_another_algebra_or_variety_is_refused():
    f = RATIONALS
    a3, a4 = null_filiform(3, f), null_filiform(4, f)
    h3 = second_cohomology(a3, LC)
    theta = nabla(3, 3, f)
    zero3 = Algebra(f, [[[0] * 3 for _ in range(3)] for _ in range(3)])
    for base, variety in ((a4, LC), (zero3, LC), (a3, BC), (a3, ASSOC)):
        form = nabla(base.dim, base.dim, f)
        with pytest.raises(CohomologyMismatch):
            central_extension(base, [form], variety, h=h3)
    # an equal algebra built separately is the same algebra
    same = central_extension(null_filiform(3, f), [theta], builtin_variety("lc"), h=h3)
    assert same.non_split


def test_raw_extension_table_equals_the_scalar_table():
    for field in (RATIONALS, Field.prime(5)):
        a = null_filiform(3, field)
        theta = nabla(3, 3, field) + field.scalar(2) * delta(2, 1, 3, field)
        raw = build_extension(a, [theta, delta(3, 1, 3, field)])
        n, m = 3, 5
        table = [[[0] * m for _ in range(m)] for _ in range(m)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    table[i][j][k] = a.table[i][j][k]
                table[i][j][3] = theta.entry(i + 1, j + 1)
                table[i][j][4] = delta(3, 1, 3, field).entry(i + 1, j + 1)
        scalar = Algebra(field, table)
        assert raw == scalar and hash(raw) == hash(scalar)
        assert raw.table == scalar.table
        assert raw.to_json() == scalar.to_json()


@pytest.mark.parametrize("field", [RATIONALS, Field.prime(5)])
def test_extension_facts_match_the_class_and_annihilator_checks(field):
    """non_split is the independence of the class coordinates, ranked by
    the oracle, and for one cocycle non_split with annihilator_dim 1 (the
    t1 of the extend command) is a nonzero class that e_n, which spans
    Ann(mu0:n), does not annihilate; over F_p ClassAction.line_in_t1
    agrees."""
    p = field.p
    for variety in (LC, BC):
        for n in (3, 4):
            a = null_filiform(n, field)
            h = second_cohomology(a, variety)
            action = ClassAction(n, variety, field) if p else None

            def rank(forms):
                coords = [[c.value for c in h.reduce_class(theta)] for theta in forms]
                return len((modp_rref(coords, p) if p else frac_rref(coords))[0])

            forms = list(h.z_basis) + list(h.h_reps) + [h.h_reps[0] + h.z_basis[-1]]
            for theta in forms:
                result = central_extension(a, [theta], variety, h)
                nonzero = not all(c.is_zero for c in h.reduce_class(theta))
                assert result.non_split == nonzero == (rank([theta]) == 1)
                t1 = result.non_split and result.annihilator_dim == 1
                nonzero_on_e_n = any(not theta.entry(n, j).is_zero or not theta.entry(j, n).is_zero for j in range(1, n + 1))
                assert t1 == (nonzero and nonzero_on_e_n)
                if action and nonzero:
                    assert t1 == action.line_in_t1(action.coords_of(theta))
            for pair in itertools.combinations(forms, 2):
                result = central_extension(a, pair, variety, h)
                assert result.non_split == (rank(pair) == 2)


def test_extension_by_a_form_of_another_size_is_refused():
    a = null_filiform(3, RATIONALS)
    for theta in (nabla(2, 2, RATIONALS), nabla(4, 4, RATIONALS), nabla(3, 3, Field.prime(5))):
        with pytest.raises(DimMismatch, match="form does not match the algebra"):
            build_extension(a, [nabla(3, 3, RATIONALS), theta])
