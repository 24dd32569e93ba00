import random
from fractions import Fraction

import pytest

from centext import (
    CharTooSmall,
    DegreeError,
    Field,
    IdentitySyntaxError,
    RATIONALS,
    UnknownVariety,
    VARIETY_NAMES,
    builtin_variety,
    format_identity,
    multilinearize,
    parse_identities,
)
from centext.identities import Monomial, evaluate_tree

from oracles import table_mul


def parse_identity(text):
    """The one identity of a text that is no chain."""
    [schema] = parse_identities(text)
    return schema


def test_parse_print_parse_round_trip():
    for name in VARIETY_NAMES:
        variety = builtin_variety(name)
        for schema in variety.identities + variety.multilinear_identities:
            text = format_identity(schema)
            again = parse_identity(text)
            assert again.monomials == schema.monomials
            assert format_identity(again) == text


def test_basic_parse_shapes():
    s = parse_identity("(x*y)*z - x*(y*z) = 0")
    assert len(s.monomials) == 2
    assert s.variables == ("x", "y", "z")
    assert s.degree == 3
    assert s.is_multilinear
    trees = {m.tree: m.coeff for m in s.monomials}
    assert trees[(("x", "y"), "z")] == 1
    assert trees[("x", ("y", "z"))] == -1


def test_like_terms_combine():
    s = parse_identity("2*x*y - y*x - x*y = 0")
    trees = {m.tree: m.coeff for m in s.monomials}
    assert trees == {("x", "y"): 1, ("y", "x"): -1}


def test_chains_split():
    chain = parse_identities("(x*y)*z = (y*x)*z = (x*z)*y")
    assert len(chain) == 2
    first, second = chain
    assert {m.tree for m in first.monomials} == {(("x", "y"), "z"), (("y", "x"), "z")}
    assert {m.tree for m in second.monomials} == {(("x", "y"), "z"), (("x", "z"), "y")}


def test_syntax_errors_carry_position():
    for text in ("x*(y", "x*", "*x*y = 0", "x*y = ", "x%y = 0"):
        with pytest.raises(IdentitySyntaxError):
            parse_identity(text)
    with pytest.raises(IdentitySyntaxError) as err:
        parse_identity("x*y*z = 0")
    assert "parenthesize" in str(err.value)
    with pytest.raises(IdentitySyntaxError) as err:
        parse_identity("x?y = 0")
    assert "position" in str(err.value)


def test_degenerate_identities_rejected():
    with pytest.raises(DegreeError):
        parse_identity("x = y")  # degree-1 monomials
    with pytest.raises(DegreeError):
        parse_identity("x*y = 3")  # constant term
    with pytest.raises(DegreeError):
        parse_identity("x*y = x*y")  # trivially zero
    with pytest.raises(IdentitySyntaxError):
        parse_identity("x*y")  # no '='


def test_multilinear_identity_is_fixed_point():
    lc = parse_identity("x*(y*z) - y*(x*z) = 0")
    out = multilinearize(lc)
    assert len(out) == 1
    assert out[0].monomials == lc.monomials


def test_left_alternative_multilinearization_frozen():
    s = parse_identity("x*(x*y) - (x*x)*y = 0")
    out = multilinearize(s)
    assert len(out) == 1
    got = {(m.coeff, m.tree) for m in out[0].monomials}
    want = {
        (1, ("x1", ("x2", "y"))),
        (1, ("x2", ("x1", "y"))),
        (-1, (("x1", "x2"), "y")),
        (-1, (("x2", "x1"), "y")),
    }
    assert got == want


def test_jordan_multilinearization_has_twelve_terms():
    variety = builtin_variety("jordan")
    quartic = [s for s in variety.multilinear_identities if s.degree == 4]
    assert len(quartic) == 1
    assert len(quartic[0].monomials) == 12
    assert all(abs(m.coeff) == 1 for m in quartic[0].monomials)
    assert quartic[0].is_multilinear


def test_symmetry_blocks_of_the_catalog_identities():
    # each catalog multilinear identity, in order, and the variables whose
    # swaps map it to plus or minus itself
    want = {
        "associative": [()],
        "left_alternative": [(("x1", "x2"),)],
        "alternative": [(("x1", "x2"),), (("y1", "y2"),)],
        "jordan": [(("x", "y"),), (("x1", "x2", "x3"),)],
        "left_commutative": [(("x", "y"),)],
        "right_commutative": [(("y", "z"),)],
        "bicommutative": [(("x", "y"),), (("y", "z"),)],
        "assosymmetric": [(("x", "y"),), (("y", "z"),)],
        "novikov": [(("y", "z"),), (("x", "y"),)],
        "left_symmetric": [(("x", "y"),)],
    }
    assert set(want) == set(VARIETY_NAMES)
    for name in VARIETY_NAMES:
        got = [s.symmetry_blocks for s in builtin_variety(name).multilinear_identities]
        assert got == want[name], name
    assert parse_identity("(x*y)*z = x*(y*z)").symmetry_blocks == ()
    # a swap that maps a monomial to one with another coefficient is no symmetry
    assert parse_identity("x*(y*z) = 2*(y*(x*z))").symmetry_blocks == ()
    assert parse_identity("x*(y*z) + y*(x*z) = z*(x*y) + z*(y*x)").symmetry_blocks == (("x", "y"),)


def test_mixed_degrees_split_into_components():
    s = parse_identity("(x*x)*y - x*y = 0")
    out = multilinearize(s)
    degrees = sorted(comp.degree for comp in out)
    assert degrees == [2, 3]
    cubic = next(c for c in out if c.degree == 3)
    assert len(cubic.monomials) == 2  # (x1 x2)y + (x2 x1)y
    quad = next(c for c in out if c.degree == 2)
    assert {m.tree for m in quad.monomials} == {("x", "y")}


def test_evaluate_tree_against_oracle():
    # a deliberately lopsided 2-dim table
    table = [
        [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
        [[Fraction(0), Fraction(0)], [Fraction(2), Fraction(0)]],
    ]
    env = {
        "x": [Fraction(1), Fraction(2)],
        "y": [Fraction(-1), Fraction(3)],
    }

    def mul(u, v):
        return table_mul(table, u, v)

    got = evaluate_tree((("x", "y"), "x"), env, mul)
    want = mul(mul(env["x"], env["y"]), env["x"])
    assert got == want


def recording_mul(calls):
    def mul(u, v):
        calls.append((u, v))
        return (u, v)

    return mul


def test_evaluate_tree_reads_position_leaves_from_a_list():
    calls = []
    mul = recording_mul(calls)
    env = ["a", "b", "c"]
    assert evaluate_tree(1, env, mul) == "b"
    assert evaluate_tree((0, 2), env, mul) == ("a", "c")
    assert evaluate_tree(((0, 1), 2), env, mul) == (("a", "b"), "c")
    assert evaluate_tree((2, (1, 0)), env, mul) == ("c", ("b", "a"))
    assert calls == [("a", "c"), ("a", "b"), (("a", "b"), "c"), ("b", "a"), ("c", ("b", "a"))]


@pytest.mark.parametrize("right", [5, (5, 6)])
def test_evaluate_tree_stops_at_a_zero_left_factor(right):
    # the right factor is never read: positions 5 and 6 are not bound
    calls = []
    assert evaluate_tree((0, right), [()], recording_mul(calls)) == ()
    assert evaluate_tree(((1, 0), right), ["a", ()], recording_mul(calls)) == ()
    assert calls == []


def test_evaluate_tree_stops_at_a_zero_right_factor():
    calls = []
    assert evaluate_tree((0, 1), ["a", ()], recording_mul(calls)) == ()
    assert evaluate_tree((0, (0, 1)), ["a", ()], recording_mul(calls)) == ()
    assert calls == []


def slot_tree(ident, slot):
    """The tree over variable names that a slot of ``ident.subtrees`` stands for."""
    k = len(ident.variables)
    if slot < k:
        return ident.variables[slot]
    left, right = ident.subtrees[0][slot - k]
    return (slot_tree(ident, left), slot_tree(ident, right))


def test_subtrees_list_each_inner_product_once():
    for name in VARIETY_NAMES:
        for ident in builtin_variety(name).multilinear_identities:
            pairs, roots = ident.subtrees
            k = len(ident.variables)
            assert all(a < k + s and b < k + s for s, (a, b) in enumerate(pairs))
            trees = [slot_tree(ident, k + s) for s in range(len(pairs))]
            assert len(set(trees)) == len(trees)
            assert [(c, slot_tree(ident, u), slot_tree(ident, w)) for c, u, w in roots] == [
                (m.coeff, *m.split_root()) for m in ident.monomials
            ]
    quartic = builtin_variety("jordan").multilinear_identities[1]
    assert len(quartic.monomials) == 12 and len(quartic.subtrees[0]) == 15


def test_monomial_split_and_multiplicities():
    m = Monomial(coeff=2, tree=(("x", "y"), "x"))
    assert m.degree == 3
    assert m.multiplicities() == {"x": 2, "y": 1}
    left, right = m.split_root()
    assert left == ("x", "y") and right == "x"
    with pytest.raises(DegreeError):
        Monomial(coeff=1, tree="x").split_root()


def test_builtin_catalog():
    assert len(VARIETY_NAMES) == 10
    assert builtin_variety("lc") is builtin_variety("left_commutative")
    assert builtin_variety("bc").name == "bicommutative"
    assert builtin_variety("rc").name == "right_commutative"
    with pytest.raises(UnknownVariety):
        builtin_variety("commutative")
    novikov = builtin_variety("novikov")
    assert len(novikov.identities) == 2
    assosym = builtin_variety("assosymmetric")
    assert len(assosym.identities) == 2  # the chain splits in two


def test_char_gate():
    jordan = builtin_variety("jordan")
    for p in (2, 3):
        with pytest.raises(CharTooSmall):
            jordan.char_gate(Field.prime(p))
    jordan.char_gate(Field.prime(5))
    jordan.char_gate(RATIONALS)
    left_alt = builtin_variety("left_alternative")
    for p in (2, 3):
        with pytest.raises(CharTooSmall):
            left_alt.char_gate(Field.prime(p))
    left_alt.char_gate(Field.prime(5))
    # fully multilinear varieties work in any characteristic
    for name in ("left_commutative", "bicommutative", "associative", "novikov"):
        builtin_variety(name).char_gate(Field.prime(2))


def test_non_decimal_digits_are_syntax_errors():
    for text, position in (("\u00b2*x = 0", 0), ("2\u00b2*x = 0", 1), ("x*y = 3 \u00b2", 8)):
        with pytest.raises(IdentitySyntaxError, match="unexpected character '\u00b2'") as err:
            parse_identity(text)
        assert err.value.position == position


def test_identity_integers_are_ascii():
    with pytest.raises(IdentitySyntaxError, match="unexpected character '\u0663'") as err:
        parse_identity("\u0663*(x*y) = 0")
    assert err.value.position == 0


def test_identity_reader_returns_identities_or_a_typed_error():
    pieces = ["x", "y", "z", "x1", "y'", "a_b", "*", "(", ")", "+", "-", "=", " = ", " ", "0",
              "2", "12", "\u00b2", "\u0663", "\u00e9", "_", "'", "/", "(x*y)", "*z",
              "x*(y*z)", "(x*x)*y", "3*"]
    rng = random.Random(13)
    for _ in range(3000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 9)))
        try:
            schemas = parse_identities(text)
        except (IdentitySyntaxError, DegreeError):
            continue
        assert schemas and all(s.degree >= 2 for s in schemas)
