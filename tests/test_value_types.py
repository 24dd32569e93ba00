"""The contract of the immutable types, the six value types and the
records: no attribute is set or deleted, equal objects hash alike, and
copy, deepcopy and pickle give an equal object."""

import copy
import pickle
from fractions import Fraction

import pytest

from centext import (
    RATIONALS,
    Automorphism,
    Field,
    Monomial,
    Subspace,
    builtin_variety,
    central_extension,
    classification_table,
    closed_field_representatives,
    delta,
    nabla,
    null_filiform,
    orbits_on_T1,
    roots_of_unity_subgroup,
    second_cohomology,
)

F5 = Field.prime(5)

VALUES = {
    "Field": lambda: F5,
    "Scalar": lambda: RATIONALS.scalar(Fraction(-1, 2)),
    "Algebra": lambda: null_filiform(4, F5),
    "BilinearForm": lambda: nabla(4, 4, RATIONALS) + delta(2, 1, 4, RATIONALS),
    "Subspace": lambda: Subspace(F5, 3, [(1, 2, 3), (0, 1, 4)]),
    "Automorphism": lambda: Automorphism(F5, (2, 1, 0, 3)),
    "Monomial": lambda: builtin_variety("jordan").identities[1].monomials[0],
    "IdentitySchema": lambda: builtin_variety("jordan").identities[1],
    "VarietySpec": lambda: builtin_variety("jordan"),
    "ExtensionResult": lambda: central_extension(null_filiform(4, F5), [nabla(4, 4, F5)], "lc"),
    "RootSubgroup": lambda: roots_of_unity_subgroup(1, 3, F5),
    "NamedClass": lambda: closed_field_representatives("lc", 3, F5)[0],
    "Orbit": lambda: orbits_on_T1(3, "lc", F5).orbits[0],
    "OrbitReport": lambda: orbits_on_T1(3, "lc", F5),
    "TableRow": lambda: classification_table(3, F5)[0],
}

# a TableRow's base_h2 is a CohomologySpace, which compares by identity,
# so a deep copy of a row is no equal row
COPYABLE = [name for name in VALUES if name != "TableRow"]

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize("name", VALUES)
def test_no_attribute_is_set_or_deleted(name):
    value = VALUES[name]()
    assert type(value).__name__ == name
    before = copy.copy(value)
    for attr in ("field", "p", "no_such_slot"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, attr, 1)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(value, attr)
    assert value == before and hash(value) == hash(before)


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", COPYABLE)
def test_copies_are_equal_and_hash_alike(name, how):
    value = VALUES[name]()
    twin = COPIES[how](value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)
    assert repr(twin) == repr(value)


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_a_copied_cohomology_space_reduces_as_the_original(how):
    h = second_cohomology(null_filiform(4, RATIONALS), "lc")
    twin = COPIES[how](h)
    theta = nabla(4, 4, RATIONALS)
    assert twin.reduce_class(theta) == h.reduce_class(theta) == (1, 0, 0, 0)
    assert twin.h_labels == h.h_labels and twin.h_reps == h.h_reps


def test_a_scalar_hashes_like_its_value():
    assert len({RATIONALS.scalar(3), 3, Fraction(3)}) == 1
    assert len({RATIONALS.scalar(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert {F5.scalar(8): "s"}[3] == "s"  # the canonical residue of 8 mod 5


def test_a_record_is_built_from_its_fields_by_position_or_keyword():
    m = Monomial(2, ("x", "y"))
    assert Monomial(coeff=2, tree=("x", "y")) == Monomial(2, tree=("x", "y")) == m
    assert repr(m) == "Monomial(coeff=2, tree=('x', 'y'))"
    for args, kwargs in [((2,), {}), ((2, "x", 3), {}), ((2,), {"coeff": 2}), ((2, "x"), {"sign": 1})]:
        with pytest.raises(TypeError, match=r"^Monomial\(\) takes the fields coeff, tree$"):
            Monomial(*args, **kwargs)
    row = VALUES["TableRow"]()
    assert repr(row).startswith("TableRow(label='delta3_1', cocycle=") and "base_h2" not in repr(row)
