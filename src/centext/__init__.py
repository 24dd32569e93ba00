"""Exact classification of central extensions of null-filiform algebras.

Everything is computed symbolically over the rationals or a prime
field: cocycle spaces cut out by variety identities, second cohomology,
central extensions, the automorphism group action, and orbit
classifications of extension classes.

``import centext`` loads no submodule.  A public name (or a submodule
by its own name) is imported from its defining module on first use
(PEP 562), so a program that never touches the orbit classification
never loads ``centext.orbits``.  A name is read from its module on every
access and not cached here, so a function patched on its module (as the
span tracer of perfbench/spans.py does) is what the package gives too.
"""

import importlib
import sys

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "algebra": "Algebra build_extension is_standard_null_filiform null_filiform satisfies_variety",
        "automorphisms": "Automorphism act_on_cocycle automorphism_count automorphism_from_column"
        " class_action_matrix",
        "budget": "DEFAULT_BUDGET resolve_budget",
        "cohomology": "CohomologySpace annihilator_intersection check_cocycle coboundary_space"
        " cocycle_space is_cocycle second_cohomology",
        "errors": "BudgetExceeded CentextError CharTooSmall CohomologyMismatch CompositeModulus"
        " DegreeError DimMismatch DivisionByZero FieldMismatch IdentitySyntaxError"
        " IndexOutOfRange InvalidDim InvariantError MalformedInput ModulusTooLarge NotACocycle"
        " NotInVariety NotInvertible TableMismatch UnknownVariety UnsupportedVariety",
        "extensions": "ExtensionResult central_extension",
        "fields": "Field RATIONALS Scalar",
        "forms": "BilinearForm delta nabla",
        "identities": "IdentitySchema Monomial VARIETY_ALIASES VARIETY_NAMES VarietySpec"
        " builtin_variety format_identity multilinearize parse_identities",
        "linalg": "Subspace kernel_basis rref",
        "orbits": "ClassAction NamedClass Orbit OrbitReport RootSubgroup check_table1"
        " classification_table closed_field_representatives coset_representatives"
        " orbits_on_H2 orbits_on_T1 roots_of_unity_subgroup",
        "reproduce": "run_reproduction",
    }.items()
    for name in names.split()
}
_SUBMODULES = {*_EXPORTS.values(), "cli"}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # a loaded module is read from sys.modules, past the import machinery
    path = f"{__name__}.{module}"
    mod = sys.modules.get(path) or importlib.import_module(path)
    return getattr(mod, name) if name in _EXPORTS else mod
