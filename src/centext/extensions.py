"""Central extensions of an algebra by a list of cocycles.

Extending an n-dimensional algebra A by s bilinear forms theta_1..theta_s
produces the (n+s)-dimensional algebra on A + span(f_1..f_s) with

    (x + u) * (y + w) = x*y + sum_k theta_k(x, y) f_k

so the new basis vectors f_k multiply everything to zero and land in the
annihilator.  ``central_extension`` reports two facts of it: ``non_split``,
whether the cocycle classes are linearly independent in H^2, and
``annihilator_dim``, s plus the dimension of Ann(A) met with the
annihilators of the forms.  A single non-split cocycle's class lies in
T_1 exactly when that dimension is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra
from .cohomology import CohomologySpace, annihilator_intersection, second_cohomology
from .errors import CohomologyMismatch, DimMismatch
from .identities import VarietySpec, builtin_variety
from .linalg import _echelon


@dataclass(frozen=True)
class ExtensionResult:
    extended: Algebra
    base: Algebra
    cocycles: tuple
    variety: VarietySpec
    class_coords: tuple          # one coordinate tuple per cocycle
    non_split: bool
    annihilator_dim: int


def build_extension(a: Algebra, thetas) -> Algebra:
    """The product table of the extension; no cocycle checking.  It is
    built as a sparse raw table: e_i * e_j of A followed by the nonzero
    theta_t(e_i, e_j) at f_t, read from the forms' raw views, and zero
    products for every f_t."""
    n, s = a.dim, len(thetas)
    for theta in thetas:
        if theta.n != n or theta.field != a.field:
            raise DimMismatch("form does not match the algebra")
    sparse = []
    for i, row in enumerate(a._sparse):
        out = []
        for j, vec in enumerate(row):
            k = i * n + j
            out.append(vec + tuple((n + t, th._sparse[k]) for t, th in enumerate(thetas) if k in th._sparse))
        sparse.append(tuple(out) + ((),) * s)
    sparse += [((),) * (n + s)] * s
    return Algebra._from_sparse(a.field, tuple(sparse))


def _space_for(a: Algebra, variety: VarietySpec | str, h: CohomologySpace | None) -> CohomologySpace:
    """h, or H^2 of (a, variety) when h is None.  A space computed for
    another algebra or variety raises CohomologyMismatch."""
    variety = builtin_variety(variety)
    if h is None:
        return second_cohomology(a, variety)
    if h.algebra != a or h.variety != variety:
        raise CohomologyMismatch(
            f"cohomology space of {h.variety.name} on a {h.algebra.dim}-dimensional "
            f"algebra passed for {variety.name} on a {a.dim}-dimensional algebra"
        )
    return h


def _independent(coords, field) -> bool:
    """Whether the class coordinate tuples are linearly independent."""
    return len(_echelon([field._raw_row(c, len(c)) for c in coords], field.p)[0]) == len(coords)


def central_extension(
    a: Algebra,
    thetas,
    variety: VarietySpec | str,
    h: CohomologySpace | None = None,
) -> ExtensionResult:
    """Checked central extension: every form must be a cocycle for the
    variety (NotACocycle names a violated equation otherwise).  The forms
    are checked against the cocycle equations kept on h, the H^2 of
    (a, variety), computed here when h is None."""
    thetas = tuple(thetas)
    h = _space_for(a, variety, h)
    for theta in thetas:
        h.check_cocycle(theta)
    ann_core = annihilator_intersection(a, thetas)
    coords = tuple(h.reduce_class(theta) for theta in thetas)
    return ExtensionResult(
        extended=build_extension(a, thetas),
        base=a,
        cocycles=thetas,
        variety=h.variety,
        class_coords=coords,
        non_split=_independent(coords, a.field),
        annihilator_dim=ann_core.dim + len(thetas),
    )
