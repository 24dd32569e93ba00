"""Central extensions of an algebra by a list of cocycles.

Extending an n-dimensional algebra A by s bilinear forms theta_1..theta_s
produces the (n+s)-dimensional algebra on A + span(f_1..f_s) with

    (x + u) * (y + w) = x*y + sum_k theta_k(x, y) f_k

so the new basis vectors f_k multiply everything to zero and land in the
annihilator.  ``central_extension`` reads its facts off H^2 of A and the
extension's own table: each form's cocycle check and class coordinates
off one reduction by H^2, ``non_split`` (independent class coordinates)
off those coordinates, and ``annihilator_dim``, n + s less the rank of
the extension's annihilator equations, off Ann(A_theta) = (Ann(A) met
with the forms' annihilators) + <f_1..f_s>.  A single
non-split cocycle's class lies in T_1 exactly when that dimension is 1.
"""

from __future__ import annotations

from .algebra import Algebra, build_extension
from .cohomology import CohomologySpace, second_cohomology
from .errors import CohomologyMismatch
from .fields import _Frozen
from .identities import VarietySpec, builtin_variety
from .linalg import _echelon


class ExtensionResult(_Frozen):
    # class_coords holds one coordinate tuple per cocycle
    __slots__ = ("extended", "base", "cocycles", "variety", "class_coords", "non_split", "annihilator_dim")


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
    variety (NotACocycle names the first failing equation otherwise).
    Each form is reduced once, in order and before the extension is
    built, by ``h.reduce_class``, h the H^2 of (a, variety), computed
    here when h is None; that one reduction is both its check and its
    class coordinates."""
    thetas = tuple(thetas)
    h = _space_for(a, variety, h)
    coords = tuple(h.reduce_class(theta) for theta in thetas)
    extended = build_extension(a, thetas)
    return ExtensionResult(
        extended=extended,
        base=a,
        cocycles=thetas,
        variety=h.variety,
        class_coords=coords,
        non_split=_independent(coords, a.field),
        annihilator_dim=extended._annihilator_dim(),
    )
