"""Central extensions of an algebra by a list of cocycles.

Extending an n-dimensional algebra A by s bilinear forms theta_1..theta_s
produces the (n+s)-dimensional algebra on A + span(f_1..f_s) with

    (x + u) * (y + w) = x*y + sum_k theta_k(x, y) f_k

so the new basis vectors f_k multiply everything to zero and land in the
annihilator. The extension carries no new annihilator component exactly
when the cocycle classes are linearly independent in H^2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra
from .cohomology import (
    CohomologySpace,
    annihilator_intersection,
    check_cocycle,
    second_cohomology,
)
from .errors import DimMismatch
from .identities import VarietySpec
from .linalg import rref


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
    """The product table of the extension; no cocycle checking."""
    n, s = a.dim, len(thetas)
    for theta in thetas:
        if theta.n != n or theta.field != a.field:
            raise DimMismatch("form does not match the algebra")
    m = n + s
    z = a.field.zero
    table = [[[z] * m for _ in range(m)] for _ in range(m)]
    for i in range(n):
        for j in range(n):
            vec = a.table[i][j]
            for k in range(n):
                table[i][j][k] = vec[k]
            for t, theta in enumerate(thetas):
                table[i][j][n + t] = theta.rows[i][j]
    return Algebra(a.field, table)


def is_non_split(a: Algebra, variety: VarietySpec, thetas, h: CohomologySpace | None = None) -> bool:
    """Whether the cocycle classes are linearly independent in H^2."""
    if h is None:
        h = second_cohomology(a, variety)
    coords = [h.reduce_class(theta) for theta in thetas]
    reduced, _ = rref(coords)
    return len(reduced) == len(thetas)


def in_T1(a: Algebra, variety: VarietySpec, theta, h: CohomologySpace | None = None) -> bool:
    """Whether the (nonzero) class of theta spans a line whose cocycle
    annihilator meets Ann(A) trivially."""
    if h is None:
        h = second_cohomology(a, variety)
    coords = h.reduce_class(theta)
    if all(c.is_zero for c in coords):
        raise ValueError("zero cohomology class does not span a line")
    return annihilator_intersection(a, [theta]).dim == 0


def central_extension(
    a: Algebra,
    thetas,
    variety: VarietySpec,
    h: CohomologySpace | None = None,
) -> ExtensionResult:
    """Checked central extension: every form must be a cocycle for the
    variety (NotACocycle names a violated equation otherwise)."""
    thetas = tuple(thetas)
    for theta in thetas:
        check_cocycle(a, variety, theta)
    if h is None:
        h = second_cohomology(a, variety)
    ann_core = annihilator_intersection(a, thetas)
    return ExtensionResult(
        extended=build_extension(a, thetas),
        base=a,
        cocycles=thetas,
        variety=variety,
        class_coords=tuple(h.reduce_class(theta) for theta in thetas),
        non_split=is_non_split(a, variety, thetas, h),
        annihilator_dim=ann_core.dim + len(thetas),
    )
