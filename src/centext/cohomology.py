"""Cocycles, coboundaries, and second cohomology of an algebra with
scalar coefficients, relative to a variety of nonassociative algebras.

A bilinear form theta is a cocycle for variety V when, for every
multilinear defining identity and every tuple of basis elements, the sum
of theta(p1, p2) over the identity's monomials p = p1*p2 vanishes, where
the factors p1, p2 are evaluated inside the algebra. Coboundaries are
the forms (x, y) -> f(x*y) for linear functionals f. Cocycle classes
are taken modulo coboundaries.
"""

from __future__ import annotations

from .algebra import (Algebra, _identity_terms, _multiplied, _sorted_tuples, _walk, _weights, build_extension,
                      is_standard_null_filiform)
from .errors import DimMismatch, InvariantError, NotACocycle, NotInVariety
from .forms import BilinearForm, _tabulated_class, _tabulated_deltas
from .identities import VarietySpec, builtin_variety, format_identity
from .linalg import Subspace, _echelon, _kernel, rref_with_transform


def _cocycle_equations(a: Algebra, variety: VarietySpec):
    """The linear constraints on the entries c_ij (row-major) of a
    cocycle, one per (identity, basis tuple): the tuple's value row,
    deduplicated in first-seen order.  Each row is a sparse raw
    {i*n + j: coefficient of c_ij}."""
    seen = set()
    for _, _, value in _identity_terms(a, variety):
        row = dict(value)
        if row:
            key = frozenset(row.items())
            if key not in seen:
                seen.add(key)
                yield row


def cocycle_space(a: Algebra, variety: VarietySpec | str):
    """Canonical echelonized basis of the cocycle space Z^2(A, F) for the
    variety, as a list of BilinearForm, from one walk of the identities.
    The row of an (identity, tuple) is its value row, so the algebra is
    in the variety exactly when every distinct row multiplies out to zero
    (``_multiplied``); NotInVariety otherwise."""
    variety = builtin_variety(variety)
    rows = list(_cocycle_equations(a, variety))
    if any(_multiplied(a, row.items()) for row in rows):
        raise NotInVariety(f"algebra does not satisfy {variety.name}")
    n = a.dim
    return [BilinearForm._from_sparse(a.field, n, v) for v in _kernel(rows, n * n, a.field.p)]


def check_cocycle(a: Algebra, variety: VarietySpec | str, theta: BilinearForm) -> None:
    """Raise NotACocycle (naming a violated equation) unless theta
    satisfies every cocycle equation of the variety over this algebra;
    DimMismatch, before any walk, unless theta is a form on the algebra.
    Only block-sorted tuples (``_sorted_tuples``) are walked, each value
    row r paired with theta as the sum of r * theta_k over its (k, r)
    pairs: an unsorted tuple's value is plus or minus its sorted tuple's,
    which comes no later, so the equation named is the first to fail.
    Of those, only the tuples whose weight sum (``_weights``) is at most
    the largest w[i] + w[j] over theta's nonzero entries are walked:
    every entry (i, j) of a tuple's value row has w[i] + w[j] at least
    the tuple's sum, so theta vanishes on the row of any other tuple.  A
    zero form walks no tuple; a table with no weights walks them all."""
    variety = builtin_variety(variety)
    n = a.dim
    if theta.n != n or theta.field != a.field:
        raise DimMismatch("form does not match the algebra")
    p, entries = a.field.p, theta._sparse
    w = _weights(a)
    cap = None if w is None else max((w[k // n] + w[k % n] for k in entries), default=0)
    for ident, combo, row in _walk(a, variety, lambda ident: _sorted_tuples(ident, range(n), w, cap)):
        value = sum(r * entries.get(k, 0) for k, r in row)
        if value % p if p else value:
            args = ", ".join(f"{v}=e_{i + 1}" for v, i in zip(ident.variables, combo))
            raise NotACocycle(f"cocycle equation from '{format_identity(ident)}' fails at {args}")


def is_cocycle(a: Algebra, variety: VarietySpec | str, theta: BilinearForm) -> bool:
    try:
        check_cocycle(a, variety, theta)
    except NotACocycle:
        return False
    return True


def _coboundary_rows(a: Algebra) -> list:
    """The canonical RREF of the coboundaries as sparse raw rows: the row
    of the functional e_k^* holds the coefficient of e_k in e_i * e_j at
    i*n + j, read from the sparse table."""
    n = a.dim
    rows = [{} for _ in range(n)]
    for i, row in enumerate(a._sparse):
        for j, vec in enumerate(row):
            for k, c in vec:
                rows[k][i * n + j] = c
    return _echelon(rows, a.field.p)[1]


def coboundary_space(a: Algebra):
    """Canonical echelonized basis of the coboundary space: forms
    (x, y) -> f(x*y) for the dual basis functionals f."""
    return [BilinearForm._from_sparse(a.field, a.dim, r) for r in _coboundary_rows(a)]


def annihilator_intersection(a: Algebra, thetas) -> Subspace:
    """Ann(A) intersected with the annihilators of all the given forms:
    the kernel, on the n base coordinates, of the annihilator equations
    of their extension A_theta (``build_extension``)."""
    rows = build_extension(a, tuple(thetas))._annihilator_rows()
    return Subspace._from_sparse(a.field, a.dim, _kernel(rows, a.dim, a.field.p))


def _preferred_h_reps(a: Algebra, variety: VarietySpec):
    """The distinguished cohomology representatives for the null-filiform
    algebra in a variety with tabulated classes: nabla_n first, then
    delta(i, 1) for i in ``forms._tabulated_deltas``, ascending."""
    n = a.dim
    deltas = _tabulated_deltas(variety.name, n)
    if not deltas or not is_standard_null_filiform(a):
        return None
    classes = [_tabulated_class(n, a.field, True, n, 0)]
    classes += [_tabulated_class(n, a.field, False, i, 1) for i in deltas]
    return tuple(zip(*classes))  # (forms, labels)


class CohomologySpace:
    """Second cohomology data: cocycle basis, coboundary basis, chosen
    class representatives and the reduction map onto class coordinates.
    B^2 and the representatives span Z^2, so one reduction of a form
    (``_coordinates``) decides both whether it is a cocycle and its class:
    ``reduce_class`` raises NotACocycle or returns the class coordinates.

    The reduction map is the transform T of a row reduction of the
    matrix whose columns are the coboundary basis and then the
    representatives, so T theta holds the coordinates of theta in that
    basis followed by entries that vanish exactly when theta is in their
    span, the cocycle space.  The rows of T for the class coordinates and
    for those checks are kept as sparse raw columns, built on the first
    reduction: {form position k: ((row, raw value), ...)}, so a reduction
    touches only the form's nonzero entries."""

    __slots__ = (
        "algebra",
        "variety",
        "z_basis",
        "b_basis",
        "h_reps",
        "h_labels",
        "preferred_basis_used",
        "_transform",
        "_columns",
    )

    def __init__(self, algebra, variety, z_basis, b_basis, h_reps, h_labels, preferred):
        self.algebra = algebra
        self.variety = variety
        self.z_basis = tuple(z_basis)
        self.b_basis = tuple(b_basis)
        self.h_reps = tuple(h_reps)
        self.h_labels = tuple(h_labels)
        self.preferred_basis_used = preferred
        cols = [f.as_vector() for f in self.b_basis] + [f.as_vector() for f in self.h_reps]
        n2 = algebra.dim * algebra.dim
        rows = [tuple(col[r] for col in cols) for r in range(n2)]
        _, transform, pivots, rank = rref_with_transform(rows, algebra.field)
        if rank != len(cols) or pivots != list(range(len(cols))):
            raise InvariantError("coboundary/representative columns are not independent")
        self._transform = transform
        self._columns = None

    @property
    def dim_z(self) -> int:
        return len(self.z_basis)

    @property
    def dim_b(self) -> int:
        return len(self.b_basis)

    @property
    def dim_h(self) -> int:
        return len(self.h_reps)

    def _reduce_raw(self, entries: dict):
        """Raw coordinates of the class of the form whose nonzero entries
        are {i*n + j: raw value}; NotACocycle when the form is outside
        the cocycle span.  Each entry adds its value times its column of
        the reduction map; over F_p the sums are reduced once at the end."""
        nb, nh = len(self.b_basis), len(self.h_reps)
        if self._columns is None:
            columns = {}
            for r, row in enumerate(self._transform[nb:]):
                for k, x in enumerate(row):
                    if not x.is_zero:
                        columns.setdefault(k, []).append((r, x.raw))
            self._columns = {k: tuple(col) for k, col in columns.items()}
        columns = self._columns
        values = [0] * (len(self._transform) - nb)
        for k, x in entries.items():
            for r, v in columns.get(k, ()):
                values[r] += x * v
        p = self.algebra.field.p
        if p:
            values = [v % p for v in values]
        if any(values[nh:]):
            raise NotACocycle("form lies outside the cocycle space")
        return tuple(values[:nh])

    def _coordinates(self, theta: BilinearForm):
        """Raw coordinates of [theta] in the h_reps basis.  Only a form
        outside the cocycle span walks the identities (``check_cocycle``),
        to name its first failing equation; a walk that names none is an
        InvariantError."""
        if theta.n != self.algebra.dim or theta.field != self.algebra.field:
            raise DimMismatch("form does not match the algebra")
        try:
            return self._reduce_raw(theta._sparse)
        except NotACocycle:
            check_cocycle(self.algebra, self.variety, theta)
            raise InvariantError("a form outside the cocycle span satisfies every cocycle equation") from None

    def reduce_class(self, theta: BilinearForm):
        """Coordinates of the class [theta] in the h_reps basis; NotACocycle,
        naming the first failing equation, when theta is not a cocycle."""
        return tuple(map(self.algebra.field.from_raw, self._coordinates(theta)))

    def rep_from_coords(self, coords) -> BilinearForm:
        field = self.algebra.field
        acc = BilinearForm.zero(field, self.algebra.dim)
        for r, c in field._raw_row(coords, self.dim_h).items():
            acc = acc + c * self.h_reps[r]
        return acc

    def __repr__(self):
        return (
            f"CohomologySpace({self.variety.name}, dim={self.algebra.dim}, "
            f"Z={self.dim_z}, B={self.dim_b}, H={self.dim_h})"
        )


def second_cohomology(a: Algebra, variety: VarietySpec | str) -> CohomologySpace:
    """H^2 = Z^2 / B^2, from one walk of the identities: membership in
    the variety is read off the cocycle equations (NotInVariety
    otherwise).  Every choice of representatives is read off the rows
    that open a pivot in one ``_echelon``.  The forms of
    ``_preferred_h_reps`` are taken when |B| + |forms| = dim Z and, in
    one echelon of B, the forms and then Z, the rows of B and of the
    forms open a pivot and no row of Z does: then they span Z.
    Otherwise one echelon of B and then Z picks the cocycle basis
    vectors z<k> (1-based) outside the span of B and the vectors before
    them, and checks that B lies in Z: that dim Z rows open a pivot."""
    variety = builtin_variety(variety)
    z_forms = cocycle_space(a, variety)
    b_rows = _coboundary_rows(a)
    b_forms = [BilinearForm._from_sparse(a.field, a.dim, r) for r in b_rows]
    z_rows, p = [f._sparse for f in z_forms], a.field.p
    preferred = _preferred_h_reps(a, variety)
    if preferred is not None and len(b_rows) + len(preferred[0]) == len(z_rows):
        forms, labels = preferred
        opened = []
        _echelon([dict(r) for r in b_rows + [f._sparse for f in forms] + z_rows], p, opened)
        if opened == list(range(len(b_rows) + len(forms))):
            return CohomologySpace(a, variety, z_forms, b_forms, forms, labels, True)
    opened = []
    _echelon([dict(r) for r in b_rows + z_rows], p, opened)
    if len(opened) != len(z_rows):
        raise InvariantError("coboundary outside the cocycle space")
    picked = [i - len(b_rows) for i in opened if i >= len(b_rows)]
    h_reps, h_labels = [z_forms[k] for k in picked], [f"z{k + 1}" for k in picked]
    return CohomologySpace(a, variety, z_forms, b_forms, h_reps, h_labels, False)
