"""Exact linear algebra over a Field: row reduction, kernels, subspaces.

Vectors are tuples of Scalar, matrices are lists/tuples of row vectors.
All routines are deterministic: pivots are chosen leftmost-first and
normalized to 1, so echelon forms are canonical for a given row span.
"""

from __future__ import annotations

from .errors import DimMismatch
from .fields import Field, Scalar


def zero_vec(field: Field, m: int):
    z = field.zero
    return tuple(z for _ in range(m))


def basis_vec(field: Field, m: int, k: int):
    """Standard basis vector with a 1 in position k (0-based)."""
    z, o = field.zero, field.one
    return tuple(o if i == k else z for i in range(m))


def vec_add(u, v):
    if len(u) != len(v):
        raise DimMismatch(f"vector lengths {len(u)} and {len(v)} differ")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    if len(u) != len(v):
        raise DimMismatch(f"vector lengths {len(u)} and {len(v)} differ")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: Scalar, u):
    return tuple(c * a for a in u)


def vec_is_zero(u) -> bool:
    return all(a.is_zero for a in u)


def mat_vec(rows, v):
    if rows and len(rows[0]) != len(v):
        raise DimMismatch(f"matrix width {len(rows[0])} vs vector length {len(v)}")
    out = []
    for row in rows:
        acc = None
        for a, b in zip(row, v):
            if a.is_zero or b.is_zero:
                continue
            term = a * b
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else v[0].field.zero)
    return tuple(out)


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise DimMismatch(f"inner dimensions {len(a[0])} and {len(b)} differ")
    bt = transpose(b)
    return tuple(tuple(_dot(row, col) for col in bt) for row in a)


def _dot(u, v):
    acc = None
    for a, b in zip(u, v):
        if a.is_zero or b.is_zero:
            continue
        term = a * b
        acc = term if acc is None else acc + term
    return acc if acc is not None else u[0].field.zero


def transpose(rows):
    return tuple(tuple(r[j] for r in rows) for j in range(len(rows[0]))) if rows else ()


def identity_matrix(field: Field, m: int):
    return tuple(basis_vec(field, m, i) for i in range(m))


def rref(rows):
    """Reduced row echelon form of the given rows.

    Returns (reduced_rows, pivot_columns); zero rows are dropped, pivot
    entries are 1 and are the only nonzero entries in their columns.
    """
    work = [list(r) for r in rows]
    if not work:
        return [], []
    work, pivots = _rref_full(work, len(work[0]))
    return [tuple(row) for row in work[: len(pivots)]], pivots


def rref_with_transform(rows, field: Field):
    """Row reduce and also return T with T @ rows == reduced (padded with
    zero rows). Used to solve many systems against the same matrix."""
    m = len(rows)
    aug = [list(rows[i]) + list(basis_vec(field, m, i)) for i in range(m)]
    ncols = len(rows[0]) if rows else 0
    red, _ = _rref_full(aug, ncols)
    reduced = [tuple(row[:ncols]) for row in red]
    transform = [tuple(row[ncols:]) for row in red]
    pivots = []
    for row in reduced:
        for c, x in enumerate(row):
            if not x.is_zero:
                pivots.append(c)
                break
    rank = len([row for row in reduced if not vec_is_zero(row)])
    return reduced, transform, pivots[:rank], rank


def _rref_full(work, ncols):
    """RREF restricted to the first ncols columns; keeps all rows."""
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(work)):
            if not work[i][c].is_zero:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = work[r][c].inv()
        if not inv.is_one:
            work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and not work[i][c].is_zero:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def kernel_basis(rows, ncols: int, field: Field):
    """Canonical basis of the solution space of rows @ x = 0.

    The standard basis (one free variable set to 1 at a time, in
    ascending column order) is computed from the RREF and then
    re-echelonized, so the result depends only on the solution space.
    """
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    z, o = field.zero, field.one
    for f in free:
        v = [z] * ncols
        v[f] = o
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    canon, _ = rref(basis)
    return canon


def solve(rows, target, field: Field):
    """One exact solution x of A x = target for A given by rows, or None
    when the system is inconsistent. Free variables are set to zero."""
    m = len(rows)
    if m == 0:
        return () if vec_is_zero(target) else None
    ncols = len(rows[0])
    aug = [list(rows[i]) + [target[i]] for i in range(m)]
    red, pivots = _rref_full(aug, ncols)
    z = field.zero
    x = [z] * ncols
    rank = len(pivots)
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    for r in range(rank, m):
        if not red[r][ncols].is_zero and vec_is_zero(red[r][:ncols]):
            return None
    # verify (guards against free-variable columns interacting with target)
    for i in range(m):
        acc = z
        for j in range(ncols):
            if not rows[i][j].is_zero and not x[j].is_zero:
                acc = acc + rows[i][j] * x[j]
        if acc != target[i]:
            return None
    return tuple(x)


class Subspace:
    """A linear subspace of F^m, stored by its canonical RREF basis."""

    __slots__ = ("field", "ambient", "basis")

    def __init__(self, field: Field, ambient: int, vectors=()):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient", ambient)
        reduced, _ = rref(list(vectors))
        object.__setattr__(self, "basis", tuple(reduced))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v) -> bool:
        if len(v) != self.ambient:
            raise DimMismatch(f"vector length {len(v)} in ambient {self.ambient}")
        residue = list(v)
        for row in self.basis:
            lead = next(c for c, x in enumerate(row) if not x.is_zero)
            if not residue[lead].is_zero:
                f = residue[lead]
                residue = [x - f * y for x, y in zip(residue, row)]
        return all(x.is_zero for x in residue)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimMismatch("subspaces live in different ambient spaces")
        if not self.basis or not other.basis:
            return Subspace(self.field, self.ambient)
        # solve a*B1 - b*B2 = 0 over stacked coefficients (a, b)
        k1, k2 = len(self.basis), len(other.basis)
        rows = []
        for col in range(self.ambient):
            row = [self.basis[i][col] for i in range(k1)]
            row += [-other.basis[j][col] for j in range(k2)]
            rows.append(tuple(row))
        ker = kernel_basis(rows, k1 + k2, self.field)
        vectors = []
        for sol in ker:
            v = zero_vec(self.field, self.ambient)
            for i in range(k1):
                if not sol[i].is_zero:
                    v = vec_add(v, vec_scale(sol[i], self.basis[i]))
            vectors.append(v)
        return Subspace(self.field, self.ambient, vectors)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"
