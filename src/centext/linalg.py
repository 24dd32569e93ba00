"""Exact linear algebra over a Field: row reduction, kernels, subspaces.

Raw values inside, Scalar at the boundary.  ``rref``, ``kernel_basis``
and ``Subspace`` reduce in one routine, ``_echelon``, on sparse
rows ``{column: raw value}`` holding only nonzero entries, where a raw
value is a residue mod p over F_p and an int or Fraction over Q (see
``Scalar.raw``); ``rref_with_transform`` still eliminates on dense
Scalar rows.  The public functions read each vector they are given,
ints, Fractions, literal strings or Scalars, through
``Field._raw_row``, take matrices as lists or tuples of such vectors,
and return vectors as tuples of Scalar; ``kernel_basis`` and
``Subspace``, given the width, also read {column: value} dicts.  The
package's own sparse rows are not read: ``_kernel`` and
``Subspace._from_sparse`` take them as they are.
Pivots are leftmost and normalized to 1, so echelon forms are canonical
for a given row span.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimMismatch
from .fields import RATIONALS, Field, Scalar, _Frozen


def basis_vec(field: Field, m: int, k: int):
    """Standard basis vector with a 1 in position k (0-based)."""
    z, o = field.zero, field.one
    return tuple(o if i == k else z for i in range(m))


def mat_vec(rows, v):
    """rows @ v, read like ``rref``: in the field of the first Scalar
    entry, the rationals when there is none."""
    if rows and len(rows[0]) != len(v):
        raise DimMismatch(f"matrix width {len(rows[0])} vs vector length {len(v)}")
    field = _field_of([*rows, v])
    x = field._raw_row(v, len(v))
    return tuple(field.from_raw(_dot(row, x)) for row in _raw_rows(field, rows, len(v)))


def mat_mul(a, b):
    """a @ b, read like ``mat_vec``."""
    if a and len(a[0]) != len(b):
        raise DimMismatch(f"inner dimensions {len(a[0])} and {len(b)} differ")
    field = _field_of([*a, *b])
    width = len(b[0]) if b else 0
    b = _raw_rows(field, b, width)
    cols = [{k: r[j] for k, r in enumerate(b) if j in r} for j in range(width)]
    return tuple(
        tuple(field.from_raw(_dot(row, col)) for col in cols) for row in _raw_rows(field, a, len(b))
    )


def _dot(u: dict, v: dict):
    return sum(x * v[k] for k, x in u.items() if k in v)


def _field_of(rows):
    """The field of the first Scalar entry, the rationals when there is none."""
    return next((x.field for row in rows for x in row if isinstance(x, Scalar)), RATIONALS)


# ---------------------------------------------------------------------------
# the raw sparse reduction


def _inverse(x, p):
    if p:
        return pow(x, -1, p)
    inv = Fraction(1, x) if type(x) is int else 1 / x
    return inv.numerator if inv.denominator == 1 else inv


def _axpy(row: dict, f, other: dict, p) -> None:
    """row += f * other, in place, keeping only nonzero entries."""
    for k, v in other.items():
        x = row.get(k, 0) + f * v
        if p:
            x %= p
        if x:
            row[k] = x
        else:
            del row[k]


def _scale(row: dict, f, p) -> None:
    for k, v in row.items():
        row[k] = v * f % p if p else v * f


def _echelon(rows, p, opened=None):
    """Gauss-Jordan elimination of sparse raw rows; the rows are consumed.
    Returns (pivots, reduced): the pivot columns in ascending order and
    the reduced rows in pivot order, the canonical RREF of the row span.
    When ``opened`` is a list, the index of each input row that opened a
    pivot, i.e. is outside the span of the rows before it, is appended
    to it in input order."""
    by_pivot = {}
    for index, row in enumerate(rows):
        for c in [c for c in row if c in by_pivot]:
            _axpy(row, -row[c], by_pivot[c], p)
        if not row:
            continue
        lead = min(row)
        inv = _inverse(row[lead], p)
        if inv != 1:
            _scale(row, inv, p)
        for other in by_pivot.values():
            f = other.get(lead)
            if f:
                _axpy(other, -f, row, p)
        by_pivot[lead] = row
        if opened is not None:
            opened.append(index)
    pivots = sorted(by_pivot)
    return pivots, [by_pivot[c] for c in pivots]


def _raw_rows(field: Field, rows, ncols: int, sparse: bool = False):
    """Sparse raw copies of a caller's rows, each read by ``Field._raw_row``,
    which refuses a dict; with ``sparse``, for a function given ncols, a
    {column: value} dict is read as the vector of ncols entries it spells."""
    return [field._raw_row(_spelled(row, ncols) if sparse and isinstance(row, dict) else row, ncols)
            for row in rows]


def _spelled(row: dict, ncols: int) -> list:
    if any(type(c) is not int or not 0 <= c < ncols for c in row):
        raise DimMismatch(f"sparse row {row!r} has a column outside 0..{ncols - 1}")
    return [row.get(c, 0) for c in range(ncols)]


def _scalar_row(field: Field, row: dict, ncols: int):
    out = [field.zero] * ncols
    for c, v in row.items():
        out[c] = field.from_raw(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# Scalar wrappers


def rref(rows):
    """Reduced row echelon form of the given rows.

    Returns (reduced_rows, pivot_columns); zero rows are dropped, pivot
    entries are 1 and are the only nonzero entries in their columns.  The
    field is that of the first Scalar entry, the rationals when there is
    none; every row has the length of the first.
    """
    rows = list(rows)
    if not rows or not rows[0]:
        return [], []
    field = _field_of(rows)
    ncols = len(rows[0])
    pivots, reduced = _echelon(_raw_rows(field, rows, ncols), field.p)
    return [_scalar_row(field, row, ncols) for row in reduced], pivots


def rref_with_transform(rows, field: Field):
    """Row reduce and also return T with T @ rows == reduced (padded with
    zero rows). Used to solve many systems against the same matrix.
    Eliminates on dense Scalar rows augmented by the identity."""
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    work = [list(rows[i]) + list(basis_vec(field, m, i)) for i in range(m)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, m) if not work[i][c].is_zero), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = work[r][c].inv()
        if not inv.is_one:
            work[r] = [inv * x for x in work[r]]
        for i in range(m):
            if i != r and not work[i][c].is_zero:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        if len(pivots) == m:
            break
    reduced = [tuple(row[:ncols]) for row in work]
    transform = [tuple(row[ncols:]) for row in work]
    return reduced, transform, pivots, len(pivots)


def kernel_basis(rows, ncols: int, field: Field):
    """Canonical basis of the kernel of rows (vectors or {column: value} dicts)."""
    return [_scalar_row(field, v, ncols) for v in _kernel(_raw_rows(field, rows, ncols, True), ncols, field.p)]


def _kernel(rows, ncols: int, p):
    """``kernel_basis`` from and to sparse raw rows; the rows are consumed.
    The standard basis (one free variable set to 1 at a time, ascending)
    is computed from the RREF and then re-echelonized, so the result
    depends only on the solution space."""
    pivots, reduced = _echelon(rows, p)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = {f: 1}
        for c, row in zip(pivots, reduced):
            x = row.get(f)
            if x:
                v[c] = -x % p if p else -x
        basis.append(v)
    return _echelon(basis, p)[1]


class Subspace(_Frozen):
    """A linear subspace of F^m, stored by its canonical RREF basis as
    sparse raw rows {pivot column: row}, in ascending pivot order."""

    __slots__ = ("field", "ambient", "_pivot_rows")

    def __init__(self, field: Field, ambient: int, vectors=()):
        self._fill(field, ambient, dict(zip(*_echelon(_raw_rows(field, vectors, ambient, True), field.p))))

    @classmethod
    def _from_sparse(cls, field: Field, ambient: int, rows) -> "Subspace":
        """The span of the package's own sparse raw rows, consumed unread."""
        return cls._new(field, ambient, dict(zip(*_echelon(rows, field.p))))

    @property
    def basis(self):
        """The canonical RREF basis as Scalar vectors."""
        return tuple(_scalar_row(self.field, r, self.ambient) for r in self._pivot_rows.values())

    @property
    def dim(self) -> int:
        return len(self._pivot_rows)

    def contains(self, v) -> bool:
        residue = self.field._raw_row(v, self.ambient)
        for c in [c for c in residue if c in self._pivot_rows]:
            _axpy(residue, -residue[c], self._pivot_rows[c], self.field.p)
        return not residue

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"
