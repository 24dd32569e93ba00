"""Automorphisms of the null-filiform algebra and their action on
bilinear forms and cohomology classes.

An automorphism is determined by the image of e_1: if phi(e_1) has
coordinates (a_1, ..., a_n) with a_1 != 0, then phi(e_j) = phi(e_1)^j,
so column j of the matrix is the j-fold convolution of column 1 with
itself, truncated to n entries. The action on a form is
(phi . theta)(x, y) = theta(phi(x), phi(y)), i.e. M^T C M on matrices.

One kernel on raw values (residues mod p over F_p, ints or Fractions
over Q; see ``Scalar.raw``) does this work: the lower-triangular matrix
from a first column, M^T C M on a form given by its sparse raw view
{i*n + j: c} (``BilinearForm._sparse``), and the class coordinates of
the image from ``CohomologySpace._reduce_raw``, which walks only the
image's nonzero entries, each through its sparse column of the reduction
map.  For each automorphism the nonzero entries of each row of M are
listed once (``_nonzero``), and M^T C M walks only those lists, for
every form it acts on.  A first column and the vector given to
``Automorphism.apply`` are read by ``Field._raw_row``;
``Automorphism.matrix``, ``apply``, ``act_on_cocycle`` and
``class_action_matrix`` convert the kernel's results to Scalars;
``orbits.ClassAction.matrices`` uses it directly.
The image of one class is ``h.reduce_class(act_on_cocycle(phi,
h.rep_from_coords(coords)))``.
"""

from __future__ import annotations

from .cohomology import CohomologySpace
from .errors import DimMismatch, FieldMismatch, InvalidDim, NotInvertible
from .fields import Field
from .forms import BilinearForm
from .linalg import _scalar_row


def _lower_triangular(col, p):
    """Rows of the automorphism matrix whose first column is col (raw
    values).  Each further column is the previous one, u, convolved with
    col: w_i = sum over a+b=i of u_a col_b (1-based), truncated to n
    entries and reduced mod p when p is set."""
    n = len(col)
    cols = [col]
    for _ in range(1, n):
        u = cols[-1]
        w = [0] * n
        for i in range(1, n):
            acc = sum(u[a] * col[i - 1 - a] for a in range(i))
            w[i] = acc % p if p else acc
        cols.append(w)
    return tuple(zip(*cols))


def _nonzero(m):
    """Each row of the raw matrix m as the list of its nonzero (column,
    value) pairs: built once per matrix, walked by ``_act_raw`` for every
    form."""
    return [[(a, x) for a, x in enumerate(row) if x] for row in m]


def _act_raw(rows, entries, p) -> dict:
    """M^T C M for the raw matrix M given by its nonzero entries
    (``_nonzero``) and the form C given by its raw view {i*n + j: c}, as
    sparse {a*n + b: raw value}: entry (a, b) is the sum of
    M[i][a] c M[j][b]."""
    n = len(rows)
    out = {}
    for k, c in entries.items():
        i, j = divmod(k, n)
        row_j = rows[j]
        for a, x in rows[i]:
            xc, base = x * c, a * n
            for b, y in row_j:
                k = base + b
                out[k] = out.get(k, 0) + xc * y
    if p:
        return {k: v % p for k, v in out.items() if v % p}
    return {k: v for k, v in out.items() if v}


def _class_matrix(h: CohomologySpace, m, reps):
    """Raw class-action matrix (rows) of the automorphism with raw matrix
    m: column k holds the class coordinates of m acting on the k-th
    representative, given by its raw view."""
    p, rows = h.algebra.field.p, _nonzero(m)
    cols = [h._reduce_raw(_act_raw(rows, rep, p)) for rep in reps]
    return tuple(zip(*cols))


class Automorphism:
    """An automorphism of the n-dimensional null-filiform algebra,
    stored as its first column and the raw (lower triangular) matrix
    with entries phi_{i+1, j+1}; ``matrix`` is built from it on every
    read."""

    __slots__ = ("field", "n", "first_col", "_raw")

    def __init__(self, field: Field, first_col):
        n = len(first_col)
        if n < 1:
            raise DimMismatch("empty column")
        col = field._raw_row(first_col, n)
        if 0 not in col:
            raise NotInvertible("phi_{1,1} must be nonzero")
        raw = _lower_triangular(tuple(col.get(k, 0) for k in range(n)), field.p)
        for name, value in zip(self.__slots__, (field, n, _scalar_row(field, col, n), raw)):
            object.__setattr__(self, name, value)

    @property
    def matrix(self):
        """matrix[i][j] = phi_{i+1, j+1} as scalars."""
        return tuple(tuple(map(self.field.from_raw, row)) for row in self._raw)

    def __setattr__(self, name, value):
        raise AttributeError("Automorphism is immutable")

    @property
    def phi11(self):
        return self.first_col[0]

    def apply(self, x):
        """Image of a coordinate vector."""
        x = self.field._raw_row(x, self.n)
        return tuple(self.field.from_raw(sum(row[k] * v for k, v in x.items())) for row in self._raw)

    def __eq__(self, o):
        return (
            isinstance(o, Automorphism)
            and o.field == self.field
            and o.first_col == self.first_col
        )

    def __hash__(self):
        return hash((self.field, self.first_col))

    def __repr__(self):
        col = ",".join(x.literal() for x in self.first_col)
        return f"Automorphism(n={self.n}, col=[{col}])"


def automorphism_from_column(n: int, field: Field, col) -> Automorphism:
    if len(col) != n:
        raise DimMismatch(f"column length {len(col)} != {n}")
    return Automorphism(field, col)


def automorphism_count(n: int, field: Field) -> int:
    """The order of Aut(mu0:n) over F_p: one automorphism per first column
    with a nonzero leading entry."""
    if n < 1:
        raise InvalidDim(f"dimension {n} must be >= 1")
    if not field.is_finite:
        raise FieldMismatch("the automorphism group is finite only over finite fields")
    return (field.p - 1) * field.p ** (n - 1)


def act_on_cocycle(phi: Automorphism, theta: BilinearForm) -> BilinearForm:
    """(phi . theta)(x, y) = theta(phi x, phi y), i.e. M^T C M."""
    if theta.n != phi.n or theta.field != phi.field:
        raise DimMismatch("form and automorphism sizes differ")
    image = _act_raw(_nonzero(phi._raw), theta._sparse, phi.field.p)
    return BilinearForm._from_sparse(phi.field, phi.n, image)


def class_action_matrix(h: CohomologySpace, phi: Automorphism):
    """Matrix of the (linear) action on class coordinates: column k is
    the reduced class of phi acting on the k-th representative."""
    if phi.n != h.algebra.dim or phi.field != h.algebra.field:
        raise DimMismatch("automorphism does not match the cohomology space")
    raw = _class_matrix(h, phi._raw, [rep._sparse for rep in h.h_reps])
    return tuple(tuple(phi.field.from_raw(x) for x in row) for row in raw)
