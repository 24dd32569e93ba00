"""Bilinear forms on F^n with values in F, plus the named forms used
throughout: delta(i, j) is the form picking out the (e_i, e_j) pair, and
nabla(j) = sum of delta(k, j+1-k) for k = 1..j.

Indices in the public constructors and ``entry`` are 1-based, matching the
basis labels e_1..e_n; an index outside 1..n raises IndexOutOfRange.

Raw values inside, Scalar at the boundary: a form stores only the raw view
``_sparse`` of its nonzero entries, {i*n + j: raw value} in row-major order
(see ``Scalar.raw``), which inner loops read, never change; its Scalar
views are built from it when read.  The rows, vectors and arguments of
``evaluate`` that a caller hands in are read by ``Field._raw_row``."""

from __future__ import annotations

from .budget import check_budget
from .errors import DimMismatch, FieldMismatch, IndexOutOfRange, InvalidDim
from .fields import Field, Scalar, _Frozen, json_entries, json_value
from .linalg import _scalar_row


class BilinearForm(_Frozen):
    """An n-by-n matrix of scalars, acting as theta(x, y) = x^T C y."""

    __slots__ = ("field", "n", "_sparse")

    def __init__(self, field: Field, rows):
        n = len(rows)
        if n < 1:
            raise InvalidDim(f"dimension {n} must be >= 1")
        sparse = {i * n + j: x for i, row in enumerate(rows) for j, x in field._raw_row(row, n).items()}
        self._fill(field, n, sparse)

    @classmethod
    def _from_sparse(cls, field: Field, n: int, entries: dict) -> "BilinearForm":
        """The n-by-n form with the entries {i*n + j: raw value}, any
        representatives, kept as ``Scalar.raw`` keeps them; zeros drop out."""
        if n < 1:
            raise InvalidDim(f"dimension {n} must be >= 1")
        p, sparse = field.p, {}
        for k in sorted(entries):
            x = entries[k] % p if p else entries[k]
            if x:
                sparse[k] = x.numerator if x.denominator == 1 else x
        return cls._new(field, n, sparse)

    @classmethod
    def zero(cls, field: Field, n: int) -> "BilinearForm":
        return cls._from_sparse(field, n, {})

    @classmethod
    def from_vector(cls, field: Field, n: int, vec) -> "BilinearForm":
        """Rebuild from a row-major vector of length n*n."""
        if n < 1:
            raise InvalidDim(f"dimension {n} must be >= 1")
        return cls._from_sparse(field, n, field._raw_row(vec, n * n))

    def as_vector(self):
        """Row-major flattening; entry (i, j) sits at position i*n + j.
        This fixes the variable order c_11, c_12, ..., c_nn used by all
        echelon computations."""
        return _scalar_row(self.field, self._sparse, self.n * self.n)

    def entry(self, i: int, j: int) -> Scalar:
        """Entry at 1-based indices (i, j)."""
        n = self.n
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"entry ({i},{j}) outside 1..{n}")
        return self.field.from_raw(self._sparse.get((i - 1) * n + j - 1, 0))

    def evaluate(self, x, y) -> Scalar:
        n, field = self.n, self.field
        x, y = field._raw_row(x, n), field._raw_row(y, n)
        return field.from_raw(sum(x.get(k // n, 0) * y.get(k % n, 0) * v for k, v in self._sparse.items()))

    def __add__(self, other):
        if not isinstance(other, BilinearForm):
            return NotImplemented
        if other.field != self.field:
            raise FieldMismatch("cannot add forms over different fields")
        if other.n != self.n:
            raise DimMismatch("cannot add forms of different size")
        entries = dict(self._sparse)
        for k, v in other._sparse.items():
            entries[k] = entries.get(k, 0) + v
        return BilinearForm._from_sparse(self.field, self.n, entries)

    def __sub__(self, other):
        if not isinstance(other, BilinearForm):
            return NotImplemented
        return self + (-1) * other

    def __rmul__(self, c):
        c = self.field._raw(c)
        return BilinearForm._from_sparse(self.field, self.n, {k: c * v for k, v in self._sparse.items()})

    def __neg__(self):
        return (-1) * self

    def to_json(self) -> dict:
        return {
            "dim": self.n,
            "field": self.field.spec(),
            "matrix": [x.literal() for x in self.as_vector()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BilinearForm":
        """Read a cocycle file: {"n", "field", "entries": [{"i", "j", "c"}]}
        with 1-based indices and absent entries zero, or the
        {"dim", "field", "matrix"} document that to_json writes.  An n*n
        over the enumeration budget is refused before anything is built."""
        field = Field.from_spec(json_value(data, "field", str))
        n = json_value(data, "n" if "entries" in data else "dim", int)
        if n < 1:
            raise InvalidDim(f"dimension {n} must be >= 1")
        check_budget(n * n, "form entries")
        if "entries" not in data:
            return cls.from_vector(field, n, json_value(data, "matrix", list))
        entries = json_entries(field, data, "entries", ("i", "j"), n)
        return cls._from_sparse(field, n, {i * n + j: c for (i, j), c in entries.items()})

    def __repr__(self):
        n = self.n
        body = ", ".join(f"({k // n + 1},{k % n + 1})={v}" for k, v in self._sparse.items())
        return f"BilinearForm[{n}; {body or 0}]"


def delta(i: int, j: int, n: int, field: Field) -> BilinearForm:
    """The form with a single 1 in entry (i, j), 1-based."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"delta({i},{j}) does not fit in size {n}")
    return BilinearForm._from_sparse(field, n, {(i - 1) * n + j - 1: 1})


def nabla(j: int, n: int, field: Field) -> BilinearForm:
    """Sum of delta(k, j+1-k) over k = 1..j: ones along the j-th antidiagonal."""
    if not (1 <= j <= n):
        raise IndexOutOfRange(f"nabla({j}) does not fit in size {n}")
    return BilinearForm._from_sparse(field, n, {(k - 1) * n + j - k: 1 for k in range(1, j + 1)})


def _tabulated_deltas(variety_name: str, n: int):
    """The indices i of the delta(i, 1) after nabla_n in the tabulated H^2
    basis of mu0:n: 2..n for left-commutative, 2 for bicommutative (none
    below n = 2), None for a variety with no tabulated classes."""
    top = {"left_commutative": n, "bicommutative": min(n, 2)}.get(variety_name)
    return None if top is None else range(2, top + 1)


def _tabulated_class(n: int, field: Field, with_nabla: bool, i: int, mu):
    """The form nabla_n + mu*delta(i, 1), or mu*delta(i, 1) without
    nabla_n, and its label: ``zero``, ``delta<i>_1``, ``nabla<n>``,
    ``nabla<n>+delta<i>_1``, ``nabla<n>-delta<i>_1`` or
    ``nabla<n>+<mu>*delta<i>_1``.  The index i is not read when mu is 0."""
    mu = field.scalar(mu)
    if mu.is_zero and with_nabla:
        return nabla(n, n, field), f"nabla{n}"
    if mu.is_zero:
        return BilinearForm.zero(field, n), "zero"
    lit = mu.literal()
    sign, lit = ("-", lit[1:]) if lit.startswith("-") else ("+", lit)
    term = f"{sign}{'' if lit == '1' else lit + '*'}delta{i}_1"
    form = delta(i, 1, n, field) if mu.is_one else mu * delta(i, 1, n, field)
    if not with_nabla:
        return form, term.removeprefix("+")
    return nabla(n, n, field) + form, f"nabla{n}{term}"
