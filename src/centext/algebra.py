"""Finite-dimensional nonassociative algebras given by structure constants.

An Algebra holds the product table e_i * e_j (0-based indices internally;
JSON, printed labels and ``basis_vector`` are 1-based). The n-dimensional
null-filiform algebra has e_i * e_j = e_{i+j} when i + j <= n and 0
otherwise; that zero convention is baked into the constructor only, not
into any later computation.

Raw values inside, Scalar at the boundary: each algebra keeps a sparse
table of (k, raw value) pairs (see ``Scalar.raw``), which products,
identity evaluation, cocycle equations, annihilators, ``to_json`` and
``opposite`` read.  ``Algebra.__init__`` and ``Algebra.multiply`` read the
vectors they are given through ``Field._raw_row``, and ``multiply``
returns Scalars.  The Scalar ``table`` is a view built from the sparse
table on every read, so an Algebra holds no mutable state.

Identities are evaluated on basis tuples by one walk (``_walk``): each
multilinear identity is read once as its distinct positional subtrees,
and on each tuple every distinct subtree is multiplied once, however
many monomials share it.  Each tuple yields its value row once
(``_value``); variety membership, cocycle equations and cocycle checks
all read that row.

Membership and cocycle checks skip the tuples whose value is zero by
the table's grading (``_weights``): integer weights w with w[k] >= w[i]
+ w[j] whenever e_k occurs in e_i * e_j, so that a product of basis
vectors lies in the span of the e_k of weight at least the sum of
theirs (mu0:n has weights 1..n).  Membership walks only the tuples
whose weight sum is at most max(w), and a cocycle check only those
whose sum is at most the largest w[i] + w[j] over the form's nonzero
entries; every other tuple's value is zero, so no verdict and no named
equation depends on the skip.  The H² equations walk every tuple.
"""

from __future__ import annotations

import itertools

from .budget import check_budget
from .errors import DimMismatch, IndexOutOfRange, InvalidDim
from .fields import Field, json_entries, json_value
from .identities import VarietySpec, builtin_variety, evaluate_tree
from .linalg import Subspace, _echelon, _kernel, _scalar_row, basis_vec


class Algebra:
    __slots__ = ("field", "dim", "_sparse")

    def __init__(self, field: Field, table):
        dim = len(table)
        if dim == 0:
            raise InvalidDim("algebra must have dimension >= 1")
        if any(len(row) != dim for row in table):
            raise DimMismatch("structure constant table must be dim x dim x dim")
        sparse = tuple(tuple(tuple(field._raw_row(vec, dim).items()) for vec in row) for row in table)
        self._set(field, sparse)

    def _set(self, field, sparse):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", len(sparse))
        object.__setattr__(self, "_sparse", sparse)

    @classmethod
    def _from_sparse(cls, field: Field, sparse) -> "Algebra":
        """The algebra of a sparse raw table, given as the private table
        is kept: sparse[i][j] lists the (k, raw value) pairs of e_i * e_j
        with nonzero values in ascending k."""
        a = object.__new__(cls)
        a._set(field, sparse)
        return a

    @property
    def table(self):
        """table[i][j] = e_i * e_j as a tuple of scalars, 0-based, built
        from the sparse table on every read."""
        field, n = self.field, self.dim
        return tuple(tuple(_scalar_row(field, dict(v), n) for v in row) for row in self._sparse)

    def __setattr__(self, name, value):
        raise AttributeError("Algebra is immutable")

    def basis_vector(self, i: int):
        """Basis vector e_i, 1-based; IndexOutOfRange outside 1..dim."""
        if not (1 <= i <= self.dim):
            raise IndexOutOfRange(f"basis vector e_{i} outside 1..{self.dim}")
        return basis_vec(self.field, self.dim, i - 1)

    def multiply(self, x, y):
        u, w = (tuple(self.field._raw_row(v, self.dim).items()) for v in (x, y))
        return _scalar_row(self.field, dict(self._product(u, w)), self.dim)

    def _product(self, u, w):
        """Product of sparse raw vectors, tuples of (index, nonzero raw
        value) pairs; the zero vector is the empty tuple."""
        table, p = self._sparse, self.field.p
        if len(u) == 1 and len(w) == 1 and u[0][1] * w[0][1] == 1:
            return table[u[0][0]][w[0][0]]
        acc = {}
        for i, x in u:
            row = table[i]
            for j, y in w:
                xy = x * y
                for k, c in row[j]:
                    acc[k] = acc.get(k, 0) + xy * c
        if p:
            return tuple((k, v % p) for k, v in acc.items() if v % p)
        return tuple((k, v) for k, v in acc.items() if v)

    def _annihilator_rows(self) -> list:
        """The equations (x * e_j)_k = 0 and (e_j * x)_k = 0 on the
        coordinates of x, as sparse raw rows {i: coefficient of x_i}."""
        rows = {}
        for i, row in enumerate(self._sparse):
            for j, vec in enumerate(row):
                for k, c in vec:
                    rows.setdefault((0, j, k), {})[i] = c  # e_i e_j in x * e_j
                    rows.setdefault((1, i, k), {})[j] = c  # e_i e_j in e_i * x
        return list(rows.values())

    def annihilator(self) -> Subspace:
        """Elements x with x*A = 0 and A*x = 0."""
        kernel = _kernel(self._annihilator_rows(), self.dim, self.field.p)
        return Subspace._from_sparse(self.field, self.dim, kernel)

    def _annihilator_dim(self) -> int:
        """``annihilator().dim``: the dimension less the rank of the
        annihilator equations, from one elimination."""
        return self.dim - len(_echelon(self._annihilator_rows(), self.field.p)[0])

    def power_dims(self):
        """Dimensions of the descending power series A, A^2, A^3, ...
        where A^k = sum over i+j=k of A^i * A^j; the sequence is reported
        up to (and including) its first repeated value."""
        full = Subspace._from_sparse(self.field, self.dim, [{i: 1} for i in range(self.dim)])
        powers = [full]
        dims = [full.dim]
        while True:
            k = len(powers) + 1
            vectors = [  # products of the sparse basis rows of A^a and A^(k-a)
                dict(self._product(tuple(u.items()), tuple(v.items())))
                for a in range(1, k)
                for u in powers[a - 1]._pivot_rows.values()
                for v in powers[k - a - 1]._pivot_rows.values()
            ]
            nxt = Subspace._from_sparse(self.field, self.dim, vectors)
            if nxt.dim == dims[-1]:
                break
            powers.append(nxt)
            dims.append(nxt.dim)
            if nxt.dim == 0:
                break
        return tuple(dims)

    def is_null_filiform(self) -> bool:
        n = self.dim
        return self.power_dims() == tuple(range(n, -1, -1))

    def opposite(self) -> "Algebra":
        return Algebra._from_sparse(self.field, tuple(zip(*self._sparse)))

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self._sparse == other._sparse
        )

    def __hash__(self):
        return hash((self.field, self._sparse))

    def to_json(self) -> dict:
        products = []
        for i, row in enumerate(self._sparse):
            for j, vec in enumerate(row):
                if vec:
                    out = [{"k": k + 1, "c": self.field.from_raw(c).literal()} for k, c in vec]
                    products.append({"i": i + 1, "j": j + 1, "out": out})
        return {"dim": self.dim, "field": self.field.spec(), "products": products}

    @classmethod
    def from_json(cls, data: dict) -> "Algebra":
        field = Field.from_spec(json_value(data, "field", str))
        n = json_value(data, "dim", int)
        _check_size(n)

        def out(entry):  # the nonzero terms of one product, ascending k
            return tuple((k, c) for (k,), c in sorted(json_entries(field, entry, "out", ("k",), n).items()) if c)

        products = json_entries(field, data, "products", ("i", "j"), n, out) if "products" in data else {}
        sparse = tuple(tuple(products.get((i, j), ()) for j in range(n)) for i in range(n))
        return cls._from_sparse(field, sparse)

    def __repr__(self):
        return f"Algebra(dim={self.dim}, field={self.field.spec()})"


def _check_size(n: int) -> None:
    """Refuse a dimension below 1, or an n^3 structure-constant table
    over the enumeration budget, before anything is allocated."""
    if n < 1:
        raise InvalidDim(f"dimension {n} must be >= 1")
    check_budget(n**3, "structure constants")


def null_filiform(n: int, field: Field) -> Algebra:
    """The n-dimensional null-filiform associative algebra:
    e_i * e_j = e_{i+j} for i + j <= n, and 0 otherwise."""
    _check_size(n)
    sparse = tuple(
        tuple(((i + j + 1, 1),) if i + j + 2 <= n else () for j in range(n))
        for i in range(n)
    )
    return Algebra._from_sparse(field, sparse)


def is_standard_null_filiform(a: Algebra) -> bool:
    """Structural check: the table equals the null-filiform table verbatim."""
    return a == null_filiform(a.dim, a.field)


def build_extension(a: Algebra, thetas) -> Algebra:
    """The central extension of A by the forms, no cocycle checking, as a
    sparse raw table: e_i * e_j of A followed by the nonzero theta_t(e_i,
    e_j) at f_t, and zero products for every f_t.  So its annihilator
    equations are those of A and of every form, on e_1..e_n alone."""
    n, s = a.dim, len(thetas)
    if any(theta.n != n or theta.field != a.field for theta in thetas):
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


def _identity_terms(a: Algebra, variety: VarietySpec):
    """The H² equations' walk: ``_walk`` over every tuple of basis
    indices, in lexicographic order, as (identity, tuple, value row)
    triples."""
    return _walk(a, variety, lambda ident: itertools.product(range(a.dim), repeat=len(ident.variables)))


def _walk(a: Algebra, variety: VarietySpec, tuples):
    """The one walk behind variety membership, cocycle equations and
    cocycle checks: (identity, tuple, value) for every multilinear
    identity and every tuple of ``tuples(identity)``, 0-based basis
    indices bound to its variables in order.  The cocycle equations walk
    every tuple (``_identity_terms``); a cocycle check and membership
    walk the block-sorted ones within a weight cap (``_sorted_tuples``,
    ``check_cocycle``), and membership only over the basis vectors with
    a nonzero row or column (``satisfies_variety``).  The value is the
    tuple's value row (``_value``), lazy: a consumer that passes over a
    tuple pays nothing for it.  A subtree shared by several monomials
    (``IdentitySchema.subtrees``) is multiplied once per tuple.
    Raises CharTooSmall when the multilinear identities do not replace
    the originals, and BudgetExceeded when all N^k tuples are over the
    enumeration budget, however few ``tuples`` yields."""
    variety.char_gate(a.field)
    n, p = a.dim, a.field.p
    idents = variety.multilinear_identities
    check_budget(sum(n ** len(ident.variables) for ident in idents), "identity tuples")
    basis = [((i, 1),) for i in range(n)]
    mul = a._product
    for ident in idents:
        pairs, roots = ident.subtrees
        for combo in tuples(ident):
            yield ident, combo, _value(pairs, roots, combo, basis, mul, n, p)


def _value(pairs, roots, combo, basis, mul, n, p):
    """The value row of one tuple of ``_walk``: the nonzero (i*n + j, r)
    pairs of the sum of coeff * u (x) w over the monomials coeff * u*w,
    reduced mod p, in first-seen order.  It is the cocycle equation on
    the entries c_ij, and sum r * e_i e_j is the identity's value in the
    algebra.  The tuple's basis vectors fill the variable slots and
    ``evaluate_tree`` each subtree slot."""
    env = [basis[i] for i in combo]
    for pair in pairs:
        env.append(evaluate_tree(pair, env, mul))
    acc = {}
    for coeff, left, right in roots:
        w = env[right]
        for i, x in env[left]:
            cx, base = coeff * x, i * n
            for j, y in w:
                acc[base + j] = acc.get(base + j, 0) + cx * y
    for k, v in acc.items():
        if r := v % p if p else v:
            yield k, r


def _multiplied(a: Algebra, pairs) -> dict:
    """The element sum of r * e_i e_j of the algebra for the (i*n + j, r)
    pairs of a value row, as a sparse raw vector {k: nonzero value}."""
    n, p, table = a.dim, a.field.p, a._sparse
    acc = {}
    for pos, r in pairs:
        for k, c in table[pos // n][pos % n]:
            acc[k] = acc.get(k, 0) + r * c
    return {k: x for k, v in acc.items() if (x := v % p if p else v)}


def _weights(a: Algebra):
    """The least weights w[k] >= 1 of the basis vectors with w[k] >= w[i]
    + w[j] whenever e_k occurs in e_i * e_j, or None when there are none:
    when the support graph (i -> k and j -> k) has a cycle.  By induction
    over a product tree, a product of basis vectors lies in the span of
    the e_k whose weight is at least the sum of theirs.  One topological
    pass over the sparse table: e_k is weighed once every product it
    occurs in has both factors weighed.  mu0:n has weights 1..n."""
    n = a.dim
    into = [[] for _ in range(n)]  # into[k]: the (i, j) with e_k in e_i * e_j
    feeds = [[] for _ in range(n)]  # feeds[i]: k once per factor e_i of such a product
    for i, row in enumerate(a._sparse):
        for j, vec in enumerate(row):
            for k, _ in vec:
                into[k].append((i, j))
                feeds[i].append(k)
                feeds[j].append(k)
    waiting = [2 * len(pairs) for pairs in into]
    w = [1] * n
    done = [k for k in range(n) if not waiting[k]]
    for i in done:  # grows as the vectors it feeds are weighed
        for k in feeds[i]:
            waiting[k] -= 1
            if not waiting[k]:
                w[k] = max(w[x] + w[y] for x, y in into[k])
                done.append(k)
    return w if len(done) == n else None


def _sorted_tuples(ident, indices, weights=None, cap=None):
    """The tuples over the ascending ``indices`` sorted within every
    ``symmetry_blocks`` block of the identity, in lexicographic order,
    built position by position: blocks list variables in ``variables``
    order, so the block-mate that bounds a position comes before it.
    Given a cap, only the tuples whose sum of ``weights`` is at most the
    cap: a prefix is dropped once its weight, plus the least weight of
    the indices for each position still open, is over the cap.  With no
    cap, every such tuple."""
    indices = list(indices)
    rank = {x: k for k, x in enumerate(indices)}
    at = ident.variables.index
    mate = {at(v): at(u) for block in ident.symmetry_blocks for u, v in zip(block, block[1:])}
    if cap is None:
        weights, cap = dict.fromkeys(indices, 0), 0
    least = min((weights[x] for x in indices), default=0)
    d = len(ident.variables)
    tuples = [((), 0)]
    for k in range(d):
        m, room = mate.get(k), cap - (d - 1 - k) * least
        tuples = [
            (t + (x,), s + weights[x])
            for t, s in tuples
            for x in (indices[rank[t[m]]:] if m is not None else indices)
            if s + weights[x] <= room
        ]
    for t, _ in tuples:
        yield t


def satisfies_variety(a: Algebra, variety: VarietySpec | str) -> bool:
    """Whether the algebra satisfies all identities of the variety,
    checked via the multilinearized identities on the basis tuples: one
    ``_walk`` per call, up to the first nonzero value.  Raises
    CharTooSmall when that replacement is not valid, and BudgetExceeded
    when the tuples are over the enumeration budget; ``_walk`` checks both
    on every call, and the budget counts all N^k tuples.

    Only the tuples that can decide the answer are walked: those of
    ``_sorted_tuples`` over the basis vectors with a nonzero row or
    column in the table, found once per call, whose weight sum
    (``_weights``) is at most the largest weight.  A tuple binding any
    other basis vector vanishes, since every variable of a multilinear
    identity is a factor of a product in every monomial; so does a tuple
    of larger weight, since every monomial is a product of all its basis
    vectors and no e_k weighs that much; an unsorted tuple's value is
    plus or minus that of its sorted tuple, since sorting a symmetry
    block maps the identity to plus or minus itself.  Tuples with equal
    indices in a block are kept, so an antisymmetric identity is still
    checked on them in characteristic 2.  A table with no weights walks
    every sorted tuple over those basis vectors."""
    variety = builtin_variety(variety)
    table = a._sparse
    live = [i for i, row in enumerate(table) if any(row) or any(r[i] for r in table)]
    w = _weights(a)
    cap = None if w is None else max(w)
    walk = _walk(a, variety, lambda ident: _sorted_tuples(ident, live, w, cap))
    return not any(_multiplied(a, value) for _, _, value in walk)
