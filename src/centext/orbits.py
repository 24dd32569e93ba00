"""Orbits of cohomology classes under the automorphism group of the
null-filiform algebra, over finite prime fields.

The automorphism group is enumerated exactly (one first column with
nonzero leading entry per automorphism).  The automorphism matrix is
built once for the p columns that differ only in their last entry, which
sets only row n, column 1; the induced linear action on class coordinates
is computed on raw residues for each automorphism, from the nonzero
entries of its matrix listed once and applied to each H^2
representative, and only the distinct matrices are kept.  They are the
image of Aut(mu0:n) in GL(H^2), usually far smaller than the group (294
matrices for the 2058 automorphisms of n = 4 over F_7 in the
left-commutative variety).  As the image is a group, the orbit of an
element is the set of its images under these matrices
(``ClassAction.images``, which ``orbit_of_class`` reads too); two classes
share an orbit when one's point lies in the other's ``orbit_of_class``.
One routine, ``_orbit_report``, partitions either the full point set
(all of H^2) or the Grassmannian lines whose cocycle annihilator meets
the algebra annihilator trivially (the T_1 condition), and labels the
orbits with the tabulated classes of that level.
As Ann(mu0:n) = <e_n>, a line is in T_1 exactly when one of the linear
forms c -> theta_c(e_n, e_j), c -> theta_c(e_j, e_n) is nonzero on its
coordinates, so T_1 membership is tested without building the cocycle.

Representatives over algebraically closed fields of characteristic zero
are tabulated for the left-commutative and bicommutative varieties; over
a finite field they are matched against the computed orbits, and orbits
that no tabulated representative hits are reported as extra
(field-dependent).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field as dataclass_field

from .algebra import Algebra, _check_size, null_filiform, satisfies_variety
from .automorphisms import _class_matrix, _lower_triangular, automorphism_count
from .budget import budget_scope, check_budget, resolve_budget
from .cohomology import CohomologySpace, second_cohomology
from .errors import (
    FieldMismatch,
    InvalidDim,
    InvariantError,
    MalformedInput,
    TableMismatch,
    UnsupportedVariety,
)
from .extensions import central_extension
from .fields import Field, Scalar
from .forms import BilinearForm, _tabulated_class, _tabulated_deltas
from .identities import builtin_variety


def _first_columns(n: int, p: int):
    """The admissible first columns over F_p as residue tuples, in
    lexicographic order."""
    for head in range(1, p):
        for tail in itertools.product(range(p), repeat=n - 1):
            yield (head, *tail)


def _automorphism_matrices(n: int, p: int):
    """``_lower_triangular(col, p)`` for each col of ``_first_columns(n, p)``,
    in that order.  The last entry a_n of phi(e_1) = sum a_k e_k enters
    phi(e_1)^j, j >= 2, only at degree n + j - 1 > n, so it is the one
    entry of row n, column 1, and the p columns that differ only in a_n
    share one convolution."""
    prefix = None
    for col in _first_columns(n, p):
        if col[:-1] != prefix:
            prefix = col[:-1]
            *head, last = _lower_triangular(prefix + (0,), p)
        yield (*head, (col[-1], *last[1:]))


# ---------------------------------------------------------------------------
# roots-of-unity subgroups and their cosets

@dataclass(frozen=True)
class RootSubgroup:
    """R(i, n): the (i+1)-st powers of the (n+1)-st roots of unity,
    a subgroup of the multiplicative group."""

    i: int
    n: int
    field: Field
    elements: tuple

    def contains(self, x: Scalar) -> bool:
        return x in self.elements

    @property
    def order(self) -> int:
        return len(self.elements)


def _coset_firsts(p: int, d: int) -> list:
    """The least residue of each coset of H_d, the order-d subgroup of the cyclic
    F_p*, ascending: x and y share a coset exactly when x^d = y^d."""
    firsts = {}
    for x in range(1, p):
        firsts.setdefault(pow(x, d, p), x)
    return list(firsts.values())


def roots_of_unity_subgroup(i: int, n: int, field: Field) -> RootSubgroup:
    """R(i, n), elements ascending.  Over F_p the (n+1)-st roots of unity are H_g,
    g = gcd(n + 1, p - 1), so R(i, n) is H_d with d = g / gcd(i + 1, g)."""
    if i < 0 or n < 1:
        raise InvalidDim(f"bad parameters i={i}, n={n}")
    if not field.is_finite:  # the rational roots of unity are 1 and -1
        roots = [x for x in (field.one, -field.one) if (x ** (n + 1)).is_one]
        return RootSubgroup(i, n, field, tuple(sorted({x ** (i + 1) for x in roots})))
    check_budget(field.p - 1, "nonzero field elements")
    d = math.gcd(n + 1, field.p - 1) // math.gcd(i + 1, n + 1, field.p - 1)
    elements = tuple(field.scalar(x) for x in range(1, field.p) if pow(x, d, field.p) == 1)
    return RootSubgroup(i, n, field, elements)


def coset_representatives(subgroup: RootSubgroup):
    """Deterministic representatives of F* / R(i, n), smallest residue first."""
    field = subgroup.field
    if not field.is_finite:
        raise FieldMismatch("coset enumeration needs a finite field")
    check_budget(field.p - 1, "nonzero field elements")
    return [field.scalar(x) for x in _coset_firsts(field.p, subgroup.order)]


# ---------------------------------------------------------------------------
# tabulated representatives

@dataclass(frozen=True)
class NamedClass:
    """A tabulated class nabla_n + mu*delta(i, 1) (mu*delta(i, 1) when
    nabla is false): its label and form come from the parameters
    through ``forms._tabulated_class``."""

    label: str
    form: BilinearForm
    nabla: bool
    i: int
    mu: Scalar
    t1: bool                       # lies in the T_1 Grassmannian
    ann_dim: int | None            # annihilator dim of the 1-dim extension


def _families(variety, n: int, field: Field, level: str, mu_sample):
    """The tabulated families as parameter tuples (nabla, i, mu values,
    ann_dim), checked as ``closed_field_representatives`` states, before
    any form is built: one formula over the indices D of
    ``forms._tabulated_deltas``, where nabla_n + mu*delta(max D, 1) takes
    every mu when max D = n and mu = 0 alone otherwise.  At level T1,
    ann_dim 2 marks the classes outside T_1 whose extensions are still
    non-split; at level H2 it is not tabulated."""
    vname = builtin_variety(variety).name
    deltas = _tabulated_deltas(vname, n)
    if deltas is None:
        raise UnsupportedVariety(f"no tabulated representatives for {vname!r}")
    if not deltas:
        raise InvalidDim("representatives are tabulated for n >= 2")
    _check_size(n)
    if level not in ("H2", "T1"):
        raise MalformedInput(f"level must be 'H2' or 'T1', not {level!r}")
    # the one-parameter family takes every element of F_p, or a sample over Q
    if mu_sample is None:
        mu_sample = range(field.p) if field.is_finite else (0, 1, -1, 2)
    check_budget(len(mu_sample), "values of the mu family")
    mus = list(dict.fromkeys(field.scalar(m) for m in mu_sample))  # distinct, first seen
    top, inner = deltas[-1], [i for i in deltas if i < n]
    top_mus = mus if top == n else [field.zero]
    if level == "H2":
        # mubar takes the representatives of F* / R(i, n) over F_p, the
        # nonzero sample values over Q
        return [
            (False, n, [field.zero], None),
            *[(False, i, [field.one], None) for i in deltas],
            (True, top, top_mus, None),
            *[
                (True, i, coset_representatives(roots_of_unity_subgroup(i, n, field))
                 if field.is_finite else [m for m in mus if not m.is_zero], None)
                for i in inner
            ],
        ]
    return [
        *([(False, n, [field.one], 1)] if top == n else []),
        (True, top, top_mus, 1),
        *[(True, i, [field.one], 1) for i in inner],
        *[(False, i, [field.one], 2) for i in inner],
    ]


def _named_classes(n: int, field: Field, families):
    """The NamedClass of every mu value of every family, in order."""
    out = []
    for with_nabla, i, values, ann_dim in families:
        for mu in values:
            form, label = _tabulated_class(n, field, with_nabla, i, mu)
            # in T_1 exactly when e_n does not annihilate the class: through
            # nabla_n, or through a nonzero delta(n, 1)
            t1 = with_nabla or (i == n and not mu.is_zero)
            out.append(NamedClass(label, form, with_nabla, i, mu, t1, ann_dim))
    return out


def closed_field_representatives(
    variety,
    n: int,
    field: Field,
    level: str = "T1",
    mu_sample=None,
):
    """The classification's orbit representatives (valid verbatim over an
    algebraically closed field of characteristic 0), instantiated over the
    given field. level="H2" lists class representatives; level="T1" lists
    Grassmannian-line representatives plus the non-T_1 classes that still
    give non-split one-dimensional extensions (with two-dimensional
    annihilator).  A dimension whose n^3 structure constants exceed the
    budget, or a mu family (every element of F_p, or mu_sample) longer
    than the budget, is refused before any form is built."""
    return _named_classes(n, field, _families(variety, n, field, level, mu_sample))


# ---------------------------------------------------------------------------
# orbit computation

@dataclass(frozen=True)
class Orbit:
    representative: tuple      # class coordinates (T1: normalized line coords)
    size: int
    members: tuple
    labels: tuple


@dataclass(frozen=True)
class OrbitReport:
    variety: str
    n: int
    field: Field
    kind: str                  # "H2_points" or "T1_lines"
    domain_size: int
    orbits: tuple
    matched_labels: dict
    # labels of the T_1-flagged tabulated classes, in order; not printed
    t1_labels: tuple

    def to_json(self, include_members: bool = False) -> dict:
        orbits = []
        for orbit in self.orbits:
            entry = {
                "representative": [str(x) for x in orbit.representative],
                "size": orbit.size,
                "labels": list(orbit.labels),
            }
            if not orbit.labels:
                entry["note"] = "extra (field-dependent)"
            if include_members:
                entry["members"] = [[str(x) for x in m] for m in orbit.members]
            orbits.append(entry)
        return {
            "variety": self.variety,
            "n": self.n,
            "field": self.field.spec(),
            "kind": self.kind,
            "domain_size": self.domain_size,
            "orbit_count": len(self.orbits),
            "orbits": orbits,
            "matched_labels": {k: v for k, v in sorted(self.matched_labels.items())},
        }


class ClassAction:
    """The automorphism action on H^2 class coordinates over a finite
    field, reduced to integer matrices mod p for enumeration work."""

    def __init__(self, n: int, variety, field: Field, budget: int | None = None):
        if not field.is_finite:
            raise FieldMismatch("orbit enumeration requires a finite field")
        self.n = n
        self.variety = builtin_variety(variety)
        self.field = field
        self.p = field.p
        self.budget = resolve_budget(budget)
        with budget_scope(self.budget):
            self.algebra = null_filiform(n, field)
            self.h = second_cohomology(self.algebra, self.variety)
        self.dim_h = self.h.dim_h
        self._matrices = None
        # c -> theta_c(e_n, e_j) and c -> theta_c(e_j, e_n), j = 1..n, as
        # integer forms on class coordinates; the zero forms are dropped
        forms = {
            tuple(rep._sparse.get(a * n + b, 0) for rep in self.h.h_reps)
            for j in range(n)
            for a, b in ((n - 1, j), (j, n - 1))
        }
        self._t1_forms = [f for f in forms if any(f)]

    @property
    def matrices(self):
        """The distinct class-action matrices, the image of Aut in GL(H^2),
        as residue rows in the order first seen walking the automorphisms'
        first columns.  Each automorphism matrix is built once per p
        columns (``_automorphism_matrices``) and each class-action matrix
        once per automorphism.  The budget counts the whole group."""
        if self._matrices is None:
            check_budget(automorphism_count(self.n, self.field), "automorphisms", self.budget)
            reps = [rep._sparse for rep in self.h.h_reps]
            self._matrices = list(
                dict.fromkeys(
                    _class_matrix(self.h, m, reps)
                    for m in _automorphism_matrices(self.n, self.p)
                )
            )
        return self._matrices

    def apply(self, mat, point):
        p = self.p
        return tuple(sum(map(operator.mul, mrow, point)) % p for mrow in mat)

    def coords_of(self, theta: BilinearForm):
        return self.h._coordinates(theta)

    def scalars(self, residues):
        return tuple(self.field.scalar(r) for r in residues)

    def all_points(self):
        return [tuple(pt) for pt in itertools.product(range(self.p), repeat=self.dim_h)]

    def normalize_line(self, point):
        for c in point:
            if c != 0:
                inv = pow(c, -1, self.p)
                return tuple((x * inv) % self.p for x in point)
        raise MalformedInput("zero vector spans no line")

    def all_lines(self):
        lines = []
        p, d = self.p, self.dim_h
        for lead in range(d):
            for tail in itertools.product(range(p), repeat=d - lead - 1):
                lines.append((0,) * lead + (1,) + tail)
        return lines

    def line_in_t1(self, line) -> bool:
        """Whether the cocycle annihilator of the line's class meets
        Ann(mu0:n) = <e_n> trivially, i.e. e_n does not annihilate it."""
        p = self.p
        return any(sum(a * c for a, c in zip(f, line)) % p for f in self._t1_forms)

    def _point(self, coords):
        """The residue tuple of class coordinates (``Field._raw_row``)."""
        row = self.field._raw_row(coords, self.dim_h)
        return tuple(row.get(j, 0) for j in range(self.dim_h))

    def images(self, x, lines: bool = False) -> frozenset:
        """The images of a point, or of a normalized line, under every
        matrix: its orbit, as the matrices form a group."""
        if lines:
            return frozenset(self.normalize_line(self.apply(mat, x)) for mat in self.matrices)
        return frozenset(self.apply(mat, x) for mat in self.matrices)

    def orbit_of_class(self, coords) -> frozenset:
        """The orbit of a class point, as residue tuples: its images under
        every automorphism."""
        return self.images(self._point(coords))


def _orbit_report(n: int, variety, field: Field, budget: int | None, lines: bool) -> OrbitReport:
    """Split the class points (all of H^2), or the T_1 lines, into orbits
    of the full automorphism group, and label each orbit with the
    tabulated representatives of that level whose point or line lies in
    it.  The domain is counted against the budget before it is listed.

    The domain is walked in order and each element not yet placed
    contributes its image set.  An image outside the domain, or an image
    set that meets an orbit already found (the matrices are then no
    group), raises InvariantError."""
    kind, level, what = ("T1_lines", "T1", "lines") if lines else ("H2_points", "H2", "points")
    with budget_scope(budget):
        action = ClassAction(n, variety, field)
        p, d = action.p, action.dim_h
        check_budget((p**d - 1) // (p - 1) if lines else p**d, what)
        if lines:
            domain = [ln for ln in action.all_lines() if action.line_in_t1(ln)]
        else:
            domain = action.all_points()
        in_domain = set(domain)
        placed = set()
        orbit_members = []
        for x in domain:
            if x in placed:
                continue
            orbit = action.images(x, lines)
            if not orbit <= in_domain:
                raise InvariantError(
                    f"{kind} are not closed under the action; {x} maps outside the domain"
                )
            if not placed.isdisjoint(orbit):
                raise InvariantError(
                    f"the images of {x} meet an orbit already found; "
                    "the action matrices are not a group"
                )
            placed |= orbit
            orbit_members.append(sorted(orbit))
        orbit_members.sort(key=lambda g: g[0])
        orbit_index = {x: k for k, group in enumerate(orbit_members) for x in group}
        reps = []
        if _tabulated_deltas(action.variety.name, n):
            reps = closed_field_representatives(action.variety, n, field, level)
        matched = {}
        for named in reps:
            if lines and not named.t1:
                continue  # a class outside T_1 spans no line of the domain
            x = action.coords_of(named.form)
            if lines and any(x):  # a zero class spans no line and lands nowhere
                x = action.normalize_line(x)
            k = orbit_index.get(x)
            if k is not None:
                matched[named.label] = k
    labels: dict = {}
    for label, k in matched.items():
        labels.setdefault(k, []).append(label)
    orbits = tuple(
        Orbit(
            representative=action.scalars(group[0]),
            size=len(group),
            members=tuple(group),
            labels=tuple(labels.get(k, ())),
        )
        for k, group in enumerate(orbit_members)
    )
    if sum(o.size for o in orbits) != len(domain):
        raise InvariantError(f"orbit sizes do not add up to the {len(domain)} {kind}")
    return OrbitReport(
        variety=action.variety.name,
        n=n,
        field=field,
        kind=kind,
        domain_size=len(domain),
        orbits=orbits,
        matched_labels=matched,
        t1_labels=tuple(named.label for named in reps if named.t1),
    )


def orbits_on_H2(
    n: int,
    variety,
    field: Field,
    budget: int | None = None,
) -> OrbitReport:
    """Partition all of H^2 (as coordinate tuples over F_p) into orbits
    by applying every automorphism's class action."""
    return _orbit_report(n, variety, field, budget, lines=False)


def orbits_on_T1(
    n: int,
    variety,
    field: Field,
    budget: int | None = None,
) -> OrbitReport:
    """Partition the T_1 Grassmannian lines (normalized class coordinate
    vectors with trivial annihilator overlap) into orbits."""
    return _orbit_report(n, variety, field, budget, lines=True)


# ---------------------------------------------------------------------------
# the table of one-dimensional extensions

@dataclass(frozen=True)
class TableRow:
    label: str
    cocycle: BilinearForm
    expected: Algebra
    expected_ann_dim: int
    expected_t1: bool
    # H^2 of the base for the left-commutative variety, shared by the rows
    base_h2: CohomologySpace = dataclass_field(compare=False, repr=False)


def _expected_extension(named: NamedClass, n: int, field: Field) -> Algebra:
    """The (n+1)-dimensional algebra that the table states for a class,
    from its parameters alone (never from its form), as a sparse raw
    table: e_a e_b = e_{a+b} for a+b <= n, e_a e_b = e_{n+1} for
    a+b = n+1 when nabla_n is present, and mu e_{n+1} added to e_i e_1."""
    one = field.one
    products = [[{} for _ in range(n + 1)] for _ in range(n + 1)]
    for a in range(1, n + 1):
        for b in range(1, n + 2 - a):
            if a + b <= n or named.nabla:
                products[a - 1][b - 1][a + b - 1] = one
    out = products[named.i - 1][0]
    out[n] = out.get(n, field.zero) + named.mu
    sparse = tuple(
        tuple(tuple(sorted((k, c.raw) for k, c in vec.items() if not c.is_zero)) for vec in row)
        for row in products
    )
    return Algebra._from_sparse(field, sparse)


def classification_table(n: int, field: Field, mu_sample=None):
    """Rows of the classification table of one-dimensional non-split
    extensions of the n-dimensional null-filiform algebra: the
    left-commutative T_1-level representatives, in the order delta_n_1,
    the wide delta_k_1, nabla_n + delta_k_1, nabla_n + mu*delta_n_1, with
    their expected product patterns and the base's H^2, computed once.
    A row's check walks the left- and right-commutative identities on its
    extension; the tuples of all rows are checked against the budget first."""
    families = _families("left_commutative", n, field, "T1", mu_sample)
    idents = builtin_variety("bicommutative").multilinear_identities
    tuples = sum((n + 1) ** len(ident.variables) for ident in idents)
    rows = sum(len(values) for _, _, values, _ in families)
    check_budget(rows * tuples, "identity tuples of the table rows")
    reps = _named_classes(n, field, families)
    reps.sort(key=lambda c: (c.nabla, c.ann_dim, c.i == n))
    h = second_cohomology(null_filiform(n, field), builtin_variety("left_commutative"))
    return [
        TableRow(
            label=c.label,
            cocycle=c.form,
            expected=_expected_extension(c, n, field),
            expected_ann_dim=c.ann_dim,
            expected_t1=c.t1,
            base_h2=h,
        )
        for c in reps
    ]


def _check_row(row: TableRow) -> dict:
    """Extend the base by the row's cocycle, checked by the reduction map
    of row.base_h2, and compare the extension with the row's pattern (raw
    tables; scalars only for a TableMismatch text), flags and annihilator
    dimension.  The row is in T_1 exactly when that dimension is 1.
    Bicommutative is left- and right-commutative, and the extension has
    passed the left-commutative test by then, so the flag walks the
    right-commutative identity only."""
    lc, base = row.base_h2.variety, row.base_h2.algebra
    result = central_extension(base, [row.cocycle], lc, h=row.base_h2)
    ext, expected = result.extended, row.expected
    if ext != expected:
        for i in range(ext.dim):
            for j in range(ext.dim):
                if ext._sparse[i][j] != expected._sparse[i][j]:
                    raise TableMismatch(
                        f"row {row.label}: product e_{i + 1} e_{j + 1} is "
                        f"{ext.table[i][j]}, expected {expected.table[i][j]}"
                    )
    if not satisfies_variety(ext, lc):
        raise TableMismatch(f"row {row.label}: extension is not left-commutative")
    if not result.non_split:
        raise TableMismatch(f"row {row.label}: extension class is dependent")
    if result.annihilator_dim != row.expected_ann_dim:
        raise TableMismatch(
            f"row {row.label}: annihilator dim {result.annihilator_dim}, "
            f"expected {row.expected_ann_dim}"
        )
    t1 = result.annihilator_dim == 1
    if t1 != row.expected_t1:
        raise TableMismatch(
            f"row {row.label}: T_1 membership {t1}, expected {row.expected_t1}"
        )
    bicom = satisfies_variety(ext, builtin_variety("right_commutative"))
    return {
        "label": row.label,
        "ok": True,
        "non_split": result.non_split,
        "annihilator_dim": result.annihilator_dim,
        "t1": t1,
        "bicommutative": bicom,
    }


def check_table1(n: int, field: Field, mu_sample=None):
    """Construct and verify every table row, collecting per-row pass/fail."""
    out = []
    for row in classification_table(n, field, mu_sample):
        try:
            out.append(_check_row(row))
        except TableMismatch as exc:
            out.append({"label": row.label, "ok": False, "detail": str(exc)})
    return out
