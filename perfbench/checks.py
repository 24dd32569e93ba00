"""Independent checkers for the benchmark's outputs.

Nothing here imports centext.  Scalars are plain ``Fraction`` values over
Q and plain ``int`` residues over F_p; identities are written out by hand
below, already multilinear; row reduction, extension tables, annihilators
and the automorphism action are recomputed from their definitions.  Every
checker raises ``CheckFailed`` with a reason on the first disagreement.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction


class CheckFailed(Exception):
    """An output disagrees with the independent recomputation."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# scalars: p is None for Q, else a prime


def parse_field(spec):
    if spec == "Q":
        return None
    require(spec.startswith("Fp:"), f"bad field spec {spec!r}")
    return int(spec[3:])


def scalar(x, p):
    """A literal, int or Fraction as a Fraction (Q) or a residue (F_p)."""
    q = Fraction(x)
    if p is None:
        return q
    return q.numerator * pow(q.denominator, -1, p) % p


def norm(x, p):
    return x if p is None else x % p


def inverse(x, p):
    return 1 / Fraction(x) if p is None else pow(x, -1, p)


def echelon(rows, ncols, p):
    """Gaussian elimination on the first ncols columns.  Returns the rows,
    reduced in place (pivots 1, cleared above and below), and the number
    of pivots, which lead the first rows."""
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = inverse(rows[r][c], p)
        rows[r] = [norm(x * inv, p) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [norm(x - f * y, p) for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows, r


def rank(vectors, p):
    """Rank of a list of equal-length vectors."""
    rows = [list(v) for v in vectors]
    return echelon(rows, len(rows[0]), p)[1] if rows else 0


def solve_coords(basis, target, p):
    """Coefficients a with sum a_k basis[k] == target, or None when target
    lies outside the span.  The basis vectors must be independent."""
    k = len(basis)
    aug = [[vec[i] for vec in basis] + [target[i]] for i in range(len(target))]
    aug, r = echelon(aug, k, p)
    require(r == k, "coordinate basis is dependent")
    if any(row[k] != 0 for row in aug[k:]):
        return None
    return [row[k] for row in aug[:k]]


# ---------------------------------------------------------------------------
# forms on mu0:n as dense n x n matrices, 1-based names, 0-based storage


def zero_form(n):
    return [[0] * n for _ in range(n)]


def delta_form(i, j, n):
    f = zero_form(n)
    f[i - 1][j - 1] = 1
    return f


def nabla_form(j, n):
    f = zero_form(n)
    for k in range(1, j + 1):
        f[k - 1][j - k] = 1
    return f


def flat(form):
    return [x for row in form for x in row]


def form_from_json(obj, n, p):
    require(obj["dim"] == n, f"form has dim {obj['dim']}, expected {n}")
    require(parse_field(obj["field"]) == p, f"form over {obj['field']}")
    vec = [scalar(x, p) for x in obj["matrix"]]
    require(len(vec) == n * n, "form matrix has the wrong length")
    return [vec[i * n:(i + 1) * n] for i in range(n)]


_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*)?(?:nabla(\d+)|delta(\d+)_(\d+))")


def form_from_label(label, n, p):
    """The form a table or orbit label names, e.g. 'nabla5-2*delta5_1'."""
    total = zero_form(n)
    if label == "zero":
        return total
    pos = 0
    while pos < len(label):
        m = _TERM.match(label, pos)
        require(m is not None and (pos == 0 or m.group(1)), f"cannot read label {label!r}")
        pos = m.end()
        c = scalar(m.group(2) or 1, p)
        if m.group(1) == "-":
            c = norm(-c, p)
        atom = nabla_form(int(m.group(3)), n) if m.group(3) else delta_form(
            int(m.group(4)), int(m.group(5)), n
        )
        for i in range(n):
            for j in range(n):
                total[i][j] = norm(total[i][j] + c * atom[i][j], p)
    return total


# ---------------------------------------------------------------------------
# varieties: multilinear identities as (coefficient, tree) sums; a tree is a
# variable index or a pair (left, right)


def _assoc(a, b, c):
    """The associator (ab)c - a(bc) as signed trees."""
    return [(1, ((a, b), c)), (-1, (a, (b, c)))]


def _neg(terms):
    return [(-c, t) for c, t in terms]


_LEFT_ALT = [(1, (0, (1, 2))), (1, (1, (0, 2))), (-1, ((0, 1), 2)), (-1, ((1, 0), 2))]
_RIGHT_ALT = [(1, ((0, 1), 2)), (1, ((0, 2), 1)), (-1, (0, (1, 2))), (-1, (0, (2, 1)))]
_LC = [(1, (0, (1, 2))), (-1, (1, (0, 2)))]
_RC = [(1, ((0, 1), 2)), (-1, ((0, 2), 1))]
_LSYM = _assoc(0, 1, 2) + _neg(_assoc(1, 0, 2))
# (x*x)*(y*x) = ((x*x)*y)*x with x split into x1, x2, x3 (variables 0..2), y = 3
_JORDAN = [
    term
    for a, b, c in itertools.permutations((0, 1, 2))
    for term in ((1, ((a, b), (3, c))), (-1, (((a, b), 3), c)))
]

IDENTITIES = {
    "associative": [_assoc(0, 1, 2)],
    "left_alternative": [_LEFT_ALT],
    "alternative": [_LEFT_ALT, _RIGHT_ALT],
    "jordan": [[(1, (0, 1)), (-1, (1, 0))], _JORDAN],
    "left_commutative": [_LC],
    "right_commutative": [_RC],
    "bicommutative": [_LC, _RC],
    "assosymmetric": [_LSYM, _assoc(0, 1, 2) + _neg(_assoc(0, 2, 1))],
    "novikov": [_RC, _LSYM],
    "left_symmetric": [_LSYM],
}
ALIASES = {"lc": "left_commutative", "rc": "right_commutative", "bc": "bicommutative"}


def variety_name(name):
    return ALIASES.get(name, name)


def _nvars(identity):
    def leaves(t):
        return {t} if isinstance(t, int) else leaves(t[0]) | leaves(t[1])

    return len(set().union(*(leaves(t) for _, t in identity)))


# ---------------------------------------------------------------------------
# algebras as sparse tables {(i, j): {k: c}}, 0-based


def mu0_table(n):
    return {(i, j): {i + j + 1: 1} for i in range(n) for j in range(n) if i + j + 2 <= n}


def extension_table(n, form, p):
    """Structure constants of mu0:n extended by one form, on e_1..e_n, f."""
    table = {key: dict(val) for key, val in mu0_table(n).items()}
    for i in range(n):
        for j in range(n):
            c = norm(form[i][j], p)
            if c != 0:
                table.setdefault((i, j), {})[n] = c
    return table


def table_from_json(obj, p):
    dim = obj["dim"]
    require(parse_field(obj["field"]) == p, "algebra field differs")
    table = {}
    for entry in obj["products"]:
        out = {t["k"] - 1: scalar(t["c"], p) for t in entry["out"]}
        table[(entry["i"] - 1, entry["j"] - 1)] = {k: c for k, c in out.items() if c != 0}
    return dim, {k: v for k, v in table.items() if v}


def _product(table, u, v, p):
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            for k, c in table.get((i, j), {}).items():
                out[k] = norm(out.get(k, 0) + a * b * c, p)
    return {k: c for k, c in out.items() if c != 0}


def _evaluate(tree, env, table, p):
    if isinstance(tree, int):
        return env[tree]
    return _product(
        table, _evaluate(tree[0], env, table, p), _evaluate(tree[1], env, table, p), p
    )


def satisfies(table, dim, variety, p):
    """Whether the algebra satisfies every identity on all basis tuples."""
    basis = [{i: 1} for i in range(dim)]
    for identity in IDENTITIES[variety_name(variety)]:
        for combo in itertools.product(basis, repeat=_nvars(identity)):
            acc = {}
            for coeff, tree in identity:
                for k, c in _evaluate(tree, combo, table, p).items():
                    acc[k] = norm(acc.get(k, 0) + coeff * c, p)
            if any(c != 0 for c in acc.values()):
                return False
    return True


_ROWS = {}


def cocycle_rows(n, variety, p):
    """Cocycle equations on mu0:n: one sparse row {(a, b): c} per identity
    and basis tuple, so theta is a cocycle iff sum c * theta[a][b] = 0."""
    key = (n, variety_name(variety), p)
    if key not in _ROWS:
        table = mu0_table(n)
        basis = [{i: 1} for i in range(n)]
        rows = []
        for identity in IDENTITIES[key[1]]:
            for combo in itertools.product(basis, repeat=_nvars(identity)):
                row = {}
                for coeff, tree in identity:
                    u = _evaluate(tree[0], combo, table, p)
                    w = _evaluate(tree[1], combo, table, p)
                    for a, x in u.items():
                        for b, y in w.items():
                            row[(a, b)] = norm(row.get((a, b), 0) + coeff * x * y, p)
                row = {k: c for k, c in row.items() if c != 0}
                if row:
                    rows.append(row)
        _ROWS[key] = rows
    return _ROWS[key]


def is_cocycle(form, n, variety, p):
    return all(
        norm(sum(c * form[a][b] for (a, b), c in row.items()), p) == 0
        for row in cocycle_rows(n, variety, p)
    )


def annihilator_dim(table, dim, p, forms=()):
    """dim of {x : x*A = A*x = 0 and theta(x, A) = theta(A, x) = 0}."""
    rows = []
    for j in range(dim):
        for k in range(dim):
            rows.append([table.get((i, j), {}).get(k, 0) for i in range(dim)])
            rows.append([table.get((j, i), {}).get(k, 0) for i in range(dim)])
    for form in forms:
        for j in range(dim):
            rows.append([form[i][j] for i in range(dim)])
            rows.append([form[j][i] for i in range(dim)])
    return dim - rank(rows, p)


def coboundary_basis(n):
    """B^2(mu0:n) = span(nabla_1..nabla_{n-1})."""
    return [flat(nabla_form(j, n)) for j in range(1, n)]


# ---------------------------------------------------------------------------
# h2-*: cocycle, coboundary and cohomology spaces of mu0:n


def closed_form(variety, n):
    """(dim Z, dim B, dim H) and a basis of Z on mu0:n, from the paper."""
    v = variety_name(variety)
    z = [nabla_form(j, n) for j in range(1, n + 1)]
    if v in ("associative", "left_alternative", "alternative", "jordan"):
        return (n, n - 1, 1), z
    if v in ("left_commutative", "left_symmetric"):
        return (2 * n - 1, n - 1, n), z + [delta_form(i, 1, n) for i in range(2, n + 1)]
    if v == "right_commutative":
        return (2 * n - 1, n - 1, n), z + [delta_form(1, i, n) for i in range(2, n + 1)]
    return (n + 1, n - 1, 2), z + [delta_form(2, 1, n)]


def check_cohomology(n, variety, field, out):
    """Check a `centext cohomology --algebra mu0:n` document."""
    p = parse_field(field)
    require(out["algebra"] == {"dim": n, "field": field}, "wrong algebra echoed")
    require(out["variety"] == variety_name(variety), "wrong variety echoed")
    dims, closed = closed_form(variety, n)
    z = [flat(form_from_json(f, n, p)) for f in out["z_basis"]]
    b = [flat(form_from_json(f, n, p)) for f in out["b_basis"]]
    h = [flat(form_from_json(r["form"], n, p)) for r in out["h_representatives"]]
    got = (out["dim_z"], out["dim_b"], out["dim_h"])
    require(got == dims, f"(dim Z, dim B, dim H) = {got}, closed form {dims}")
    require((len(z), len(b), len(h)) == dims, "basis lengths differ from the dimensions")
    closed = [flat(f) for f in closed]
    require(rank(z, p) == dims[0], "printed Z basis is dependent")
    require(rank(z + closed, p) == dims[0], "Z basis does not span the closed-form basis")
    cob = coboundary_basis(n)
    require(rank(b, p) == dims[1] and rank(b + cob, p) == dims[1], "B is not span(nabla_1..nabla_n-1)")
    require(rank(b + h, p) == dims[0], "H representatives do not complete B to Z")
    for vec in z + h + closed:
        form = [vec[i * n:(i + 1) * n] for i in range(n)]
        require(is_cocycle(form, n, variety, p), "a Z vector fails the cocycle equations")


# ---------------------------------------------------------------------------
# orbits: lines and points of H^2 over F_p under Aut(mu0:n)


def class_reps(variety, n):
    """The H^2 representatives classify reports coordinates in."""
    v = variety_name(variety)
    extras = range(2, n + 1) if v == "left_commutative" else (2,)
    return [nabla_form(n, n)] + [delta_form(i, 1, n) for i in extras]


def _compose(f, g, n, p):
    """Coefficients of f(g(x)) mod x^(n+1); index k holds the x^(k+1) term."""
    out = [0] * n
    power = list(g)
    for k in range(n):
        if f[k]:
            out = [(o + f[k] * c) % p for o, c in zip(out, power)]
        power = [sum(power[a] * g[m - a - 1] for a in range(m)) % p for m in range(n)]
    return out


def primitive_root(p):
    return next(g for g in range(1, p) if len({pow(g, k, p) for k in range(1, p)}) == p - 1)


def generators(n, p):
    """First columns of x -> g*x and x -> x + x^k, k = 2..n."""
    gens = [[primitive_root(p)] + [0] * (n - 1)]
    for k in range(2, n + 1):
        col = [1] + [0] * (n - 1)
        col[k - 1] = 1
        gens.append(col)
    return gens


def group_order(n, p):
    """Order of the group the generators generate, by closure."""
    gens = generators(n, p)
    seen = {tuple([1] + [0] * (n - 1))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = tuple(_compose(list(f), g, n, p))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen)


def action_matrix(col, n, p):
    """Matrix M of the automorphism with first column col: column j is
    the coordinates of phi(e_1)^(j+1)."""
    cols = [list(col)]
    for _ in range(1, n):
        prev = cols[-1]
        cols.append([sum(prev[a] * col[m - a - 1] for a in range(m)) % p for m in range(n)])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


class ClassOrbits:
    """The generators' action on class coordinates: M^T C M, then the
    coordinates of the result modulo span(nabla_1..nabla_{n-1})."""

    def __init__(self, n, variety, p):
        self.n, self.p = n, p
        self.reps = class_reps(variety, n)
        self.basis = coboundary_basis(n) + [flat(r) for r in self.reps]
        self.mats = [action_matrix(g, n, p) for g in generators(n, p)]

    def form(self, coords):
        n, p = self.n, self.p
        return [
            [sum(c * r[i][j] for c, r in zip(coords, self.reps)) % p for j in range(n)]
            for i in range(n)
        ]

    def act(self, m, coords):
        n, p = self.n, self.p
        c = self.form(coords)
        cm = [[sum(c[i][k] * m[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]
        img = [[sum(m[k][i] * cm[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]
        sol = solve_coords(self.basis, flat(img), p)
        require(sol is not None, "an image leaves the cocycle space")
        return tuple(sol[self.n - 1:])

    def in_t1(self, coords):
        """Ann(mu0:n) = <e_n>: the line is in T_1 iff e_n is not in the
        form's annihilator, i.e. row n or column n of the form is nonzero."""
        c = self.form(coords)
        n = self.n
        return any(c[n - 1][j] for j in range(n)) or any(c[i][n - 1] for i in range(n))

    def normalize(self, coords):
        lead = next(x for x in coords if x)
        inv = pow(lead, -1, self.p)
        return tuple(x * inv % self.p for x in coords)

    def orbit(self, start, lines):
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for pt in frontier:
                for m in self.mats:
                    img = self.act(m, pt)
                    if lines:
                        img = self.normalize(img)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        return seen


def _residue(lit, p):
    """An orbit-report coordinate: a residue, or 'r@Fp:p' carrying its field."""
    value, _, spec = str(lit).partition("@")
    require(not spec or parse_field(spec) == p, f"coordinate {lit} over another field")
    r = int(value)
    require(0 <= r < p, f"coordinate {lit} is not a residue mod {p}")
    return r


def check_classify(n, variety, field, level, out):
    """Check a `centext classify --members` document."""
    p = parse_field(field)
    v = variety_name(variety)
    require(p is not None, "classify needs a finite field")
    require(group_order(n, p) == (p - 1) * p ** (n - 1), "generators do not generate Aut(mu0:n)")
    action = ClassOrbits(n, v, p)
    d = len(action.reps)
    lines = level == "t1"
    if lines:
        domain = {
            ln
            for ln in (action.normalize(x) for x in itertools.product(range(p), repeat=d) if any(x))
            if action.in_t1(ln)
        }
        want = (p**n - p ** (n - 2)) // (p - 1) if v == "left_commutative" else p
        require(len(domain) == want, f"T_1 has {len(domain)} lines, closed form {want}")
    else:
        domain = set(itertools.product(range(p), repeat=d))
    require(out["kind"] == ("T1_lines" if lines else "H2_points"), "wrong report kind")
    require(out["domain_size"] == len(domain), "domain size differs")
    require(out["orbit_count"] == len(out["orbits"]), "orbit count differs")
    covered = set()
    for orbit in out["orbits"]:
        members = {tuple(_residue(x, p) for x in m) for m in orbit["members"]}
        require(len(members) == orbit["size"] == len(orbit["members"]), "orbit size differs")
        rep = tuple(_residue(x, p) for x in orbit["representative"])
        require(rep in members, "representative outside its orbit")
        require(action.orbit(rep, lines) == members, f"orbit of {rep} differs from the generator BFS")
        require(not covered & members, "orbits overlap")
        covered |= members
    require(covered == domain, "orbits do not partition the domain")
    for label, idx in out["matched_labels"].items():
        require(label in out["orbits"][idx]["labels"], f"label {label} missing from its orbit")
        form = form_from_label(label, n, p)
        coords = solve_coords(action.basis, flat(form), p)
        require(coords is not None, f"label {label} is not a cocycle")
        pt = tuple(coords[n - 1:])
        if lines:
            pt = action.normalize(pt)
        members = {tuple(_residue(x, p) for x in m) for m in out["orbits"][idx]["members"]}
        require(pt in members, f"label {label} is not in the orbit it is matched to")


# ---------------------------------------------------------------------------
# extensions: the left-commutative table, lemma trials, extend


def table1_row_count(n, p):
    """Rows of the table: delta_n_1, delta_k_1 and nabla_n+delta_k_1 for
    2 <= k < n, and nabla_n + mu*delta_n_1 over the default mu sample."""
    mus = list(range(p)) if p is not None else [0, 1, -1, 2]
    return 1 + 2 * (n - 2) + len(mus)


def extension_facts(n, form, p):
    """(non_split, annihilator_dim, t1, bicommutative, left-commutative) of
    mu0:n extended by one form, recomputed independently."""
    cob = coboundary_basis(n)
    non_split = rank(cob + [flat(form)], p) == len(cob) + 1
    table = extension_table(n, form, p)
    ann = annihilator_dim(table, n + 1, p)
    t1 = annihilator_dim(mu0_table(n), n, p, [form]) == 0
    bicom = satisfies(table, n + 1, "bicommutative", p)
    lc = satisfies(table, n + 1, "left_commutative", p)
    return non_split, ann, t1, bicom, lc


def check_table1(n, field, out):
    """Check a `centext verify-table1` document row by row."""
    p = parse_field(field)
    require(out["n"] == n and out["field"] == field and out["ok"] is True, "table not ok")
    require(len(out["rows"]) == table1_row_count(n, p), "wrong number of table rows")
    labels = [row["label"] for row in out["rows"]]
    require(len(set(labels)) == len(labels), "repeated table row")
    for row in out["rows"]:
        form = form_from_label(row["label"], n, p)
        require(is_cocycle(form, n, "left_commutative", p), f"{row['label']} is not a cocycle")
        non_split, ann, t1, bicom, lc = extension_facts(n, form, p)
        got = (row["ok"], row["non_split"], row["annihilator_dim"], row["t1"], row["bicommutative"])
        want = (lc, non_split, ann, t1, bicom)
        require(got == want, f"row {row['label']}: {got}, recomputed {want}")


def check_lemma(trial, answer):
    """A lemma trial's (is_cocycle, extension in variety) pair."""
    n, p, v = trial["n"], parse_field(trial["field"]), trial["variety"]
    form = [[scalar(trial["entries"][i * n + j], p) for j in range(n)] for i in range(n)]
    lhs, rhs = answer
    require(lhs == rhs, f"lemma fails for {v}, n={n}, {trial['field']}: {answer}")
    require(lhs == is_cocycle(form, n, v, p), f"is_cocycle disagrees for {v}, n={n}")
    require(rhs == satisfies(extension_table(n, form, p), n + 1, v, p), f"membership disagrees for {v}")


def check_extend(n, field, entries, out):
    """Check a `centext extend --cocycle <file>` document for one form."""
    p = parse_field(field)
    form = zero_form(n)
    for e in entries:
        form[e["i"] - 1][e["j"] - 1] = scalar(e["c"], p)
    dim, table = table_from_json(out["extended"], p)
    require(dim == n + 1 and table == extension_table(n, form, p), "extended table differs")
    non_split, ann, t1, _, _ = extension_facts(n, form, p)
    require(out["non_split"] == non_split, "non_split differs")
    require(out["annihilator_dim"] == ann, "annihilator_dim differs")
    require(out["t1"] == (t1 and non_split), "t1 differs")
