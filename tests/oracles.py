"""Independent reference implementations used to cross-check the package.

Everything here works on plain lists of Fractions or ints, with no
imports from the package under test.
"""

import itertools
from fractions import Fraction


def frac_rref(rows):
    """Row-reduce over the rationals.  Returns (reduced nonzero rows,
    pivot column indices)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [row for row in rows if any(x != 0 for x in row)], pivots


def frac_kernel(rows, ncols):
    """Kernel basis over the rationals: one vector per free column, then
    row-reduced to a canonical echelon spanning set."""
    reduced, pivots = frac_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[f]
        basis.append(vec)
    canon, _ = frac_rref(basis)
    return canon


def modp_inv(a, p):
    g, x = _ext_gcd(a % p, p)
    if g != 1:
        raise ValueError(f"{a} not invertible mod {p}")
    return x % p


def _ext_gcd(a, b):
    if a == 0:
        return b, 0
    x0, x1 = 1, 0
    y0, y1 = 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0


def modp_rref(rows, p):
    rows = [[x % p for x in row] for row in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = modp_inv(rows[r][c], p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [row for row in rows if any(x != 0 for x in row)], pivots


def table_mul(table, x, y):
    """Product of coefficient vectors in the algebra given by an explicit
    structure-constant table table[i][j][k], all Fractions."""
    n = len(table)
    out = [Fraction(0)] * n
    for i in range(n):
        if x[i] == 0:
            continue
        for j in range(n):
            if y[j] == 0:
                continue
            c = x[i] * y[j]
            for k in range(n):
                if table[i][j][k] != 0:
                    out[k] += c * table[i][j][k]
    return out


def basis_vec(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def extension_table(base, thetas):
    """Structure constants of the central extension of an n-dim table by
    bilinear forms given as n x n Fraction matrices."""
    n = len(base)
    s = len(thetas)
    m = n + s
    out = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j][k] = Fraction(base[i][j][k])
            for t in range(s):
                out[i][j][n + t] = Fraction(thetas[t][i][j])
    return out


def is_left_commutative(table):
    """x(yz) == y(xz) on all basis triples (a multilinear identity, so
    basis triples suffice)."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                x, y, z = basis_vec(n, a), basis_vec(n, b), basis_vec(n, c)
                lhs = table_mul(table, x, table_mul(table, y, z))
                rhs = table_mul(table, y, table_mul(table, x, z))
                if lhs != rhs:
                    return False
    return True


def is_right_commutative(table):
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                x, y, z = basis_vec(n, a), basis_vec(n, b), basis_vec(n, c)
                lhs = table_mul(table, table_mul(table, x, y), z)
                rhs = table_mul(table, table_mul(table, x, z), y)
                if lhs != rhs:
                    return False
    return True


def is_associative(table):
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                x, y, z = basis_vec(n, a), basis_vec(n, b), basis_vec(n, c)
                lhs = table_mul(table, table_mul(table, x, y), z)
                rhs = table_mul(table, x, table_mul(table, y, z))
                if lhs != rhs:
                    return False
    return True


def modp_kernel(rows, ncols, p):
    """Kernel basis over F_p, canonical like frac_kernel."""
    reduced, pivots = modp_rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[f] % p
        basis.append(vec)
    canon, _ = modp_rref(basis, p)
    return canon


# ---------------------------------------------------------------------------
# multilinear identities on basis tuples, evaluated densely
#
# An identity is given as plain data: its variable names and a list of
# (coefficient, tree) monomials, a tree being a variable name or a pair
# (left, right).  p=None works over Q, otherwise everything is mod p.


def _vec_mul(table, x, y, p):
    out = table_mul(table, x, y)
    return [v % p for v in out] if p else out


def tree_value(table, tree, env, p=None):
    if isinstance(tree, str):
        return env[tree]
    left = tree_value(table, tree[0], env, p)
    right = tree_value(table, tree[1], env, p)
    return _vec_mul(table, left, right, p)


def _basis_tuples(n, variables):
    """(tuple of 0-based indices, env) for every tuple, first index slowest."""
    k = len(variables)
    for code in range(n**k):
        idx = []
        for _ in range(k):
            code, r = divmod(code, n)
            idx.append(r)
        idx = tuple(reversed(idx))
        yield idx, {v: basis_vec(n, i) for v, i in zip(variables, idx)}


def identity_holds(table, variables, monomials, p=None):
    """Whether sum coeff * tree vanishes on every tuple of basis vectors."""
    n = len(table)
    for _, env in _basis_tuples(n, variables):
        acc = [Fraction(0)] * n
        for coeff, tree in monomials:
            val = tree_value(table, tree, env, p)
            acc = [a + coeff * v for a, v in zip(acc, val)]
        if any((a % p if p else a) != 0 for a in acc):
            return False
    return True


def cocycle_rows(table, variables, monomials, p=None):
    """One row over the n*n entries c_ij (row-major) per tuple of basis
    vectors: the coefficients of sum coeff * theta(left, right) over the
    monomials left*right.  Yields (tuple of 0-based indices, row)."""
    n = len(table)
    for idx, env in _basis_tuples(n, variables):
        row = [Fraction(0)] * (n * n)
        for coeff, (left, right) in monomials:
            u = tree_value(table, left, env, p)
            w = tree_value(table, right, env, p)
            for i in range(n):
                if u[i] == 0:
                    continue
                for j in range(n):
                    if w[j] != 0:
                        row[i * n + j] += coeff * u[i] * w[j]
        yield idx, [(x % p if p else x) for x in row]


# ---------------------------------------------------------------------------
# orbits of a finite matrix group, by union-find over every (element, matrix)


def _normalize_line(v, p):
    lead = next(x for x in v if x % p)
    inv = modp_inv(lead, p)
    return tuple(x * inv % p for x in v)


def orbit_partition(domain, matrices, p, lines):
    """The orbits of the group listed by matrices (integer matrices
    acting mod p) on the domain, as a sorted list of sorted lists.  With
    lines=True the domain holds normalized line coordinates and images
    are normalized too.  Raises ValueError when an image leaves the
    domain."""
    domain = [tuple(x) for x in domain]
    index = {x: i for i, x in enumerate(domain)}
    parent = list(range(len(domain)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, x in enumerate(domain):
        for mat in matrices:
            y = tuple(sum(a * b for a, b in zip(row, x)) % p for row in mat)
            if lines:
                y = _normalize_line(y, p)
            if y not in index:
                raise ValueError(f"{x} maps to {y}, outside the domain")
            ri, rj = find(i), find(index[y])
            parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i, x in enumerate(domain):
        groups.setdefault(find(i), []).append(x)
    return sorted(sorted(g) for g in groups.values())


def burnside_orbit_count(matrices, p, reps=None):
    """The number of orbits of the group listed by matrices (integer
    matrices acting mod p on column vectors, each element once), by
    Burnside's lemma: (1/|G|) times the sum over M of fix(M).  Without
    reps the domain is all of F_p^d, where fix(M) = p^dim ker(M - I).
    With reps, the n x n int matrices of the class representatives, it
    is the lines outside W, the classes c whose form sum c_k reps[k]
    vanishes on (e_n, e_j) and on (e_j, e_n) for every j: fix(M) is the
    sum over the eigenvalues l in F_p* of (p^dim E_l - p^dim(E_l & W))
    / (p - 1), E_l = ker(M - l I).  Raises ValueError when the sum is
    not a multiple of |G|."""
    matrices = list(matrices)
    d = len(matrices[0])
    w_rows = []
    if reps is not None:
        n = len(reps[0])
        w_rows = [[rep[n - 1][j] for rep in reps] for j in range(n)]
        w_rows += [[rep[j][n - 1] for rep in reps] for j in range(n)]

    def dim_kernel(rows):
        return len(modp_kernel(rows, d, p))

    total = 0
    for m in matrices:
        for lam in [1] if reps is None else range(1, p):
            shifted = [[x - lam * (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
            if reps is None:
                total += p ** dim_kernel(shifted)
            else:
                total += (p ** dim_kernel(shifted) - p ** dim_kernel(shifted + w_rows)) // (p - 1)
    count, rest = divmod(total, len(matrices))
    if rest:
        raise ValueError(f"the fixed points sum to {total}, no multiple of {len(matrices)}")
    return count


# ---------------------------------------------------------------------------
# cohomology classes and the automorphism action on them


def span_coordinates(columns, target, p=None):
    """Coordinates x with sum x_k columns[k] == target (over Q with
    Fractions, mod p otherwise), or None when target is outside the span.
    The columns must be independent."""
    k = len(columns)
    rows = [[col[r] for col in columns] + [target[r]] for r in range(len(target))]
    reduced, pivots = modp_rref(rows, p) if p else frac_rref(rows)
    if k in pivots:
        return None
    if pivots != list(range(k)):
        raise ValueError("the columns are not independent")
    return [row[k] for row in reduced]


def _poly_mul(u, v, n, p):
    """Product of the coefficient lists of sum u_i t^(i+1), truncated to
    t^1..t^n: multiplication in the null-filiform algebra e_i e_j = e_(i+j)."""
    out = [0] * n
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            if a and b and i + j + 1 < n:
                out[i + j + 1] = (out[i + j + 1] + a * b) % p
    return out


def class_action_oracle(n, p, reps):
    """The set of class-action matrices of Aut(mu0:n) over F_p on the
    classes with representatives reps (n x n int matrices), each a tuple
    of rows: column k holds the coordinates of M^T R_k M modulo the
    coboundaries nu_1..nu_(n-1) (forms with ones where i + j = k + 1,
    1-based), for every automorphism matrix M, whose column j is the j-th
    power of its first column.  Raises ValueError when an image is no
    combination of coboundaries and representatives."""
    basis = []
    for k in range(2, n + 1):  # the coboundary of the functional e_k^*
        basis.append([1 if i + j + 2 == k else 0 for i in range(n) for j in range(n)])
    basis += [[x % p for row in rep for x in row] for rep in reps]
    nb = n - 1
    found = set()
    for code in range((p - 1) * p ** (n - 1)):
        col = []
        for _ in range(n - 1):
            code, r = divmod(code, p)
            col.append(r)
        col = [code + 1] + col
        cols = [col]
        for _ in range(n - 1):
            cols.append(_poly_mul(cols[-1], col, n, p))
        m = [[cols[j][i] for j in range(n)] for i in range(n)]
        images = []
        for rep in reps:
            # (M^T R M)[a][b] = sum over i, j of M[i][a] R[i][j] M[j][b]
            img = [
                sum(m[i][a] * rep[i][j] * m[j][b] for i in range(n) for j in range(n)) % p
                for a in range(n)
                for b in range(n)
            ]
            coords = span_coordinates(basis, img, p)
            if coords is None:
                raise ValueError(f"image of a representative under {col} is no cocycle")
            images.append(coords[nb:])
        found.add(tuple(tuple(c[r] for c in images) for r in range(len(reps))))
    return found


# ---------------------------------------------------------------------------
# automorphisms of an algebra given by its structure constants


def is_automorphism(table, matrix, p=None):
    """Whether the square matrix (column j the image of e_j) is invertible
    and sends e_i e_j to the product of the images of e_i and e_j for
    every pair, in the algebra with structure constants table[i][j][k];
    over Q with Fractions, mod p otherwise."""
    n = len(table)
    reduced, _ = modp_rref(matrix, p) if p else frac_rref(matrix)
    if len(reduced) != n:
        return False
    cols = [[row[j] for row in matrix] for j in range(n)]
    for i in range(n):
        for j in range(n):
            image = [sum(a * b for a, b in zip(row, table[i][j])) for row in matrix]
            product = table_mul(table, cols[i], cols[j])
            if any((x - y) % p if p else x != y for x, y in zip(image, product)):
                return False
    return True


def null_filiform_table(n):
    """Structure constants of mu0:n: e_i e_j = e_(i+j) when i + j <= n."""
    return [[[1 if i + j + 1 == k else 0 for k in range(n)] for j in range(n)] for i in range(n)]


def null_filiform_automorphisms(n, p):
    """The matrices of Aut(mu0:n) over F_p, one per first column with a
    nonzero leading entry, in lexicographic order of that column: column
    j is the j-th power of the first column in mu0:n."""
    table = null_filiform_table(n)
    out = []
    for col in itertools.product(range(p), repeat=n):
        if not col[0]:
            continue
        cols = [list(col)]
        for _ in range(n - 1):
            cols.append([x % p for x in table_mul(table, cols[-1], col)])
        out.append([[int(cols[j][i]) for j in range(n)] for i in range(n)])
    return out
