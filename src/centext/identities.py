"""Polynomial identities for nonassociative varieties.

A monomial is a full binary tree over named variables together with an
integer coefficient; an identity is a sum of monomials equated to zero.

Text syntax: products use ``*`` and every nested product is written with
explicit parentheses ("(x*y)*z", never "x*y*z"); terms are joined with
``+``/``-``; an optional integer coefficient may prefix a term; an
identity is written "lhs = rhs" or "expr = 0", and chains
"a = b = c" denote the pair a - b = 0, a - c = 0.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import CharTooSmall, DegreeError, IdentitySyntaxError, UnknownVariety
from .fields import Field, _is_prime

# ---------------------------------------------------------------------------
# monomials and identities

# A tree is either a variable name (str) or a pair (left, right).
Tree = object


def tree_degree(tree) -> int:
    if isinstance(tree, str):
        return 1
    return tree_degree(tree[0]) + tree_degree(tree[1])


def tree_leaves(tree):
    if isinstance(tree, str):
        yield tree
    else:
        yield from tree_leaves(tree[0])
        yield from tree_leaves(tree[1])


def evaluate_tree(tree, env, mul):
    """Evaluate with a leaf (anything but a pair) bound to env[leaf], by
    name in a dict or by position in a list, and mul a vector product.
    A leaf child is read from env directly, without a recursive call; a
    pair of positions is thus one product of two env entries.  A falsy
    value (the empty sparse vector) is a zero product, returned at once
    without evaluating the other factor or calling mul."""
    if not isinstance(tree, tuple):
        return env[tree]
    a, b = tree
    left = evaluate_tree(a, env, mul) if isinstance(a, tuple) else env[a]
    if not left:
        return left
    right = evaluate_tree(b, env, mul) if isinstance(b, tuple) else env[b]
    return mul(left, right) if right else right


def _swap(tree, u, v):
    """The tree with the variables u and v exchanged."""
    if isinstance(tree, str):
        return v if tree == u else u if tree == v else tree
    return (_swap(tree[0], u, v), _swap(tree[1], u, v))


@dataclass(frozen=True)
class Monomial:
    coeff: int
    tree: Tree

    @property
    def degree(self) -> int:
        return tree_degree(self.tree)

    def multiplicities(self) -> dict:
        counts: dict = {}
        for v in tree_leaves(self.tree):
            counts[v] = counts.get(v, 0) + 1
        return counts

    def split_root(self):
        """The two factors of the outermost product."""
        if isinstance(self.tree, str):
            raise DegreeError("monomial of degree 1 has no outermost product")
        return self.tree[0], self.tree[1]


@dataclass(frozen=True)
class IdentitySchema:
    monomials: tuple
    variables: tuple

    @property
    def degree(self) -> int:
        return max(m.degree for m in self.monomials)

    @cached_property
    def is_multilinear(self) -> bool:
        want = set(self.variables)
        for m in self.monomials:
            counts = m.multiplicities()
            if set(counts) != want or any(c != 1 for c in counts.values()):
                return False
        return True

    @cached_property
    def symmetry_blocks(self) -> tuple:
        """The classes, of two or more variables each in the order of
        ``variables``, of variables whose swap maps the identity (its
        combined monomials) to itself or to its negative.  Two such swaps
        sharing a variable give the third by conjugation, so the classes
        are well defined and every permutation of a class maps the
        identity to plus or minus itself."""
        combined = {m.tree: m.coeff for m in _make_schema(self.monomials).monomials}
        negated = {t: -c for t, c in combined.items()}
        classes: list = []
        for v in self.variables:
            for cls in classes:
                swapped = {_swap(t, cls[0], v): c for t, c in combined.items()}
                if swapped == combined or swapped == negated:
                    cls.append(v)
                    break
            else:
                classes.append([v])
        return tuple(tuple(cls) for cls in classes if len(cls) > 1)

    @cached_property
    def subtrees(self) -> tuple:
        """The identity as (pairs, roots) over positional slots, each
        distinct subtree once.  Slots 0..k-1 are the variables in the
        order of ``variables``; pairs[s] fills slot k + s as the product
        of two earlier slots, one entry per distinct product below a
        monomial's root, left factor before right, in monomial order.
        roots lists (coeff, left slot, right slot), one per monomial."""
        slot = {v: k for k, v in enumerate(self.variables)}
        pairs: list = []

        def fill(tree):
            if isinstance(tree, str):
                return slot[tree]
            pair = (fill(tree[0]), fill(tree[1]))
            if pair not in slot:
                slot[pair] = len(slot)
                pairs.append(pair)
            return slot[pair]

        roots = tuple((m.coeff, *map(fill, m.split_root())) for m in self.monomials)
        return tuple(pairs), roots


def _make_schema(monomials):
    """Combine like monomials, drop zeros, validate degrees, fix variable order."""
    combined: dict = {}
    for m in monomials:
        combined[m.tree] = combined.get(m.tree, 0) + m.coeff
    kept = tuple(Monomial(c, t) for t, c in combined.items() if c != 0)
    if not kept:
        raise DegreeError("identity is trivially zero")
    for m in kept:
        if m.degree < 2:
            raise DegreeError(f"monomial of degree {m.degree}; need degree >= 2")
    seen = []
    for m in kept:
        for v in tree_leaves(m.tree):
            if v not in seen:
                seen.append(v)
    return IdentitySchema(kept, tuple(seen))


# ---------------------------------------------------------------------------
# parsing

# One token after optional whitespace; an integer is ASCII digits 0-9.
# [^\W\d_] also takes numeric characters such as '²', so _tokenize checks
# that an identifier starts with a letter (str.isalpha).
_TOKEN = re.compile(
    r"\s*(?:(?P<INT>[0-9]+)|(?P<IDENT>[^\W\d_][\w']*)|(?P<OP>[-*+()=])|(?P<END>\Z)|(?P<BAD>.))",
    re.S,
)


def _tokenize(text: str):
    """(kind, value, position) triples: an operator is its own kind,
    INT carries its int, IDENT its name; the last token is END."""
    tokens = []
    pos = 0
    while not tokens or tokens[-1][0] != "END":
        m = _TOKEN.match(text, pos)
        kind, value, pos = m.lastgroup, m[m.lastgroup], m.end()
        if kind == "BAD" or (kind == "IDENT" and not value[0].isalpha()):
            raise IdentitySyntaxError(f"unexpected character {value[0]!r}", m.start(kind))
        tokens.append((value if kind == "OP" else kind,
                       int(value) if kind == "INT" else value or None, m.start(kind)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise IdentitySyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_sides(self):
        sides = [self.parse_expr()]
        while self.peek()[0] == "=":
            self.advance()
            sides.append(self.parse_expr())
        tok = self.peek()
        if tok[0] != "END":
            raise IdentitySyntaxError(f"unexpected {tok[1]!r}", tok[2])
        if len(sides) < 2:
            raise IdentitySyntaxError("identity needs an '='", len(self.text))
        return sides

    def parse_expr(self):
        monomials = []
        sign = 1
        tok = self.peek()
        if tok[0] in "+-":
            self.advance()
            sign = -1 if tok[0] == "-" else 1
        monomials.extend(self.parse_term(sign))
        while self.peek()[0] in "+-":
            op = self.advance()
            sign = -1 if op[0] == "-" else 1
            monomials.extend(self.parse_term(sign))
        return monomials

    def parse_term(self, sign: int):
        coeff = 1
        tok = self.peek()
        if tok[0] == "INT":
            self.advance()
            coeff = tok[1]
            nxt = self.peek()
            if nxt[0] == "*":
                self.advance()
            elif nxt[0] not in ("IDENT", "("):
                # bare integer term: only 0 is allowed, and contributes nothing
                if coeff == 0:
                    return []
                raise DegreeError(f"constant term {coeff} has degree 0")
        tree = self.parse_product()
        return [Monomial(sign * coeff, tree)]

    def parse_product(self):
        left = self.parse_factor()
        if self.peek()[0] != "*":
            return left
        self.advance()
        right = self.parse_factor()
        tok = self.peek()
        if tok[0] == "*":
            raise IdentitySyntaxError(
                "ambiguous product; parenthesize nested products", tok[2]
            )
        return (left, right)

    def parse_factor(self):
        tok = self.advance()
        if tok[0] == "IDENT":
            return tok[1]
        if tok[0] == "(":
            inner = self.parse_product()
            self.expect(")")
            return inner
        raise IdentitySyntaxError(f"expected a variable or '(', found {tok[1]!r}", tok[2])


def parse_identities(text: str):
    """Parse an identity, expanding an equality chain a = b = c into
    the pair a - b = 0, a - c = 0. Returns a list of IdentitySchema."""
    sides = _Parser(text).parse_sides()
    first = sides[0]
    schemas = []
    for other in sides[1:]:
        negated = [Monomial(-m.coeff, m.tree) for m in other]
        schemas.append(_make_schema(list(first) + negated))
    return schemas


# ---------------------------------------------------------------------------
# printing

def _tree_str(tree) -> str:
    if isinstance(tree, str):
        return tree
    left, right = tree
    ls = _tree_str(left) if isinstance(left, str) else f"({_tree_str(left)})"
    rs = _tree_str(right) if isinstance(right, str) else f"({_tree_str(right)})"
    return f"{ls}*{rs}"


def format_identity(schema: IdentitySchema) -> str:
    parts = []
    for k, m in enumerate(schema.monomials):
        mag = abs(m.coeff)
        body = _tree_str(m.tree)
        if mag != 1:
            body = f"{mag}*{body}"
        if k == 0:
            parts.append(body if m.coeff > 0 else f"-{body}")
        else:
            parts.append(("+ " if m.coeff > 0 else "- ") + body)
    return " ".join(parts) + " = 0"


# ---------------------------------------------------------------------------
# multilinearization

def _fresh_names(base: str, count: int, taken: set):
    names = []
    for k in range(1, count + 1):
        cand = f"{base}{k}"
        while cand in taken:
            cand += "_"
        taken.add(cand)
        names.append(cand)
    return names


def _relabel(tree, copies, counters):
    if isinstance(tree, str):
        if tree in copies:
            k = counters[tree]
            counters[tree] += 1
            return copies[tree][k]
        return tree
    return (_relabel(tree[0], copies, counters), _relabel(tree[1], copies, counters))


def multilinearize(schema: IdentitySchema):
    """Replace an identity by its multilinear components.

    Monomials are grouped by multidegree; in each group every variable of
    multiplicity m is replaced by a sum of m fresh variables and the
    component in which each fresh variable occurs exactly once is kept
    (all m! ways of distributing the copies over the occurrences).
    Equivalent to the original identity when the characteristic is 0 or
    exceeds the identity degree. Already-multilinear identities are
    returned unchanged.
    """
    groups: dict = {}
    for m in schema.monomials:
        counts = m.multiplicities()
        key = tuple(counts.get(v, 0) for v in schema.variables)
        groups.setdefault(key, []).append(m)
    out = []
    for key in groups:
        monos = groups[key]
        multi = {
            v: mult
            for v, mult in zip(schema.variables, key)
            if mult > 1
        }
        if not multi:
            out.append(_make_schema(monos))
            continue
        taken = set(schema.variables)
        copies = {v: _fresh_names(v, mult, taken) for v, mult in multi.items()}
        perms = [list(itertools.permutations(copies[v])) for v in multi]
        expanded = [
            Monomial(m.coeff, _relabel(m.tree, dict(zip(multi, combo)), dict.fromkeys(multi, 0)))
            for m in monos
            for combo in itertools.product(*perms)
        ]
        out.append(_make_schema(expanded))
    return out


# ---------------------------------------------------------------------------
# built-in varieties

@dataclass(frozen=True)
class VarietySpec:
    name: str
    identity_texts: tuple
    identities: tuple
    multilinear_identities: tuple

    @cached_property
    def char_exclusions(self) -> frozenset:
        """The characteristics that char_gate refuses: the primes up to the
        largest degree of a non-multilinear identity."""
        top = max((i.degree for i in self.identities if not i.is_multilinear), default=0)
        return frozenset(p for p in range(2, top + 1) if _is_prime(p))

    def char_gate(self, field: Field) -> None:
        """Multilinearized identities replace the originals only when the
        characteristic is 0 or exceeds the identity degree; refuse otherwise."""
        char = field.characteristic
        if char in self.char_exclusions:
            raise CharTooSmall(
                f"variety {self.name!r} has a non-multilinear identity of degree {char} "
                f"or more; characteristic {char} is too small"
            )


_CATALOG_TEXTS = {
    "associative": ("(x*y)*z = x*(y*z)",),
    "left_alternative": ("x*(x*y) = (x*x)*y",),
    "alternative": ("x*(x*y) = (x*x)*y", "(x*y)*y = x*(y*y)"),
    "jordan": ("x*y = y*x", "(x*x)*(y*x) = ((x*x)*y)*x"),
    "left_commutative": ("x*(y*z) = y*(x*z)",),
    "right_commutative": ("(x*y)*z = (x*z)*y",),
    "bicommutative": ("x*(y*z) = y*(x*z)", "(x*y)*z = (x*z)*y"),
    "assosymmetric": ("(x*y)*z - x*(y*z) = (y*x)*z - y*(x*z) = (x*z)*y - x*(z*y)",),
    "novikov": ("(x*y)*z = (x*z)*y", "(x*y)*z - x*(y*z) = (y*x)*z - y*(x*z)"),
    "left_symmetric": ("(x*y)*z - x*(y*z) = (y*x)*z - y*(x*z)",),
}

VARIETY_NAMES = tuple(_CATALOG_TEXTS)

VARIETY_ALIASES = {
    "lc": "left_commutative",
    "rc": "right_commutative",
    "bc": "bicommutative",
}

_cache: dict = {}


def builtin_variety(name) -> VarietySpec:
    """The built-in variety of a name or alias; a VarietySpec is returned
    unchanged, and anything else raises UnknownVariety."""
    if isinstance(name, VarietySpec):
        return name
    key = VARIETY_ALIASES.get(name, name) if isinstance(name, str) else None
    if key not in _CATALOG_TEXTS:
        raise UnknownVariety(f"no built-in variety named {name!r}")
    if key not in _cache:
        texts = _CATALOG_TEXTS[key]
        idents = tuple(s for t in texts for s in parse_identities(t))
        multi = tuple(s for ident in idents for s in multilinearize(ident))
        _cache[key] = VarietySpec(
            name=key,
            identity_texts=texts,
            identities=idents,
            multilinear_identities=multi,
        )
    return _cache[key]
