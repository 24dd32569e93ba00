"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are immutable, carry their field, and never leave exact
representations: rationals are stored as reduced ``fractions.Fraction``
values, prime-field elements as canonical residues in ``0..p-1``.  A
residue is reduced mod p in one place, ``Scalar.__init__``: the
operators, ``Field.scalar`` and ``Field.from_raw`` hand it any
representative.  Inner loops elsewhere in the package work on raw values
instead (see ``Scalar.raw`` and ``Field.from_raw``), reduce them there,
and build scalars only for results, which combine only with Scalars of
their field (a number raises TypeError; ``==`` alone reads one).  One
reader, ``Field._raw``, reads every scalar entry from outside (an int,
Fraction, literal or Scalar) and refuses a bad one with MalformedInput,
FieldMismatch or DivisionByZero; ``Field._raw_row`` reads a vector with
it and checks the length.

Every number read from outside the package (literals, flags, specs, the
budget variable, JSON files) follows the grammar of ``read_number``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    CompositeModulus,
    DimMismatch,
    DivisionByZero,
    FieldMismatch,
    MalformedInput,
    ModulusTooLarge,
)

# Miller-Rabin with the first 13 primes as bases is deterministic below
# this bound (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MODULUS_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic primality for p < MODULUS_LIMIT (larger p raise)."""
    if p >= MODULUS_LIMIT:
        raise ModulusTooLarge(f"modulus {p} is too large to certify as prime")
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """The field of rationals (``p is None``) or the prime field F_p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise CompositeModulus(f"modulus {p} is not prime")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(p)

    @classmethod
    def from_spec(cls, spec: str) -> "Field":
        """Parse a field spec string: ``"Q"`` or ``"Fp:<p>"``."""
        if spec == "Q":
            return cls(None)
        if spec.startswith("Fp:"):
            try:
                p = read_number(spec[3:], integer=True)
            except ValueError:
                raise CompositeModulus(f"bad field spec {spec!r}") from None
            return cls(p)
        raise CompositeModulus(f"bad field spec {spec!r}; expected 'Q' or 'Fp:<p>'")

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    def spec(self) -> str:
        return "Q" if self.p is None else f"Fp:{self.p}"

    def scalar(self, value) -> "Scalar":
        """The Scalar of an entry from outside, read by ``_raw``."""
        return self.from_raw(self._raw(value))

    def _raw(self, value):
        """The raw value (``Scalar.raw``) of an int, Fraction, literal string
        (``read_number``) or Scalar of this field.  FieldMismatch for a Scalar
        of another field, DivisionByZero for a denominator that vanishes mod
        p, MalformedInput for anything else."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"scalar of {value.field} used in {self}")
            return value.raw
        if isinstance(value, str):
            value = read_number(value)
        elif isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise MalformedInput(f"cannot read a scalar from {value!r}")
        p, num, den = self.p, value.numerator, value.denominator
        if p is None:
            return num if den == 1 else value
        if den % p == 0:
            raise DivisionByZero(f"denominator of {value} vanishes mod {p}")
        return num * pow(den, -1, p) % p

    def _raw_row(self, values, n: int) -> dict:
        """{position: raw value} of the nonzero entries of a vector a caller
        hands in: exactly n entries (DimMismatch otherwise), each read by
        ``_raw``."""
        if isinstance(values, dict):  # its length and its entries are not a vector's
            raise DimMismatch(f"a {{position: value}} dict where a vector of {n} entries is expected")
        if len(values) != n:
            raise DimMismatch(f"vector of length {len(values)} where {n} entries are expected")
        return {k: x for k, v in enumerate(values) if (x := self._raw(v))}

    @property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @property
    def one(self) -> "Scalar":
        return self.scalar(1)

    def from_raw(self, value) -> "Scalar":
        """The scalar of a raw value: an int or Fraction over Q, an int
        (any representative) over F_p.  Unlike ``scalar`` it does no
        type checking, for converting results of raw-value loops."""
        return Scalar(self, value if self.p else Fraction(value))

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"Field({self.spec()})"


class Scalar:
    """An immutable field element supporting exact arithmetic."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        # callers outside this module should go through Field.scalar; the
        # one reduction of a residue mod p
        p = field.p
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value % p if p else value)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(
                    f"cannot combine scalars of {self.field} and {other.field}"
                )
            return other
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.value + o.value)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.value - o.value)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.value * o.value)

    def __neg__(self):
        return Scalar(self.field, -self.value)

    def inv(self) -> "Scalar":
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        return Scalar(self.field, pow(self.value, -1, self.field.p))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        return Scalar(self.field, pow(self.value, k, self.field.p))

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_one(self) -> bool:
        return self.value == 1

    @property
    def raw(self):
        """The plain value for inner loops: the residue over F_p; over Q
        an int when integral, the Fraction otherwise."""
        v = self.value
        if type(v) is Fraction and v.denominator == 1:
            return v.numerator
        return v

    def literal(self) -> str:
        """Canonical text form: decimal integer or ``a/b``."""
        return str(self.value)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field == other.field and self.value == other.value
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            p = self.field.p  # a denominator that vanishes mod p names no element
            return not (p and other.denominator % p == 0) and self.value == self.field._raw(other)
        return NotImplemented

    def __lt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.value < o.value

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __repr__(self):
        return f"{self.literal()}@{self.field.spec()}"


RATIONALS = Field(None)


def json_value(data, key: str, kind=None):
    """data[key] of a parsed JSON object, an instance of kind when kind is
    given (a bool is no int); MalformedInput otherwise."""
    if not isinstance(data, dict) or key not in data:
        raise MalformedInput(f"expected a JSON object with key {key!r}")
    value = data[key]
    if kind and (isinstance(value, bool) or not isinstance(value, kind)):
        raise MalformedInput(f"key {key!r} holds {value!r}, a value of the wrong type")
    return value


def json_entries(field: Field, data, key: str, names, n: int, read=None) -> dict:
    """{0-based indices: value} for the entries of the JSON list data[key],
    objects whose 1-based int indices ``names`` lie in 1..n (DimMismatch)
    and repeat no earlier entry's (MalformedInput); the value is
    read(entry), or else the raw value (``Field._raw``) of "c"."""
    entries = {}
    for entry in json_value(data, key, list):
        at = tuple(json_value(entry, name, int) - 1 for name in names)
        if at in entries or not all(0 <= x < n for x in at):
            where = f"entry {' '.join(f'{a}={x + 1}' for a, x in zip(names, at))} of {key!r}"
            if at in entries:
                raise MalformedInput(f"{where} is repeated")
            raise DimMismatch(f"{where} is outside 1..{n}")
        entries[at] = read(entry) if read else field._raw(json_value(entry, "c"))
    return entries


_NUMBER = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def read_number(text: str, integer: bool = False):
    """The number that text from outside spells in the one grammar of such
    numbers: an optional sign, ASCII digits and, unless ``integer``,
    optionally '/' and more ASCII digits; nothing else.  An int when
    integral, else a Fraction; MalformedInput or DivisionByZero otherwise."""
    m = _NUMBER.fullmatch(text)
    if m is None or integer and m[1]:
        raise MalformedInput(f"{text!r} is not {'an integer' if integer else 'a rational number'}")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise DivisionByZero(f"literal {text!r} has a zero denominator") from None
    except ValueError:  # more digits than int() converts
        raise MalformedInput(f"a literal of {len(text)} characters is too long") from None
    return value.numerator if value.denominator == 1 else value
