"""Command-line interface.

Every subcommand prints a single JSON document (sorted keys, indented)
to stdout.  Exit codes: 0 success, 1 a verification subcommand found a
failing row or claim, 2 usage or computation error.  The argument
grammar is built once, at import, and every `main` call reuses it.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .algebra import Algebra, null_filiform
from .automorphisms import act_on_cocycle, automorphism_from_column
from .cohomology import second_cohomology
from .errors import CentextError, DimMismatch, FieldMismatch, InvalidDim, MalformedInput
from .extensions import central_extension
from .fields import RATIONALS, Field, read_number
from .forms import BilinearForm, delta, nabla
from .identities import builtin_variety, format_identity, VARIETY_NAMES
from .orbits import (
    automorphism_count,
    check_table1,
    orbits_on_H2,
    orbits_on_T1,
)
from .reproduce import run_reproduction

# the most digits `aut --count` prints: CPython's default int-to-str limit
_MAX_COUNT_DIGITS = 4300
_COUNT_LIMIT = 10**_MAX_COUNT_DIGITS

# One term of a cocycle expression: signs, a coefficient with or without
# '*', then nabla_<j> or delta_<i>_<k>, with ASCII digits 0-9.  Every part
# is optional, so a match always succeeds, and where it stops short of an
# atom tells what is wrong.
_TERM = re.compile(
    r"(?P<signs>(?:\s*[+-])*)"
    r"(?:\s*(?P<coeff>[0-9]+(?:/[0-9]+)?)(?:\s*(?P<star>\*))?)?"
    r"(?:\s*(?P<atom>(?P<name>nabla|delta)(?P<idx>(?:_(?:[0-9]+|n))+)))?"
)
_ATOMS = {"nabla": (nabla, 1, "one index"), "delta": (delta, 2, "two indices")}


def parse_cocycle_expr(text: str, n: int, field: Field) -> BilinearForm:
    """Parse a form expression such as 'nabla_n + 3*delta_2_1' or
    '1/2*delta_1_1 - delta_n_1': terms nabla_<j> and delta_<i>_<k>, each
    after optional signs and a coefficient ('2 nabla_3' is 2*nabla_3),
    with a sign before every term after the first.  The letter n in an
    index stands for the algebra dimension."""
    total = BilinearForm.zero(field, n)
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        if pos and m.end() > pos and not m["signs"]:
            raise MalformedInput(f"no '+' or '-' before the term at {text[pos:].lstrip()!r}")
        coeff = RATIONALS.scalar(m["coeff"]).value if m["coeff"] else 1
        if not m["atom"]:
            break
        c = field.scalar((-1) ** m["signs"].count("-") * coeff)
        idx = [n if g == "n" else read_number(g, integer=True) for g in m["idx"][1:].split("_")]
        build, arity, what = _ATOMS[m["name"]]
        if len(idx) != arity:
            raise MalformedInput(f"{m['name']} takes {what}, got {m['atom']!r}")
        total = total + c * build(*idx, n, field)
        pos = m.end()
    rest = text[m.end():]
    head = rest.lstrip()[:1]
    if not head and pos and m.end() == pos:
        return total
    if "0" <= head <= "9":
        raise MalformedInput("two coefficients in a row")
    if head == "*":
        raise MalformedInput("two '*' in a row" if m["star"] else "'*' without a coefficient")
    if head in ("+", "-"):
        raise MalformedInput("dangling coefficient in cocycle expression")
    if head:
        raise MalformedInput(f"cannot read cocycle expression at {rest!r}")
    raise MalformedInput(f"incomplete cocycle expression {text!r}")


def _json_object(pairs) -> dict:
    """A JSON object's dict; a key given twice is refused, not overwritten."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise MalformedInput(f"repeated key '{key}'")
        out[key] = value
    return out


def _read_json(path: str):
    """The JSON document in a file, after a leading UTF-8 byte-order mark
    if any, its integers read by ``read_number``; a file that is no JSON
    (too deeply nested, or repeating a key) is a MalformedInput naming it."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh, parse_int=lambda s: read_number(s, integer=True), object_pairs_hook=_json_object)
        except RecursionError:
            raise MalformedInput(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:
            raise MalformedInput(f"{path}: {exc}") from None


def _load_algebra(spec: str, field: Field) -> Algebra:
    if spec.startswith("mu0:"):
        try:
            n = integer(spec[4:])
        except ValueError:
            raise MalformedInput(
                f"--algebra {spec!r}: expected mu0:<dimension> or a JSON file"
            ) from None
        return null_filiform(n, field)
    return Algebra.from_json(_read_json(spec))


def _load_cocycle(spec: str, algebra: Algebra) -> BilinearForm:
    if spec.startswith("named:") or spec.startswith("expr:"):
        text = spec.split(":", 1)[1]
        return parse_cocycle_expr(text, algebra.dim, algebra.field)
    theta = BilinearForm.from_json(_read_json(spec))
    if theta.field != algebra.field:
        raise FieldMismatch("cocycle file field differs from the algebra's")
    if theta.n != algebra.dim:
        raise DimMismatch("cocycle file dimension differs from the algebra's")
    return theta


def integer(text: str) -> int:
    return read_number(text, integer=True)


def positive_int(text: str) -> int:
    value = integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_list(text: str, flag: str, parse, what: str) -> list:
    """The comma-separated values of a flag, read by parse before any work
    starts; a value that parse refuses is a MalformedInput naming the flag."""
    values = []
    for item in text.split(","):
        try:
            values.append(parse(item))
        except CentextError:
            raise MalformedInput(f"{flag}: {item!r} is not {what}") from None
    return values


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_identities(args) -> int:
    variety = builtin_variety(args.variety)
    out = {
        "variety": variety.name,
        "char_exclusions": sorted(variety.char_exclusions),
        "identities": [
            {
                "text": text,
                "formatted": format_identity(schema),
                "degree": schema.degree,
                "multilinear": schema.is_multilinear,
            }
            for text, schema in zip(variety.identity_texts, variety.identities)
        ],
        "multilinearized": [format_identity(s) for s in variety.multilinear_identities],
    }
    _emit(out)
    return 0


def _cmd_cohomology(args) -> int:
    field = Field.from_spec(args.field)
    algebra = _load_algebra(args.algebra, field)
    variety = builtin_variety(args.variety)
    h = second_cohomology(algebra, variety)
    _emit(
        {
            "algebra": {"dim": algebra.dim, "field": algebra.field.spec()},
            "variety": variety.name,
            "dim_z": h.dim_z,
            "dim_b": h.dim_b,
            "dim_h": h.dim_h,
            "z_basis": [t.to_json() for t in h.z_basis],
            "b_basis": [t.to_json() for t in h.b_basis],
            "h_representatives": [
                {"label": lab, "form": t.to_json()}
                for lab, t in zip(h.h_labels, h.h_reps)
            ],
            "preferred_basis_used": h.preferred_basis_used,
        }
    )
    return 0


def _cmd_extend(args) -> int:
    field = Field.from_spec(args.field)
    algebra = _load_algebra(args.algebra, field)
    variety = builtin_variety(args.variety)
    thetas = [_load_cocycle(spec, algebra) for spec in args.cocycle]
    result = central_extension(algebra, thetas, variety)
    t1 = None
    if len(thetas) == 1:
        # in T1: the class is nonzero and f_1 alone spans the annihilator
        t1 = result.non_split and result.annihilator_dim == 1
    _emit(
        {
            "base": algebra.to_json(),
            "variety": variety.name,
            "cocycles": [t.to_json() for t in thetas],
            "extended": result.extended.to_json(),
            "non_split": result.non_split,
            "annihilator_dim": result.annihilator_dim,
            "class_coordinates": [
                [c.literal() for c in row] for row in result.class_coords
            ],
            "t1": t1,
        }
    )
    return 0


def _cmd_aut(args) -> int:
    field = Field.from_spec(args.field)
    out = {"n": args.n, "field": field.spec()}
    if args.count:
        # (p-1) p^(n-1) >= 2^((n-1)(b-1)) for a p of b bits: when that bound
        # is already too long, refuse before computing the order
        p = field.p
        if (p and (args.n - 1) * (p.bit_length() - 1) >= _COUNT_LIMIT.bit_length()
                or (count := automorphism_count(args.n, field)) >= _COUNT_LIMIT):
            raise InvalidDim(f"the group order has more than {_MAX_COUNT_DIGITS} digits")
        out["count"] = count
    if args.col is not None:
        phi = automorphism_from_column(args.n, field, args.col.split(","))
        out["column"] = [c.literal() for c in phi.first_col]
        out["matrix"] = [[c.literal() for c in row] for row in phi.matrix]
        out["phi11"] = phi.phi11.literal()
    if not args.count and args.col is None:
        raise MalformedInput("aut needs --col and/or --count")
    _emit(out)
    return 0


def _cmd_act(args) -> int:
    field = Field.from_spec(args.field)
    algebra = null_filiform(args.n, field)
    phi = automorphism_from_column(args.n, field, args.col.split(","))
    theta = _load_cocycle(args.cocycle, algebra)
    image = act_on_cocycle(phi, theta)
    out = {
        "n": args.n,
        "field": field.spec(),
        "column": [c.literal() for c in phi.first_col],
        "cocycle": theta.to_json(),
        "image": image.to_json(),
    }
    if args.variety is not None:
        h = second_cohomology(algebra, builtin_variety(args.variety))
        out["variety"] = h.variety.name
        out["class_before"] = [c.literal() for c in h.reduce_class(theta)]
        out["class_after"] = [c.literal() for c in h.reduce_class(image)]
    _emit(out)
    return 0


def _cmd_classify(args) -> int:
    field = Field.from_spec(args.field)
    fn = orbits_on_T1 if args.level == "t1" else orbits_on_H2
    report = fn(args.n, args.variety, field, budget=args.budget)
    _emit(report.to_json(include_members=args.members))
    return 0


def _cmd_verify_table1(args) -> int:
    field = Field.from_spec(args.field)
    mu = None
    if args.mu is not None:
        mu = _parse_list(args.mu, "--mu", field.scalar, f"a scalar of {field.spec()}")
    rows = check_table1(args.n, field, mu)
    ok = all(r["ok"] for r in rows)
    _emit({"n": args.n, "field": field.spec(), "rows": rows, "ok": ok})
    return 0 if ok else 1


def _cmd_reproduce(args) -> int:
    primes = tuple(_parse_list(args.primes, "--primes", integer, "an integer"))
    report = run_reproduction(
        n_max=args.n_max, seed=args.seed, budget=args.budget, orbit_primes=primes
    )
    _emit(report)
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centext",
        description="central extensions of null-filiform algebras, exactly",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities", help="show a variety's defining identities")
    p.add_argument("--variety", required=True, help=f"one of {', '.join(VARIETY_NAMES)}")
    p.set_defaults(fn=_cmd_identities)

    p = sub.add_parser("cohomology", help="cocycle and cohomology spaces")
    p.add_argument("--algebra", required=True, help="mu0:N or a JSON file")
    p.add_argument("--field", default="Q", help="Q or Fp:<prime> (default Q)")
    p.add_argument("--variety", required=True)
    p.set_defaults(fn=_cmd_cohomology)

    p = sub.add_parser("extend", help="build a central extension")
    p.add_argument("--algebra", required=True, help="mu0:N or a JSON file")
    p.add_argument("--field", default="Q")
    p.add_argument("--variety", required=True)
    p.add_argument(
        "--cocycle",
        action="append",
        required=True,
        help="named:<token>, expr:<expression>, or a JSON file; repeatable",
    )
    p.set_defaults(fn=_cmd_extend)

    p = sub.add_parser("aut", help="automorphisms of the null-filiform algebra")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--field", default="Q")
    p.add_argument("--col", help="comma-separated first column, e.g. 1,2,0")
    p.add_argument("--count", action="store_true", help="print the group order")
    p.set_defaults(fn=_cmd_aut)

    p = sub.add_parser("act", help="apply an automorphism to a cocycle")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--field", default="Q")
    p.add_argument("--col", required=True)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--variety", help="also reduce to class coordinates")
    p.set_defaults(fn=_cmd_act)

    p = sub.add_parser("classify", help="orbit classification over a finite field")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--field", required=True, help="Fp:<prime>")
    p.add_argument("--variety", required=True)
    p.add_argument("--level", choices=("h2", "t1"), default="t1")
    p.add_argument("--members", action="store_true", help="list orbit members")
    p.add_argument("--budget", type=positive_int, help="enumeration budget override")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("verify-table1", help="verify the extension table rows")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--field", default="Q")
    p.add_argument("--mu", help="comma-separated parameter sample, default field-dependent")
    p.set_defaults(fn=_cmd_verify_table1)

    p = sub.add_parser("reproduce", help="run the full claim battery")
    p.add_argument("--n-max", type=integer, default=6)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--budget", type=positive_int)
    p.add_argument("--primes", default="3,5", help="comma-separated orbit primes, default 3,5")
    p.set_defaults(fn=_cmd_reproduce)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except (CentextError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
