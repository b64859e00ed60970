"""Command-line surface: every subcommand is a deterministic, exact
computation with canonical JSON (sorted keys) or CSV output.

One parser serves every subcommand: the command is its first positional,
and the twelve flags, declared once, may come before or after it. A flag
that takes a value reads the next token whatever it starts with, so
`--coeffs -75,0,0,-100` works as `--coeffs=-75,0,0,-100` does. `orbits`
honours `--budget` as the number of forms its lex scan may classify
(default 10^6; every p = 1 mod 3 below 3000 needs under a hundred), and
over it exits 1 with `budget-exceeded`. `stab` scans nothing: a
non-diagonal stabilizer is conjugated from a normal form's, so it ignores
`--budget`. Nor do `lambda-kernel` and `cover-point`: the curve order, the
kernel of lambda, the F_{p^3} modulus and its cube roots come from closed
forms, so both answer at any prime.

`reduce` evaluates `--expr` in the algebra where that pays: products of
monomials stay single words, while a power of a sum and a product of two
sums are products of normal forms (so `(x+y)^16` costs a few products, not
65536 words). Reduction is a homomorphism onto canonical normal forms, so
the JSON is that of the expanded element. `--budget` (default 10^6) bounds
the work in units: the terms of each free value and the S-monomials of each
normal form made, the letters folded and built into words, and before each
product of normal forms the product of their sizes. Over it, exit 1 with
`budget-exceeded` and the units used.

Exit codes: 0 success, 1 domain error (machine-readable code on stderr),
2 usage error. An integer literal longer than the interpreter's int<->str
limit is a parse error, and a result holding such an integer ends in
`number-too-large`; so does, before it is computed, a literal power over Q
or Q(w) whose exponent times bit length is over 2^18 (``Scalar.__pow__``),
and a monomial exponent above 2^30 - 1 (``spoly.MAX_EXPONENT``).

Only the forms and curves layers load with this module. The six algebra
subcommands (`reduce`, `verify-identities`, `clifford-iso`, `symbol-check`,
`brauer-probe`, `gamma-free`) import ``gca`` or ``cliffordf`` when they run,
so the other ten never compile the algebra layers where bytecode is not
cached.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys

from . import curves, forms
from ._parsing import ExprParser
from .errors import CubicliffordError, NumberTooLarge
from .fields import FieldSpec, Scalar


def __getattr__(name):
    # ``cli.parse_free_expression`` resolves, without ``freealg`` loading at
    # import, for the benchmark tracer that wraps the name here
    if name == "parse_free_expression":
        from .freealg import parse_free_expression

        return parse_free_expression
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    pass


def parse_scalar_literal(field: FieldSpec, text: str) -> Scalar:
    def symbol(name, pos):
        if name == "w":
            return field.omega()
        raise UsageError(f"unknown symbol {name!r} in a scalar literal")

    try:
        return ExprParser(text.strip(), field.scalar, symbol).parse()
    except NumberTooLarge:  # a power over its cap (``Scalar.__pow__``): a domain error
        raise
    except CubicliffordError as err:
        raise UsageError(f"bad scalar literal {text!r}: {err}") from err


def field_from_args(args) -> FieldSpec:
    kind = args.field
    if kind == "Q":
        return FieldSpec.rationals()
    if kind == "Qw":
        return FieldSpec.cyclotomic()
    if args.p is None:
        raise UsageError("--field Fp requires --p")
    return FieldSpec.prime(args.p, args.omega)


def _four_literals(field, text, flag, shape):
    """The four comma-separated scalar literals of a --coeffs or --matrix."""
    if text is None:
        raise UsageError(f"this subcommand requires {flag} {shape}")
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"{flag} needs exactly 4 comma-separated values")
    return [parse_scalar_literal(field, t) for t in parts]


def form_from_args(args, field) -> forms.BinaryCubicForm:
    values = _four_literals(field, args.coeffs, "--coeffs", "c0,c1,c2,c3")
    if args.threes:
        three = field.scalar(3)
        values[1] = values[1] * three
        values[2] = values[2] * three
    return forms.BinaryCubicForm(field, values)


def matrix_from_args(args, field) -> forms.GL2Element:
    return forms.GL2Element(field, _four_literals(field, args.matrix, "--matrix", "a,b,c,d"))


def emit_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- subcommand handlers -------------------------------------------------------


def cmd_reduce(args, field):
    from . import gca

    if args.expr is None:
        raise UsageError("reduce requires --expr")
    return gca.GenericCliffordAlgebra(field).reduce_text(args.expr, args.budget).to_json()


def cmd_verify_identities(args, field):
    from . import gca

    report = gca.GenericCliffordAlgebra(field).verify_center_identities()
    passed = sum(1 for v in report.values() if v["pass"])
    return {"identities": report, "passed": passed, "total": len(report)}


def cmd_disc(args, field):
    return {"delta": form_from_args(args, field).discriminant().to_json()}


def cmd_act(args, field):
    g = matrix_from_args(args, field)
    f = form_from_args(args, field)
    return {"coeffs": [c.to_json() for c in forms.act_gl2(g, f).coeffs]}


def cmd_diagonalize(args, field):
    f = form_from_args(args, field)
    g, d = forms.diagonalize(f)
    return {"transform": g.to_json(), "diagonal": [c.to_json() for c in d.coeffs]}


def cmd_stab(args, field):
    return forms.stabilizer(form_from_args(args, field)).to_json()


def cmd_orbits(args, field):
    orbits = forms.orbit_enumerate(field, args.nondegenerate, args.budget)
    rows = [
        {
            "representative": list(o.representative),
            "size": o.size,
            "stabilizer_order": o.stabilizer_order,
            "delta": o.delta.to_json(),
            "delta_class6": o.delta_class6,
            "has_point": curves.point_search(o.representative_form()) is not None
            if not o.delta.is_zero()
            else None,
        }
        for o in orbits
    ]
    if args.format == "csv":
        out = io.StringIO()
        out.write("representative,size,stabilizer_order,delta,delta_class6,has_point\n")
        for r in rows:
            rep = " ".join(str(v) for v in r["representative"])
            cls = "" if r["delta_class6"] is None else r["delta_class6"]
            pt = "" if r["has_point"] is None else str(r["has_point"]).lower()
            out.write(f"{rep},{r['size']},{r['stabilizer_order']},{r['delta']},{cls},{pt}\n")
        return out.getvalue()
    return {"orbits": rows, "count": len(rows)}


def cmd_jacobian(args, field):
    return {"A": curves.jacobian_constant(form_from_args(args, field)).to_json()}


def cmd_torsion(args, field):
    f = form_from_args(args, field)
    a = curves.jacobian_constant(f)
    pts = curves.torsion_points(field, a)
    return {"A": a.to_json(), "points": [p.to_json() for p in pts], "order": len(pts)}


def cmd_lambda_kernel(args, field):
    f = form_from_args(args, field)
    a = curves.jacobian_constant(f)
    order = curves.curve_order(field, a)
    # the theta-fixed points, each checked to be in the kernel (``curves.lambda_kernel``)
    points = [p.to_json() for p in curves.lambda_kernel(field, a)]
    return {
        "A": a.to_json(),
        "curve_order": order,
        "kernel": points,
        "torsion": points,
        "kernel_equals_torsion": True,
    }


def cmd_point_search(args, field):
    f = form_from_args(args, field)
    point = curves.point_search(f, args.budget)
    if point is None:
        return {"point": None, "status": "absent-within-budget"}
    return {"point": point.to_json(), "status": "found"}


def cmd_cover_point(args, field):
    f = form_from_args(args, field)
    point = curves.construct_cover_point(f, args.which)
    return {
        "point": point.to_json(),
        "field": "Fp3" if point.extension is not None else "Fp",
    }


def cmd_clifford_iso(args, field):
    from . import cliffordf

    g = matrix_from_args(args, field)
    f = form_from_args(args, field)
    return cliffordf.check_clifford_iso(g, f).to_json()


def cmd_symbol_check(args, field):
    from . import cliffordf

    return cliffordf.symbol_relations_check(form_from_args(args, field)).to_json()


def cmd_brauer_probe(args, field):
    from . import cliffordf

    f = form_from_args(args, field)
    return cliffordf.brauer_triviality_probe(f, args.budget).to_json()


def cmd_gamma_free(args, field):
    from . import cliffordf

    f = form_from_args(args, field)
    return {
        "independent": cliffordf.gamma_independence_check(f, args.bound),
        "bound": args.bound,
    }


_HANDLERS = {
    "reduce": cmd_reduce,
    "verify-identities": cmd_verify_identities,
    "disc": cmd_disc,
    "act": cmd_act,
    "diagonalize": cmd_diagonalize,
    "stab": cmd_stab,
    "orbits": cmd_orbits,
    "jacobian": cmd_jacobian,
    "torsion": cmd_torsion,
    "lambda-kernel": cmd_lambda_kernel,
    "point-search": cmd_point_search,
    "cover-point": cmd_cover_point,
    "clifford-iso": cmd_clifford_iso,
    "symbol-check": cmd_symbol_check,
    "brauer-probe": cmd_brauer_probe,
    "gamma-free": cmd_gamma_free,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built once per process: parsing reads it and
    leaves it unchanged, and each parse starts from its defaults."""
    parser = argparse.ArgumentParser(
        prog="cubiclifford",
        description="Exact computations with binary cubic forms, their "
        "Clifford algebras, and the attached elliptic curves.",
    )
    parser.add_argument("command", choices=tuple(_HANDLERS))
    parser.add_argument("--field", choices=("Q", "Qw", "Fp"), required=True)
    parser.add_argument("--p", type=int, default=None, help="prime (Fp only)")
    parser.add_argument("--omega", type=int, default=None, help="cube root of 1 mod p")
    parser.add_argument("--coeffs", default=None, help="c0,c1,c2,c3")
    parser.add_argument(
        "--threes",
        action="store_true",
        help="multiply the two middle input coefficients by 3 on ingestion",
    )
    parser.add_argument("--expr", default=None, help="free-algebra expression")
    parser.add_argument("--matrix", default=None, help="a,b,c,d")
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--bound", type=int, default=2, help="gamma-degree bound (gamma-free)")
    parser.add_argument(
        "--which", type=int, choices=(1, 2, 3, 4), default=1, help="cover index (cover-point)"
    )
    parser.add_argument("--nondegenerate", action="store_true", help="restrict orbit enumeration")
    return parser


def _join_flag_values(parser, argv):
    """argv with each value-taking flag joined to the token after it as
    `--flag=value`, so that a value starting with `-` is not read as a flag.
    Each such flag takes exactly one value, so the join is unambiguous."""
    takes_value = {
        flag for action in parser._actions if action.nargs is None
        for flag in action.option_strings
    }
    joined = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in takes_value else None
        joined.append(token if value is None else f"{token}={value}")
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_flag_values(parser, sys.argv[1:] if argv is None else argv))
    try:
        field = field_from_args(args)
        result = _HANDLERS[args.command](args, field)
        text = result if isinstance(result, str) else emit_json(result) + "\n"
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except CubicliffordError as err:
        return _domain_error(err)
    except ValueError as err:
        if "integer string conversion" not in str(err):  # only the digit limit
            raise
        return _domain_error(
            NumberTooLarge(
                f"the result has an integer of more than {sys.get_int_max_str_digits()} "
                "digits, the interpreter's limit for printing one"
            )
        )
    sys.stdout.write(text)
    return 0


def _domain_error(err: CubicliffordError) -> int:
    print(emit_json({"error": err.code, "message": str(err)}), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
