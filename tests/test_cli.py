"""CLI surface: schemas, determinism, exit codes."""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import distinct_roots_factor, fp3_mul

from cubiclifford.cli import build_parser, main
from cubiclifford.curves import EllipticPoint, ell_mul
from cubiclifford.fields import FieldSpec, Scalar, sqrt_in_field
from cubiclifford.errors import NumberTooLarge
from cubiclifford.forms import BinaryCubicForm, GL2Element, act_gl2


P64 = 18446744073709551427  # a prime above 2^64, 1 mod 3
QW = FieldSpec.cyclotomic()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def is_least_cube_root(r, p):
    """r is the least of r, r*w, r*w^2 mod p, w a primitive cube root of 1."""
    g = 2
    while pow(g, (p - 1) // 3, p) == 1:
        g += 1
    w = pow(g, (p - 1) // 3, p)
    return r == min(r * w**k % p for k in range(3))


def assert_point_or_typed_error(code, out, err, coeffs, p, chosen_root):
    """Exit 0 with a point on w^3 = f(u, v) whose chosen cube root is the
    least of its three, or exit 1 with a JSON error code."""
    if code == 1:
        assert isinstance(json.loads(err)["error"], str)
        return
    assert code == 0
    pt = json.loads(out)["point"]
    u, v, w = pt["u"], pt["v"], pt["w"]
    c0, c1, c2, c3 = coeffs
    value = (c0 * u**3 + c1 * u * u * v + c2 * u * v * v + c3 * v**3) % p
    assert pow(w, 3, p) == value
    assert is_least_cube_root(pt[chosen_root], p)


def test_reduce_zero_vector(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--field", "Qw", "--expr", "x^3*y - y*x^3")
    assert code == 0
    blob = json.loads(out)
    assert blob["coords"] == ["0"] * 18


def test_reduce_delta_relation(capsys):
    code, out, _ = run_cli(
        capsys, "reduce", "--field", "Fp", "--p", "7", "--expr", "(y*x - w*x*y)^3"
    )
    assert code == 0
    coords = json.loads(out)["coords"]
    assert coords[17] == "3"


def test_verify_identities_pass(capsys):
    for extra in ((), ("--omega", "2"), ("--omega", "4")):
        code, out, _ = run_cli(
            capsys, "verify-identities", "--field", "Fp", "--p", "7", *extra
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["passed"] == blob["total"] == 4


def test_orbits_csv_frozen(capsys):
    code, out, _ = run_cli(
        capsys, "orbits", "--field", "Fp", "--p", "7", "--nondegenerate", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "representative,size,stabilizer_order,delta,delta_class6,has_point"
    assert len(lines) == 10  # header + frozen orbit count 9
    assert lines[1] == "0 1 0 1,336,6,3,3,true"


def test_orbits_json(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--field", "Fp", "--p", "7", "--nondegenerate")
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == 9
    assert sum(o["size"] for o in blob["orbits"]) == 2016


def test_determinism_byte_identical(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "stab", "--field", "Fp", "--p", "13", "--coeffs", "1,0,0,5"
        )
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_act_and_threes(capsys):
    code, out, _ = run_cli(
        capsys, "act", "--field", "Q", "--matrix", "0,1,1,0", "--coeffs", "1,2,3,4"
    )
    assert code == 0
    assert json.loads(out)["coeffs"] == [4, 3, 2, 1]
    code, out, _ = run_cli(capsys, "disc", "--field", "Q", "--coeffs", "1,1,1,1", "--threes")
    assert json.loads(out)["delta"] == 0  # (1,3,3,1) = (u+v)^3 is degenerate


def test_qw_scalar_literals(capsys):
    code, out, _ = run_cli(
        capsys, "disc", "--field", "Qw", "--coeffs", "1,w,-w,1/2"
    )
    assert code == 0


def test_diagonalize_and_stab(capsys):
    code, out, _ = run_cli(capsys, "diagonalize", "--field", "Fp", "--p", "7", "--coeffs", "0,1,1,0")
    assert code == 0
    blob = json.loads(out)
    assert blob["diagonal"][1] == 0 and blob["diagonal"][2] == 0
    code, out, _ = run_cli(capsys, "stab", "--field", "Fp", "--p", "7", "--coeffs", "1,0,0,1")
    assert json.loads(out)["order"] == 18


def test_torsion_and_lambda_kernel(capsys):
    code, out, _ = run_cli(capsys, "torsion", "--field", "Fp", "--p", "7", "--coeffs", "1,0,0,1")
    blob = json.loads(out)
    assert blob["A"] == 2 and blob["order"] == 3
    code, out, _ = run_cli(capsys, "lambda-kernel", "--field", "Fp", "--p", "7", "--coeffs", "1,0,0,1")
    blob = json.loads(out)
    assert blob["kernel_equals_torsion"] is True
    assert blob["curve_order"] == 9


def test_point_search_and_probe(capsys):
    code, out, _ = run_cli(capsys, "point-search", "--field", "Q", "--coeffs", "1,0,0,1")
    blob = json.loads(out)
    assert blob["status"] == "found" and blob["point"] == {"u": 1, "v": 0, "w": 1}
    code, out, _ = run_cli(
        capsys, "point-search", "--field", "Q", "--coeffs=-75,0,0,-100", "--budget", "4"
    )
    assert json.loads(out)["status"] == "absent-within-budget"
    code, out, _ = run_cli(capsys, "brauer-probe", "--field", "Q", "--coeffs", "1,0,0,1")
    assert json.loads(out)["status"] == "trivial"
    code, out, err = run_cli(
        capsys, "point-search", "--field", "Fp", "--p", str(P64), "--coeffs", "1,0,0,1",
        "--budget", "5",
    )
    assert_point_or_typed_error(code, out, err, (1, 0, 0, 1), P64, "w")


def test_cover_point(capsys):
    code, out, _ = run_cli(
        capsys, "cover-point", "--field", "Fp", "--p", "7", "--coeffs", "3,0,0,1", "--which", "1"
    )
    blob = json.loads(out)
    assert blob["field"] == "Fp3"
    assert blob["point"]["modulus"] == [1, 0, 1]
    # 3 is not a cube mod P64, so the point is (r : 0 : r^2) over F_{p^3}
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "cover-point", "--field", "Fp", "--p", str(P64), "--coeffs", "3,0,0,1",
        "--which", "1",
    )
    assert code == 0 and time.perf_counter() - start < 1
    blob = json.loads(out)
    assert blob["field"] == "Fp3"
    pt = blob["point"]
    modulus = tuple(pt["modulus"])
    assert distinct_roots_factor((*modulus, 1), P64) == (1,)  # no root: irreducible
    r = tuple(pt["u"])
    r2 = fp3_mul(r, r, modulus, P64)
    assert pt["v"] == [0, 0, 0] and tuple(pt["w"]) == r2
    assert fp3_mul(r2, r, modulus, P64) == (3, 0, 0)
    w = FieldSpec.prime(P64).omega_residue
    assert r == min(r, tuple(c * w % P64 for c in r), tuple(c * w * w % P64 for c in r))


@pytest.mark.parametrize("p", [1000003, P64])
def test_lambda_kernel_at_large_primes(capsys, p):
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "lambda-kernel", "--field", "Fp", "--p", str(p), "--coeffs", "1,2,3,5"
    )
    assert code == 0 and time.perf_counter() - start < 1
    blob = json.loads(out)
    order = blob["curve_order"]
    assert (order - p - 1) ** 2 <= 4 * p  # Hasse
    assert blob["kernel_equals_torsion"] is True
    field = FieldSpec.prime(p)
    a = field.scalar(blob["A"])
    points = 0
    for g in range(2, 40):
        s = sqrt_in_field(field.scalar(g**3) + a)
        if s is not None:
            points += 1
            assert ell_mul(order, EllipticPoint(field, a, (field.scalar(g), s))).is_infinity()
    assert points >= 5


def test_main_builds_no_state_across_calls(capsys):
    # the parser is built once per process; each call still starts from the
    # defaults, and a usage error (exit 2) leaves nothing behind
    first = run_cli(capsys, "cover-point", "--field", "Fp", "--p", "7", "--coeffs", "3,0,0,1")
    calls = [
        ("cover-point", "--field", "Fp", "--p", "7", "--coeffs", "1,1,1,1", "--which", "3"),
        ("disc", "--field", "Q", "--coeffs", "1,0,0,1", "--threes", "--bogus"),
        ("disc", "--field", "Q", "--coeffs", "1,1,1,1"),
        ("cover-point", "--field", "Fp", "--p", "7", "--coeffs", "3,0,0,1"),
    ]
    results = []
    for argv in calls:
        try:
            results.append(run_cli(capsys, *argv))
        except SystemExit as exc:
            results.append((exc.code, *capsys.readouterr()))
    assert results[1][0] == 2 and "--bogus" in results[1][2]
    assert json.loads(results[2][1]) == {"delta": -16}  # no --threes: (1, 3, 3, 1) gives 0
    assert results[3] == first  # --which back at its default 1
    assert build_parser() is build_parser()
    assert vars(build_parser().parse_args(["disc", "--field", "Q"]))["threes"] is False


def test_clifford_iso_and_symbol_check(capsys):
    code, out, _ = run_cli(
        capsys, "clifford-iso", "--field", "Fp", "--p", "7",
        "--matrix", "1,2,3,4", "--coeffs", "1,0,0,1",
    )
    blob = json.loads(out)
    assert blob["pass"] is True
    assert blob["gamma_factor"] == blob["gamma_expected"]
    code, out, _ = run_cli(capsys, "symbol-check", "--field", "Fp", "--p", "7", "--coeffs", "1,0,0,3")
    assert json.loads(out)["pass"] is True


def test_gamma_free(capsys):
    code, out, _ = run_cli(
        capsys, "gamma-free", "--field", "Fp", "--p", "7", "--coeffs", "1,0,0,1", "--bound", "2"
    )
    assert json.loads(out) == {"bound": 2, "independent": True}
    code, out, _ = run_cli(
        capsys, "gamma-free", "--field", "Fp", "--p", "18446744073709551427", "--coeffs", "1,0,0,1"
    )
    assert code == 0
    assert json.loads(out) == {"bound": 2, "independent": True}


GAMMA_FREE_GOLDEN = json.loads((Path(__file__).parent / "golden_gamma_free.json").read_text())


@pytest.mark.parametrize(
    "case", GAMMA_FREE_GOLDEN["cli"], ids=lambda case: " ".join(case["argv"][2:])
)
def test_gamma_free_output_is_frozen(capsys, case):
    # stdout, stderr and exit code of the rank-based check this one replaced:
    # bounds 0-3 and -1, large primes, Q(w) and the three error exits
    assert run_cli(capsys, *case["argv"]) == (case["code"], case["stdout"], case["stderr"])


def test_domain_error_exit_1(capsys):
    code, out, err = run_cli(capsys, "jacobian", "--field", "Q", "--coeffs", "1,0,0,0")
    assert code == 1 and out == ""
    blob = json.loads(err)
    assert blob["error"] == "degenerate-form"
    code, _, err = run_cli(
        capsys, "act", "--field", "Q", "--matrix", "1,2,2,4", "--coeffs", "1,0,0,1"
    )
    assert code == 1
    assert json.loads(err)["error"] == "singular-matrix"


# one non-diagonal form per root count r on P^1(F_p), with |Stab| = 18, 9, 6 for r = 3, 0, 1
NONDIAGONAL_BY_ROOT_COUNT = {
    1009: {(1, 1, 0, 4): 18, (1, 1, 0, 2): 9, (1, 1, 0, 1): 6},
    P64: {(1, 1, 0, 4): 18, (1, 1, 0, 5): 9, (1, 1, 0, 1): 6},
}


@pytest.mark.parametrize("p", sorted(NONDIAGONAL_BY_ROOT_COUNT))
def test_stab_nondiagonal_at_large_primes(capsys, p):
    field = FieldSpec.prime(p)
    for coeffs, order in NONDIAGONAL_BY_ROOT_COUNT[p].items():
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "stab", "--field", "Fp", "--p", str(p), "--coeffs", ",".join(map(str, coeffs))
        )
        assert code == 0 and time.perf_counter() - start < 1
        blob = json.loads(out)
        assert blob["order"] == len(blob["elements"]) == order
        f = BinaryCubicForm(field, coeffs)
        elements = [GL2Element(field, entries) for entries in blob["elements"]]
        assert len(set(elements)) == order
        assert all(act_gl2(g, f) == f for g in elements)


def test_orbits_budget_charges_one_visit_per_form(capsys):
    # the default budget admits p = 19: nine orbits that partition GL2(F_19)
    code, out, _ = run_cli(capsys, "orbits", "--field", "Fp", "--p", "19", "--nondegenerate")
    assert code == 0
    orbits = json.loads(out)["orbits"]
    assert len(orbits) == 9
    assert sum(o["size"] for o in orbits) == 123120  # |GL2(F_19)|
    assert all(o["size"] * o["stabilizer_order"] == 123120 for o in orbits)
    # the lex scan classifies 24 forms at p = 13 before all 13 cells are filled
    argv = ("orbits", "--field", "Fp", "--p", "13")
    code, out, err = run_cli(capsys, *argv, "--budget", "23")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "budget-exceeded"
    assert run_cli(capsys, *argv, "--budget", "24") == (0, run_cli(capsys, *argv)[1], "")


@pytest.mark.parametrize("p", [1000003, P64])
def test_orbits_at_large_primes(capsys, p):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "orbits", "--field", "Fp", "--p", str(p), "--nondegenerate")
    assert code == 0 and time.perf_counter() - start < 1
    orbits = json.loads(out)["orbits"]
    assert len(orbits) == 9
    total = (p * p - 1) * (p * p - p)
    assert all(o["size"] * o["stabilizer_order"] == total for o in orbits)
    assert sum(Fraction(1, o["stabilizer_order"]) for o in orbits) == 1


@pytest.mark.parametrize(
    "argv, key, want",
    [
        (("point-search", "--field", "Q", "--coeffs", "-75,0,0,-100", "--budget", "4"),
         "status", "absent-within-budget"),
        (("--coeffs", "-1,0,0,-1", "disc", "--field", "Q"), "delta", -27),
        (("act", "--field", "Q", "--matrix", "-1,0,0,1", "--coeffs", "1,2,3,4"),
         "coeffs", [-1, 2, -3, 4]),
        (("reduce", "--field", "Qw", "--expr", "-x*y"),
         "coords", ["0"] * 4 + ["-1"] + ["0"] * 13),
    ],
)
def test_flag_values_may_start_with_a_minus(capsys, argv, key, want):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)[key] == want


def test_qw_cube_roots_of_large_coefficients_return(capsys):
    # both commands take cube roots in Q(w) of norm about 10^60
    big = 10**30
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "stab", "--field", "Qw", "--coeffs", f"1,0,0,{big}")
    assert code == 0 and time.perf_counter() - start < 2
    elements = json.loads(out)["elements"]
    f = BinaryCubicForm(QW, (1, 0, 0, big))
    assert len(elements) == 18
    for entries in elements:
        g = GL2Element(QW, [Scalar.from_json(QW, x) for x in entries])
        assert act_gl2(g, f) == f
    # u^3 + big*v^3 moved by (1, 1; 0, 1): diagonalized, then conjugated
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "stab", "--field", "Qw", "--coeffs", f"1,3,3,{big + 1}")
    assert code == 0 and time.perf_counter() - start < 2
    moved = BinaryCubicForm(QW, (1, 3, 3, big + 1))
    elements = json.loads(out)["elements"]
    assert len(elements) == 18
    for entries in elements:
        g = GL2Element(QW, [Scalar.from_json(QW, x) for x in entries])
        assert act_gl2(g, moved) == moved
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "point-search", "--field", "Qw", "--coeffs", f"2,0,0,{big}", "--budget", "1"
    )
    assert code == 0 and time.perf_counter() - start < 2
    pt = {k: Scalar.from_json(QW, x) for k, x in json.loads(out)["point"].items()}
    assert pt["w"] ** 3 == BinaryCubicForm(QW, (2, 0, 0, big)).evaluate(pt["u"], pt["v"])


COMMANDS = (
    "reduce", "verify-identities", "disc", "act", "diagonalize", "stab", "orbits", "jacobian",
    "torsion", "lambda-kernel", "point-search", "cover-point", "clifford-iso", "symbol-check",
    "brauer-probe", "gamma-free",
)


def test_every_command_parses_the_same_flags():
    defaults = {
        "field": "Q", "p": None, "omega": None, "coeffs": None, "expr": None, "matrix": None,
        "budget": None, "threes": False, "nondegenerate": False, "format": "json", "bound": 2,
        "which": 1,
    }
    every_flag = (
        "--field", "Fp", "--p", "13", "--omega", "3", "--coeffs", "1,2,3,4", "--threes",
        "--expr", "x*y", "--matrix", "0,1,1,0", "--budget", "7", "--format", "csv",
        "--bound", "3", "--which", "4", "--nondegenerate",
    )
    given = {
        "field": "Fp", "p": 13, "omega": 3, "coeffs": "1,2,3,4", "expr": "x*y",
        "matrix": "0,1,1,0", "budget": 7, "threes": True, "nondegenerate": True,
        "format": "csv", "bound": 3, "which": 4,
    }
    for cmd in COMMANDS:
        args = build_parser().parse_args([cmd, "--field", "Q"])
        assert vars(args) == {"command": cmd, **defaults}
        args = build_parser().parse_args([cmd, *every_flag])
        assert vars(args) == {"command": cmd, **given}


def test_usage_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "disc", "--field", "Fp", "--coeffs", "1,0,0,1")
    assert code == 2 and "--p" in err
    code, _, err = run_cli(capsys, "disc", "--field", "Q", "--coeffs", "1,0,0")
    assert code == 2 and "coeffs" in err
    code, _, err = run_cli(capsys, "disc", "--field", "Q")
    assert code == 2 and "coeffs" in err
    code, _, err = run_cli(capsys, "reduce", "--field", "Q", "--expr", "bogus")
    assert code in (1, 2)  # unknown symbol is a grammar violation


LONG_LITERAL = "1" * 5000  # past the interpreter's default int<->str limit of 4300 digits


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["disc", "--field", "Q", "--coeffs", "10^5000,0,0,1"], 1, "number-too-large"),
        (["reduce", "--field", "Qw", "--expr", "10^5000*x"], 1, "number-too-large"),
        (["disc", "--field", "Q", "--coeffs", f"{LONG_LITERAL},0,0,1"], 2, None),
        (["act", "--field", "Q", "--matrix", f"1,0,0,{LONG_LITERAL}", "--coeffs", "1,0,0,1"],
         2, None),
        (["reduce", "--field", "Qw", "--expr", f"{LONG_LITERAL}*x"], 1, "syntax-error"),
        (["disc", "--field", "Q", "--coeffs", "1\u00b2,0,0,1"], 2, None),  # a digit to isdigit(), not to int()
        (["disc", "--field", "Fp", "--p", "7", "--coeffs", "10^5000,0,0,1"], 0, None),
    ],
)
def test_integers_past_the_digit_limit_end_typed(capsys, argv, code, error):
    limit = sys.get_int_max_str_digits()
    got, out, err = run_cli(capsys, *argv)
    assert sys.get_int_max_str_digits() == limit
    assert got == code
    if code == 0:
        assert json.loads(out) == {"delta": 4}  # -27 * 1 mod 7
    elif code == 1:
        assert out == "" and json.loads(err)["error"] == error
    else:
        assert out == "" and err.startswith("usage error: bad scalar literal")


@pytest.mark.parametrize("field", ("Q", "Qw"))
def test_a_literal_power_over_its_cap_ends_at_once(capsys, field):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "disc", "--field", field, "--coeffs", "10^3000000,0,0,1")
    assert time.perf_counter() - start < 0.1
    assert code == 1 and out == "" and json.loads(err)["error"] == "number-too-large"
    with pytest.raises(NumberTooLarge):
        FieldSpec.rationals().scalar(10) ** 3000000


@pytest.mark.parametrize("expr", ("10^3000000*x", "0*10^3000000*x", "(1/2)^3000000*x"))
def test_a_literal_power_in_reduce_over_its_cap_ends_at_once(capsys, expr):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "reduce", "--field", "Qw", "--expr", expr)
    assert time.perf_counter() - start < 0.1
    assert code == 1 and out == "" and json.loads(err)["error"] == "number-too-large"


@pytest.mark.parametrize("field", (["--field", "Qw"], ["--field", "Fp", "--p", "7"]))
def test_a_monomial_exponent_over_its_bound_is_a_domain_error(capsys, field):
    # exponents stop at 2^30 - 1; X3^1100000000 was the answer before the bound
    code, out, _ = run_cli(capsys, "reduce", *field, "--expr", "x^3221225469")
    assert code == 0 and json.loads(out)["coords"][0] == "X3^1073741823"
    code, out, err = run_cli(capsys, "reduce", *field, "--expr", "x^3300000000")
    assert code == 1 and out == "" and json.loads(err)["error"] == "number-too-large"


@pytest.mark.parametrize(
    "argv, index, coord",
    [
        (["--field", "Qw", "--expr", "2^14284*x"], 1, str(2**14284)),  # 4300 digits
        (["--field", "Qw", "--expr", "(1-w)^18000*x"], 1, str(3**9000)),
        (["--field", "Qw", "--expr", "w^1000000000000000000000*x"], 1, "w"),  # 10^21 = 1 (mod 3)
        (["--field", "Qw", "--expr", "(-2*w*x)^3"], 0, "-8*X3"),
        (["--field", "Fp", "--p", "7", "--expr", "10^3000000*x"], 1, "1"),  # F_p is not charged
    ],
)
def test_literal_powers_in_reduce_within_the_cap_evaluate(capsys, argv, index, coord):
    code, out, _ = run_cli(capsys, "reduce", *argv)
    assert code == 0
    assert json.loads(out)["coords"] == [coord if i == index else "0" for i in range(18)]


@pytest.mark.parametrize(
    "field, literal, value",
    [
        ("Q", "2^14284", 2**14284),  # 4300 digits
        ("Q", "(1/3)^9000", f"1/{3**9000}"),
        ("Q", "(-1)^1000000000000000000001", -1),
        ("Q", "0^1000000000000000000000", 0),
        ("Qw", "w^1000000000000000000000", {"a": 0, "b": 1}),  # 10^21 = 1 (mod 3)
        ("Qw", "(1-w)^18000", 3**9000),  # (1-w)^2 = -3w; 4295 digits
        ("Qw", "(1/3+2/3*w)^18000", {"a": f"1/{3**9000}", "b": 0}),  # its square is -1/3
    ],
)
def test_powers_whose_value_prints_still_evaluate(capsys, field, literal, value):
    code, out, _ = run_cli(
        capsys, "act", "--field", field, "--matrix", "1,0,0,1", "--coeffs", f"{literal},0,0,1"
    )
    assert code == 0
    assert json.loads(out)["coeffs"][0] == value


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cubiclifford.cli", "disc", "--field", "Q", "--coeffs", "0,1,1,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"delta": 1}


def test_import_pulls_in_no_numpy():
    # every submodule by name: the package itself loads them only on first use
    code = (
        "import sys; from cubiclifford import cli, cliffordf, curves, fields, forms, freealg, "
        "gca, spoly; print('numpy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"
