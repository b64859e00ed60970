"""CLI surface: schemas, determinism, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from cubiclifford.cli import build_parser, main


P64 = 18446744073709551427  # a prime above 2^64, 1 mod 3


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
    code, out, err = run_cli(
        capsys, "cover-point", "--field", "Fp", "--p", str(P64), "--coeffs", "3,0,0,1",
        "--which", "1",
    )
    assert_point_or_typed_error(code, out, err, (3, 0, 0, 1), P64, "u")


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


def test_stab_budget_bounds_the_scan(capsys):
    argv = ("stab", "--field", "Fp", "--p", "13", "--coeffs", "1,1,0,2")  # 13^4 = 28561
    code, out, err = run_cli(capsys, *argv, "--budget", "28560")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "budget-exceeded"
    code, out, _ = run_cli(capsys, *argv, "--budget", "28561")
    assert code == 0
    assert out == run_cli(capsys, *argv)[1]
    # the default budget refuses p^4 ~ 10^12 before scanning
    code, _, err = run_cli(capsys, "stab", "--field", "Fp", "--p", "1009", "--coeffs", "1,1,0,1")
    assert code == 1
    assert json.loads(err)["error"] == "budget-exceeded"


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


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cubiclifford.cli", "disc", "--field", "Q", "--coeffs", "0,1,1,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"delta": 1}


def test_import_pulls_in_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import cubiclifford, sys; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"
