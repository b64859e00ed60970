"""The CLI contract under random input, for the forms and curves subcommands,
the specialized-algebra checks, and ``reduce`` and ``verify-identities`` in
the generic algebra. ``disc`` and ``act`` also draw literal powers.

Every call ends in a verified result on stdout (exit 0), a typed domain
error with a JSON ``{"error": code}`` as the last line of stderr (exit 1),
or a usage error (exit 2), never a traceback, and each in under 10 s.
"""

import contextlib
import csv
import io
import json
import time

from hypothesis import given, settings, strategies as st

from cubiclifford.cli import main

COMMANDS = (
    "disc", "act", "diagonalize", "stab", "orbits", "jacobian", "torsion",
    "lambda-kernel", "point-search", "cover-point", "brauer-probe",
    "clifford-iso", "symbol-check", "gamma-free", "reduce", "verify-identities",
)
PRIMES = (7, 13, 19, 31, 37, 43, 2**61 - 1, 18446744073709551427)
# psi_12 = 318665857834031151167461 is composite and passes ``is_prime``
INVALID_P = (
    "0", "1", "2", "3", "4", "5", "9", "11", "-7", "2305843009213693953", "318665857834031151167461",
    "7.5", "p",
)

integers = st.integers(-9, 9) | st.integers(-(2**70), 2**70)


@st.composite
def literals(draw):
    """Mostly integers, then fractions (a zero denominator now and then),
    then literals in w."""
    kind = draw(st.integers(0, 9))
    a = draw(integers)
    if kind < 6:
        return str(a)
    if kind < 8:
        return f"{a}/{draw(st.integers(0, 9))}"
    return draw(st.sampled_from((f"{a}*w", f"{a}+{draw(integers)}*w", "w", "-w", "w^2", "-1/2*w")))


@st.composite
def powered_literals(draw):
    """A literal, or now and then one raised to a power of up to 10^7,
    most of whose charges are past the cap of ``Scalar.__pow__``."""
    base = draw(literals())
    if draw(st.integers(0, 2)):
        return base
    return f"({base})^{draw(st.integers(0, 20) | st.integers(0, 10**7))}"


four_literals = st.lists(literals(), min_size=4, max_size=4).map(",".join)
four_powered_literals = st.lists(powered_literals(), min_size=4, max_size=4).map(",".join)


@st.composite
def expressions(draw, depth=3):
    """Well-formed free-algebra texts: literals (``1/7`` and ``w`` among
    them), x and y, sums, products, unary minus and powers up to 20 of
    sums."""
    if depth == 0 or not draw(st.integers(0, 2)):
        return draw(st.sampled_from(("x", "y", "w", "1/7", "-w", "x^3")) | literals())
    a, b = draw(expressions(depth - 1)), draw(expressions(depth - 1))
    op = draw(st.sampled_from("+-*^n"))
    if op == "^":
        return f"({a} + {b})^{draw(st.integers(0, 20))}"
    if op == "*":
        return f"({a})*({b})"
    if op == "n":
        return f"-({a})"
    return f"{a} {op} {b}"


@st.composite
def exprs(draw):
    """A well-formed text, or one with a character dropped or inserted."""
    text = draw(expressions())
    if draw(st.booleans()):
        return text
    at = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:at] + text[at + 1:]
    return text[:at] + draw(st.sampled_from("+-*^()/ 0z")) + text[at:]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS))
    field = draw(st.sampled_from(("Q", "Qw", "Fp")))
    argv = [command, "--field", field]
    if field == "Fp":
        valid = draw(st.integers(0, 3))
        argv += ["--p", draw(st.sampled_from(PRIMES).map(str) if valid else st.sampled_from(INVALID_P))]
    if not draw(st.integers(0, 3)):
        argv += ["--omega", str(draw(st.integers(-3, 20)))]
    # literal powers in the two commands that only read and print scalars
    four = four_powered_literals if command in ("disc", "act") else four_literals
    if draw(st.integers(0, 9)):
        argv += ["--coeffs", draw(four)]
    if draw(st.booleans()):
        argv += ["--matrix", draw(four)]
    if draw(st.booleans()):
        argv += ["--which", str(draw(st.integers(0, 5)))]
    if draw(st.booleans()):
        argv.append("--threes")
    # the default Q(w) search height alone takes seconds, so a search over
    # Q(w) always draws its budget
    searches_qw = field == "Qw" and command in ("point-search", "brauer-probe")
    if searches_qw or draw(st.booleans()):
        argv += ["--budget", str(draw(st.integers(-2, 2)))]
    if draw(st.booleans()):
        argv += ["--bound", str(draw(st.integers(-2, 4)))]
    if command == "reduce" and draw(st.integers(0, 9)):
        argv += ["--expr", draw(exprs())]
    if command == "orbits":
        if draw(st.booleans()):
            argv.append("--nondegenerate")
        if draw(st.booleans()):
            argv += ["--format", "csv"]
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse's usage errors
            code = exit_.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=argvs())
def test_cli_contract(argv):
    code, out, err, seconds = run(argv)
    assert seconds < 10, (argv, seconds)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in out + err, argv
    if code == 1:
        assert "error" in json.loads(err.splitlines()[-1]), (argv, err)
    if code != 0:
        assert out == "", argv
        return
    if "csv" in argv:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "representative", "size", "stabilizer_order", "delta", "delta_class6", "has_point"
        ]
        assert all(len(row) == 6 for row in rows)
    else:
        assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"


def test_moduli_past_the_primality_proof_are_refused():
    # psi_12 and psi_13, strong pseudoprimes to the bases 2..37 and 1 mod 3
    for p in ("318665857834031151167461", "3317044064679887385961981"):
        for command in COMMANDS:
            argv = [command, "--field", "Fp", "--p", p, "--coeffs", "1,2,3,4", "--matrix", "1,0,0,1"]
            code, out, err, _ = run([*argv, "--expr", "x", "--budget", "2"])
            assert (code, out) == (1, ""), (argv, err)
            assert json.loads(err.splitlines()[-1])["error"] == "unsupported-field", argv
            assert "Traceback" not in err, argv
