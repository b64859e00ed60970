"""The CLI contract under random input, for the forms and curves subcommands
and the specialized-algebra checks.

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
    "clifford-iso", "symbol-check", "gamma-free",
)
PRIMES = (7, 13, 19, 31, 37, 43, 2**61 - 1, 18446744073709551427)
INVALID_P = ("0", "1", "2", "3", "4", "5", "9", "11", "-7", "2305843009213693953", "7.5", "p")

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


four_literals = st.lists(literals(), min_size=4, max_size=4).map(",".join)


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
    if draw(st.integers(0, 9)):
        argv += ["--coeffs", draw(four_literals)]
    if draw(st.booleans()):
        argv += ["--matrix", draw(four_literals)]
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
