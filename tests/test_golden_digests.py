"""CLI output of the forms and curves subcommands, frozen as digests.

``golden_digests.json`` holds, per group of commands, the number of
commands and the sha256 of their (exit code, stdout) pairs in order. The
commands are made here from fixed seeds:

* ``stab`` and ``diagonalize`` on every nondegenerate form over F_7;
* ``orbits`` at p = 7, 13, 19 and 31, in JSON and CSV, with and without
  ``--nondegenerate``;
* ``point-search --field Q --budget 20`` on 300 seeded forms, every third
  with fractional coefficients;
* ``point-search --field Qw --budget 2`` on 50 seeded forms;
* ``lambda-kernel`` and ``torsion`` on 200 seeded forms at primes near 1000;
* ``cover-point`` with each ``--which`` on 6 seeded forms at each of
  p = 7, 13, 19, 31, the primes near 1000, 2^61 - 1 and
  18446744073709551427, most of them over F_{p^3};
* ``stab`` on 40 seeded non-diagonal forms at each of 1000003 and
  18446744073709551427, about half of them with one root on P^1(F_p).

Any change in what these commands print shows here. To record the digests
of the current code (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

import oracles
import pytest

from cubiclifford.cli import main

GOLDEN_PATH = Path(__file__).parent / "golden_digests.json"
LAMBDA_PRIMES = [p for p in range(960, 1041) if p % 3 == 1 and all(p % d for d in range(2, 32))]
COVER_PRIMES = [7, 13, 19, 31, *LAMBDA_PRIMES, 2**61 - 1, 18446744073709551427]
STAB_PRIMES = [1000003, 18446744073709551427]


def _fp(command, p, coeffs):
    return [command, "--field", "Fp", "--p", str(p), "--coeffs", ",".join(map(str, coeffs))]


def _nondegenerate_f7():
    return [f for f in itertools.product(range(7), repeat=4) if oracles.delta_raw(f, 7)]


def _q_literal(rng, fractional):
    a = rng.randint(-9, 9)
    return f"{a}/{rng.randint(1, 6)}" if fractional else str(a)


def _qw_literal(rng):
    return f"{rng.randint(-3, 3)}+{rng.randint(-3, 3)}*w"


def commands():
    """{group: [argv, ...]}, the same on every call."""
    forms_f7 = _nondegenerate_f7()
    groups = {
        "stab-f7": [_fp("stab", 7, f) for f in forms_f7],
        "diagonalize-f7": [_fp("diagonalize", 7, f) for f in forms_f7],
        "orbits": [
            ["orbits", "--field", "Fp", "--p", str(p), "--format", fmt, *flag]
            for p in (7, 13, 19, 31)
            for fmt in ("json", "csv")
            for flag in ((), ("--nondegenerate",))
        ],
    }
    rng = random.Random("golden:point-search-q")
    groups["point-search-q"] = [
        ["point-search", "--field", "Q", "--budget", "20",
         "--coeffs", ",".join(_q_literal(rng, i % 3 == 2) for _ in range(4))]
        for i in range(300)
    ]
    rng = random.Random("golden:point-search-qw")
    groups["point-search-qw"] = [
        ["point-search", "--field", "Qw", "--budget", "2",
         "--coeffs", ",".join(_qw_literal(rng) for _ in range(4))]
        for _ in range(50)
    ]
    rng = random.Random("golden:lambda-torsion")
    curve_forms = []
    for _ in range(200):
        p = rng.choice(LAMBDA_PRIMES)
        curve_forms.append((p, [rng.randrange(p) for _ in range(4)]))
    groups["lambda-kernel"] = [_fp("lambda-kernel", p, f) for p, f in curve_forms]
    groups["torsion"] = [_fp("torsion", p, f) for p, f in curve_forms]
    rng = random.Random("golden:cover-point")
    groups["cover-point"] = [
        [*_fp("cover-point", p, f), "--which", str(which)]
        for p in COVER_PRIMES
        for f in [[rng.randrange(p) for _ in range(4)] for _ in range(6)]
        for which in (1, 2, 3, 4)
    ]
    rng = random.Random("golden:stab-large")
    groups["stab-large"] = [
        _fp("stab", p, (rng.randrange(p), rng.randrange(1, p), rng.randrange(p), rng.randrange(p)))
        for p in STAB_PRIMES
        for _ in range(40)
    ]
    return groups


def digest(argvs):
    """The sha256 of the (exit code, stdout) of each command, in order."""
    h = hashlib.sha256()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        h.update(json.dumps([code, out.getvalue()]).encode() + b"\n")
    return h.hexdigest()


GROUPS = (
    "stab-f7", "diagonalize-f7", "orbits", "point-search-q", "point-search-qw",
    "lambda-kernel", "torsion", "cover-point", "stab-large",
)


@pytest.mark.parametrize("group", GROUPS)
def test_cli_output_matches_its_digest(group):
    golden = json.loads(GOLDEN_PATH.read_text())[group]
    argvs = commands()[group]
    assert len(argvs) == golden["count"]
    assert digest(argvs) == golden["sha256"]


def test_every_group_is_recorded():
    assert sorted(commands()) == sorted(GROUPS) == sorted(json.loads(GOLDEN_PATH.read_text()))


if __name__ == "__main__":
    record = {g: {"count": len(a), "sha256": digest(a)} for g, a in commands().items()}
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
