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
  18446744073709551427, about half of them with one root on P^1(F_p);
* ``stab`` on 20 seeded diagonal forms over Q(w), every other one with
  c3/c0 a cube (orders 18 and 9), and on 20 seeded non-diagonal forms at
  each of Q and Q(w) whose -3*Delta is not a square, so whose Hessian does
  not split: these end in ``unsupported-field``;
* ``reduce`` on 40 seeded texts at each of Q(w), F_13, F_{2^61 - 1} and
  F_18446744073709551427 (sums, products and powers of sums, powers of one
  word under and over 64 letters, ``w`` and p/q literals), ten of them at
  ``--budget 1000``, and on three texts over Q;
* ``disc``, ``act``, ``diagonalize``, ``jacobian``, ``torsion`` and ``stab``
  on 50 seeded forms at each of Q and Q(w), their coefficients and the
  matrix entries of ``act`` integers, fractions and, over Q(w), sums with
  fractional w-parts, and ``stab`` and ``diagonalize`` on 50 seeded forms
  g*(c0, 0, 0, c3) at each of Q and Q(w) with fractional g, every other one
  with c3/c0 a cube, whose stabilizers are sorted conjugated lists;
* ``clifford-iso``, ``symbol-check`` and ``gamma-free`` on 25 seeded forms
  at each of F_7, F_13, F_18446744073709551427 and Q(w), every third one
  diagonal and every fifth degenerate, and ``verify-identities`` once per
  field;
* ``stab --field Qw`` on the diagonal forms (c0, 0, 0, c0*t_k) for
  k = 1..40, t_k = k^3*(3 + 6w) = (-k*(1 - w))^3, whose two cube roots
  -k*(1 - w) and -k*w*(1 - w) share their first coordinate: with c0 = 1,
  with c0 = 1 and t_k over a cube denominator, and with eight seeded c0;
  and ``point-search --field Qw --budget 2`` on (t_k, c1, c2, c3) with c3 a
  non-cube integer, so that the point found is (1 : 0 : a cube root of t_k).

The ``diagonalize-f7``, ``stab-q-qw``, ``forms-q-qw``, ``reduce`` and
``algebra`` groups also hash the error code that a command ending in a
domain error prints on stderr.

Any change in what these commands print shows here. To record the digests
of the current code (only when an output change is intended), of every
group or of the groups named:

    PYTHONPATH=src python tests/test_golden_digests.py [group ...]
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

import oracles
import pytest

from cubiclifford.cli import main, parse_scalar_literal
from cubiclifford.fields import FieldSpec, form_discriminant, nth_power_class

GOLDEN_PATH = Path(__file__).parent / "golden_digests.json"
LAMBDA_PRIMES = [p for p in range(960, 1041) if p % 3 == 1 and all(p % d for d in range(2, 32))]
COVER_PRIMES = [7, 13, 19, 31, *LAMBDA_PRIMES, 2**61 - 1, 18446744073709551427]
STAB_PRIMES = [1000003, 18446744073709551427]
REDUCE_FIELDS = (("Qw",), ("Fp", 13), ("Fp", 2**61 - 1), ("Fp", 18446744073709551427))
ALGEBRA_FIELDS = (("Fp", 7), ("Fp", 13), ("Fp", 18446744073709551427), ("Qw",))
ERROR_CODE_GROUPS = ("diagonalize-f7", "stab-q-qw", "forms-q-qw", "reduce", "algebra")
Q, QW = FieldSpec.rationals(), FieldSpec.cyclotomic()


def _fp(command, p, coeffs):
    return [command, "--field", "Fp", "--p", str(p), "--coeffs", ",".join(map(str, coeffs))]


def _nondegenerate_f7():
    return [f for f in itertools.product(range(7), repeat=4) if oracles.delta_raw(f, 7)]


def _q_literal(rng, fractional):
    a = rng.randint(-9, 9)
    return f"{a}/{rng.randint(1, 6)}" if fractional else str(a)


def _qw_literal(rng):
    return f"{rng.randint(-3, 3)}+{rng.randint(-3, 3)}*w"


def _mixed_literal(rng, kind):
    """An integer or a fraction, and over Q(w) also a sum with a w-part."""
    k = rng.randrange(3)
    if kind == "Q" or k < 2:
        return _q_literal(rng, k == 1)
    return f"{_q_literal(rng, rng.randrange(2))}+{_q_literal(rng, True)}*w"


def _moved_diagonal(rng, kind, cube):
    """The four coefficient texts of g*(c0, 0, 0, c3) for a seeded g with
    fractional entries, c3/c0 a cube when ``cube``."""
    c0 = _mixed_literal(rng, kind)
    c3 = f"({c0})*({_mixed_literal(rng, kind)})^3" if cube else _mixed_literal(rng, kind)
    a, b, c, d = (f"({_q_literal(rng, True)}+{_mixed_literal(rng, kind)})" for _ in range(4))
    return [
        f"({c0})*{a}^3+({c3})*{c}^3",
        f"3*(({c0})*{a}^2*{b}+({c3})*{c}^2*{d})",
        f"3*(({c0})*{a}*{b}^2+({c3})*{c}*{d}^2)",
        f"({c0})*{b}^3+({c3})*{d}^3",
    ]


def _split_free(field, literal, rng):
    """Four literals of a nondegenerate non-diagonal form over ``field`` whose
    -3*Delta is not a square, so whose Hessian does not split."""
    while True:
        texts = [literal(rng) for _ in range(4)]
        c = [parse_scalar_literal(field, t) for t in texts]
        delta = form_discriminant(c)
        if (c[1] or c[2]) and delta and not nth_power_class(-3 * delta, 2):
            return texts


def _field_args(spec):
    return ["--field", spec[0], *(["--p", str(spec[1])] if len(spec) > 1 else [])]


def _atom(rng):
    k = rng.randrange(5)
    if k == 0:
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}"
    if k == 1:
        return str(rng.randint(-9, 9))
    return "w" if k == 2 else rng.choice("xy")


def _term(rng):
    return "*".join(_atom(rng) for _ in range(rng.randint(1, 3)))


def _sum(rng):
    head = _term(rng)
    return head + "".join(f" {rng.choice('+-')} {_term(rng)}" for _ in range(rng.randint(1, 3)))


def _word(rng, n):
    return "*".join(rng.choice("xy") for _ in range(n))


def _reduce_text(rng, kind):
    if kind == 0:
        return _sum(rng)
    if kind == 1:
        return f"({_sum(rng)})*({_sum(rng)})"
    if kind == 2:
        return f"({_sum(rng)})^{rng.randint(2, 9)}"
    n = rng.randint(2, 5)
    if kind == 3:  # a word power of at most 64 letters
        return f"{_term(rng)}*({_word(rng, n)})^{rng.randint(2, 64 // n)}"
    if kind == 4:  # a word power of more than 64 letters
        return f"({_word(rng, n)})^{rng.randint(64 // n + 1, 96 // n)}"
    return f"w*x - {n}/{rng.randint(2, 7)}*y^{rng.randint(0, 9)} + ({_sum(rng)})^2*x"


def _algebra_literal(rng, spec):
    return _qw_literal(rng) if spec[0] == "Qw" else str(rng.randrange(spec[1]))


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
    rng = random.Random("golden:stab-q-qw")
    diagonal = []
    for i in range(20):
        c0, c3 = (_qw_literal(rng) for _ in range(2))
        if i % 2:  # c3/c0 a cube: order 18
            c3 = f"({c0})*({c3})^3"
        diagonal.append([c0, "0", "0", c3])
    split_free_q = [_split_free(Q, lambda r: _q_literal(r, False), rng) for _ in range(20)]
    split_free_qw = [_split_free(QW, _qw_literal, rng) for _ in range(20)]
    groups["stab-q-qw"] = [
        ["stab", "--field", kind, "--coeffs", ",".join(c)]
        for kind, cs in (("Qw", diagonal), ("Q", split_free_q), ("Qw", split_free_qw))
        for c in cs
    ]
    rng = random.Random("golden:forms-q-qw")
    groups["forms-q-qw"] = []
    for kind in ("Q", "Qw"):
        for _ in range(50):
            form = ["--coeffs", ",".join(_mixed_literal(rng, kind) for _ in range(4))]
            matrix = ["--matrix", ",".join(_mixed_literal(rng, kind) for _ in range(4))]
            groups["forms-q-qw"] += [
                [command, "--field", kind, *form, *(matrix if command == "act" else ())]
                for command in ("disc", "act", "diagonalize", "jacobian", "torsion", "stab")
            ]
        for i in range(50):
            form = ["--coeffs", ",".join(_moved_diagonal(rng, kind, i % 2 == 1))]
            groups["forms-q-qw"] += [[c, "--field", kind, *form] for c in ("stab", "diagonalize")]
    rng = random.Random("golden:reduce")
    groups["reduce"] = [
        ["reduce", "--field", "Q", "--expr", t] for t in ("x", "x*y - 2/3", "(x+y)^2")
    ]
    for spec in REDUCE_FIELDS:
        field = _field_args(spec)
        groups["reduce"] += [
            ["reduce", *field, "--expr", _reduce_text(rng, i % 6)] for i in range(30)
        ]
        texts = [_reduce_text(rng, i) for i in range(6)]
        texts += [f"({_sum(rng)})^{rng.randint(6, 12)}" for _ in range(4)]
        groups["reduce"] += [["reduce", *field, "--budget", "1000", "--expr", t] for t in texts]
    rng = random.Random("golden:algebra")
    groups["algebra"] = []
    for spec in ALGEBRA_FIELDS:
        field = _field_args(spec)
        groups["algebra"].append(["verify-identities", *field])
        for i in range(25):
            c = [_algebra_literal(rng, spec) for _ in range(4)]
            if i % 3 == 0:  # diagonal, so -108*Delta is a square
                c[1] = c[2] = "0"
            if i % 5 == 4:  # degenerate
                c[0] = c[1] = "0"
            form = ["--coeffs", ",".join(c)]
            matrix = ["--matrix", ",".join(_algebra_literal(rng, spec) for _ in range(4))]
            groups["algebra"] += [
                ["clifford-iso", *field, *form, *matrix],
                ["symbol-check", *field, *form],
                ["gamma-free", *field, *form],
            ]
    rng = random.Random("golden:roots-qw")
    tie = [f"{3 * k**3}+{6 * k**3}*w" for k in range(1, 41)]
    diagonal = [("1", t) for t in tie] + [("1", f"1/{rng.randint(2, 5) ** 3}*({t})") for t in tie]
    for _ in range(8):
        c0 = f"{rng.randint(1, 9)}/{rng.randint(1, 4)}+{rng.randint(-3, 3)}*w"
        diagonal.append((c0, f"({c0})*({rng.choice(tie)})"))
    groups["roots-qw"] = [["stab", "--field", "Qw", "--coeffs", f"{c0},0,0,{c3}"] for c0, c3 in diagonal]
    for k, t in enumerate(tie, 1):
        middle = [_qw_literal(rng) if k % 2 else "0" for _ in range(2)]
        coeffs = ",".join([t, *middle, str(rng.choice((2, 3, 5, 7)))])
        groups["roots-qw"].append(["point-search", "--field", "Qw", "--budget", "2", "--coeffs", coeffs])
    return groups


def digest(argvs, error_codes=False):
    """The sha256 of the (exit code, stdout) of each command, in order, with
    ``error_codes`` followed by the code of a domain error on stderr."""
    h = hashlib.sha256()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        row = [code, out.getvalue()]
        if error_codes and code == 1:
            row.append(json.loads(err.getvalue())["error"])
        h.update(json.dumps(row).encode() + b"\n")
    return h.hexdigest()


GROUPS = (
    "stab-f7", "diagonalize-f7", "orbits", "point-search-q", "point-search-qw",
    "lambda-kernel", "torsion", "cover-point", "stab-large", "stab-q-qw", "forms-q-qw", "reduce",
    "algebra", "roots-qw",
)


@pytest.mark.parametrize("group", GROUPS)
def test_cli_output_matches_its_digest(group):
    golden = json.loads(GOLDEN_PATH.read_text())[group]
    argvs = commands()[group]
    assert len(argvs) == golden["count"]
    assert digest(argvs, group in ERROR_CODE_GROUPS) == golden["sha256"]


def test_every_group_is_recorded():
    assert sorted(commands()) == sorted(GROUPS) == sorted(json.loads(GOLDEN_PATH.read_text()))


if __name__ == "__main__":
    names = sys.argv[1:] or GROUPS
    record = json.loads(GOLDEN_PATH.read_text()) if sys.argv[1:] else {}
    record |= {
        g: {"count": len(a), "sha256": digest(a, g in ERROR_CODE_GROUPS)}
        for g, a in commands().items()
        if g in names
    }
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
