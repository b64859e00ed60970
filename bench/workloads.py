"""The three benchmark workloads: seeded request streams, the timed call
into the package for each request, and an output check for each request
made by a route other than the timed one.

Request streams are pure data made from the seed alone (no package import
is needed to make them), so one seed always gives the same requests. Each
stream is a sequence of shuffled blocks of fixed composition: every block
holds the same number of requests of each kind, which keeps the mix, and
therefore the latency percentiles, steady from seed to seed.

Workloads, and why each was chosen:

* ``gca-qw``: the generic algebra over Q(w). ``fields`` (Fraction-pair
  scalars), ``spoly``, ``freealg`` and ``gca`` do nearly all the work; the
  word-prefix cache of the long-lived algebra warms across ``reduce``
  requests while ``mul`` bypasses it.
* ``cliffordf-fp``: specialized algebras over k[GA] at a fresh form per
  request, at p = 7, p = 2^61 - 1 and a prime in (2^63, 2^64). Integer
  scalars, mostly cold algebra caches, and the only exact elimination
  (``cliffordf._rank``) of the three workloads.
* ``cli-forms``: ``cli.main`` in-process on forms/curves subcommands.
  ``forms``, ``curves`` and ``cli`` do the work and the algebra kernel does
  none, so it is the no-change control for kernel optimisations.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from fractions import Fraction
from math import gcd

P61 = 2**61 - 1
P64 = 18446744073709551427  # a prime in (2^63, 2^64), = 1 (mod 3)
CHEAP_PRIMES = (7, 13, 19, 31)
LAMBDA_PRIMES = tuple(
    p for p in range(960, 1041) if p % 3 == 1 and all(p % d for d in range(2, 32))
)
POINT_BUDGET = 20


class CheckFailed(Exception):
    """A returned result that the independent check refutes."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


def require(ok: bool, reason: str, detail: str = ""):
    if not ok:
        raise CheckFailed(reason, detail)


def _blocks(rng: random.Random, block: list):
    """Endless shuffled copies of ``block``."""
    while True:
        items = list(block)
        rng.shuffle(items)
        yield from items


# -- plain-integer arithmetic for the checks ------------------------------------


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def act(g, coeffs, p) -> tuple:
    """(g.f)(u, v) = f(a*u + b*v, c*u + d*v) mod p for g = (a, b, c, d), by
    expanding products of the two binary linear forms."""
    a, b, c, d = g
    total = [0, 0, 0, 0]
    for i, coeff in enumerate(coeffs):
        term = [coeff]
        for _ in range(3 - i):
            term = _poly_mul(term, [a, b])
        for _ in range(i):
            term = _poly_mul(term, [c, d])
        total = [s + t for s, t in zip(total, term)]
    return tuple(t % p for t in total)


def disc(coeffs, p=None) -> int:
    c0, c1, c2, c3 = coeffs
    d = (
        18 * c0 * c1 * c2 * c3
        - 4 * c1**3 * c3
        + c1**2 * c2**2
        - 4 * c0 * c2**3
        - 27 * c0**2 * c3**2
    )
    return d % p if p else d


def det(g, p) -> int:
    a, b, c, d = g
    return (a * d - b * c) % p


def evaluate(coeffs, u, v):
    c0, c1, c2, c3 = coeffs
    return c0 * u**3 + c1 * u * u * v + c2 * u * v * v + c3 * v**3


def is_square(a, p) -> bool:
    a %= p
    return a == 0 or pow(a, (p - 1) // 2, p) == 1


def is_cube(a, p) -> bool:
    a %= p
    return a == 0 or pow(a, (p - 1) // 3, p) == 1


def gl2_order(p: int) -> int:
    return (p * p - 1) * (p * p - p)


def random_gl2(rng: random.Random, p: int) -> tuple:
    while True:
        g = tuple(rng.randrange(p) for _ in range(4))
        if det(g, p):
            return g


def random_form(rng: random.Random, p: int) -> tuple:
    while True:
        f = tuple(rng.randrange(p) for _ in range(4))
        if disc(f, p):
            return f


def orbit_size(f, p) -> int:
    """Size of the GL2(F_p)-orbit of f, by breadth-first search on the
    elementary generators and all scalar matrices diag(t, 1)."""
    gens = [(1, 1, 0, 1), (0, 1, 1, 0)] + [(t, 0, 0, 1) for t in range(2, p)]
    seen = {tuple(f)}
    frontier = [tuple(f)]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                k = act(g, h, p)
                if k not in seen:
                    seen.add(k)
                    nxt.append(k)
        frontier = nxt
    return len(seen)


def icbrt(n: int):
    """Integer cube root of n, or None when n is not a cube."""
    m = abs(n)
    r = round(m ** (1 / 3))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand**3 == m:
            return cand if n >= 0 else -cand
    return None


def q_point_within(coeffs, budget: int):
    """A primitive (u, v, w) with max(|u|, |v|) <= budget and w^3 = f(u, v)
    over Z, or None (plain integer scan)."""
    for u in range(-budget, budget + 1):
        for v in range(-budget, budget + 1):
            if gcd(u, v) != 1:
                continue
            w = icbrt(evaluate(coeffs, u, v))
            if w is not None:
                return (u, v, w)
    return None


class _Fp3:
    """F_p[t]/(t^3 + a2 t^2 + a1 t + a0), elements as coefficient triples."""

    def __init__(self, p, modulus):
        self.p = p
        self.a0, self.a1, self.a2 = modulus

    def irreducible(self) -> bool:
        p = self.p
        return all((x**3 + self.a2 * x * x + self.a1 * x + self.a0) % p for x in range(p))

    def mul(self, u, v):
        raw = _poly_mul(list(u), list(v))
        for k in (4, 3):
            c = raw[k]
            raw[k] = 0
            raw[k - 1] -= c * self.a2
            raw[k - 2] -= c * self.a1
            raw[k - 3] -= c * self.a0
        return tuple(x % self.p for x in raw[:3])

    def add(self, u, v):
        return tuple((x + y) % self.p for x, y in zip(u, v))

    def scale(self, c, u):
        return tuple(c * x % self.p for x in u)


# -- gca-qw ------------------------------------------------------------------------


def _coeff_text(a: Fraction, b: Fraction) -> str:
    def q(x):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    sign = "-" if b < 0 else "+"
    return f"({q(a)}{sign}{q(abs(b))}*w)"


def _word_text(word: str) -> str:
    parts, i = [], 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        parts.append(word[i] if j == i + 1 else f"{word[i]}^{j - i}")
        i = j
    return "*".join(parts)


class GcaQw:
    name = "gca-qw"
    # one block: 14 reduce, 5 mul, 1 identities
    BLOCK = ["reduce"] * 14 + ["mul"] * 5 + ["identities"]
    WINDOW = 32  # mul operands are drawn from the last WINDOW reduce requests
    CHECKER_USES = 100
    NOMINAL_RPS = 80  # requests per second of request time, to size a run

    def __init__(self, seed: int):
        self.seed = seed

    # requests ------------------------------------------------------------------

    def requests(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        reduced = []
        i = 0
        for kind in _blocks(rng, self.BLOCK):
            if len(reduced) < 2:
                kind = "reduce"  # mul needs two earlier normal forms
            if kind == "reduce":
                terms = []
                words = set()
                count = rng.randint(2, 6)
                while len(terms) < count:
                    word = "".join(rng.choice("xy") for _ in range(rng.randint(4, 12)))
                    if word in words:
                        continue
                    a = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                    b = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                    if a == 0 and b == 0:
                        continue
                    words.add(word)
                    terms.append((word, a, b))
                text = " + ".join(f"{_coeff_text(a, b)}*{_word_text(w)}" for w, a, b in terms)
                req = {"kind": "reduce", "terms": terms, "text": text}
                reduced.append(i)
                del reduced[: -self.WINDOW]
            elif kind == "mul":
                req = {"kind": "mul", "left": rng.choice(reduced), "right": rng.choice(reduced)}
            else:
                req = {"kind": "identities"}
            req["id"] = i
            i += 1
            yield req

    # set-up and timed calls ----------------------------------------------------

    def setup(self, timer) -> dict:
        from cubiclifford import fields, freealg, gca

        self.freealg, self.gca = freealg, gca
        self.field = fields.FieldSpec.cyclotomic()
        with timer() as t:
            self.alg = gca.GenericCliffordAlgebra(self.field)
        self.checker = None
        self.normal_forms = {}  # request id -> (free element, normal form)
        return {"structure_s": t.seconds}

    def prepare(self, req):
        if req["kind"] != "reduce":
            return None
        scalar = self.field.scalar
        return self.freealg.FreeElement(
            self.field, {w: scalar((a, b)) for w, a, b in req["terms"]}
        )

    def execute(self, req, prepared):
        kind = req["kind"]
        if kind == "reduce":
            return self.alg.reduce(self.freealg.parse_free_expression(req["text"], self.field))
        if kind == "mul":
            return self.alg.mul(
                self.normal_forms[req["left"]][1], self.normal_forms[req["right"]][1]
            )
        return self.alg.verify_center_identities()

    # checks --------------------------------------------------------------------

    def check(self, req, prepared, result):
        if self.checker is None or self.checker_uses >= self.CHECKER_USES:
            # a second algebra, so checks never warm the timed word cache;
            # renewed now and then so its own cache stays small
            self.checker = self.gca.GenericCliffordAlgebra(self.field)
            self.checker_uses = 0
        self.checker_uses += 1
        kind = req["kind"]
        if kind == "reduce":
            element = self.freealg.parse_free_expression(req["text"], self.field)
            require(element == prepared, "parse-mismatch")
            rewritten, _ = self.checker.rewrite_reduce(prepared)
            require(rewritten == result, "reduce-vs-rewriter")
            self.normal_forms[req["id"]] = (prepared, result)
            for old in [k for k in self.normal_forms if k < req["id"] - 4 * self.WINDOW]:
                del self.normal_forms[old]
        elif kind == "mul":
            left, right = self.normal_forms[req["left"]][0], self.normal_forms[req["right"]][0]
            require(self.checker.reduce(left * right) == result, "mul-vs-reduce")
        else:
            failed = sorted(k for k, v in result.items() if not v["pass"])
            require(not failed, "identity-failed", ",".join(failed))


# -- cliffordf-fp ----------------------------------------------------------------------


class CliffordfFp:
    name = "cliffordf-fp"
    PRIMES = (7, P61, P64)
    # Per prime in one block: one mul, four iso (so the median falls inside
    # their narrow latency band), one symbol, and gamma-free once at bound 1
    # and twice at bound 2 (so the 90th percentile falls inside the band of
    # the slowest requests rather than between two bands).
    BLOCK = [
        (p, kind)
        for p in PRIMES
        for kind in ("mul", "iso", "iso", "iso", "iso", "symbol", "gamma1", "gamma2", "gamma2")
    ]
    NOMINAL_RPS = 19

    def __init__(self, seed: int):
        self.seed = seed

    def requests(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        for i, (p, kind) in enumerate(_blocks(rng, self.BLOCK)):
            g = random_gl2(rng, p)
            a, b = rng.randrange(1, p), rng.randrange(1, p)
            req = {"id": i, "kind": kind, "p": p, "coeffs": act(g, (a, 0, 0, b), p)}
            if kind == "mul":
                req["u"] = self._sparse(rng, p)
                req["v"] = self._sparse(rng, p)
            elif kind == "iso":
                req["matrix"] = random_gl2(rng, p)
            elif kind.startswith("gamma"):
                req["bound"] = int(kind[-1])
            yield req

    @staticmethod
    def _sparse(rng, p):
        """Three nonzero coordinates, each c0 + c1*GA."""
        return [(j, rng.randrange(1, p), rng.randrange(p)) for j in sorted(rng.sample(range(18), 3))]

    def setup(self, timer) -> dict:
        from cubiclifford import cliffordf, fields, forms, freealg, gca, spoly

        self.cliffordf, self.forms, self.freealg = cliffordf, forms, freealg
        self.basis_words, self.ga_words = gca.BASIS_WORDS, gca.CENTRAL_EXPANSIONS["GA"]
        self.gamma_vars, self.spoly = spoly.GAMMA_VARS, spoly
        self.fields = {p: fields.FieldSpec.prime(p) for p in self.PRIMES}
        first = forms.BinaryCubicForm(self.fields[7], (1, 0, 0, 1))
        with timer() as t:
            cliffordf.specialized_algebra(first)
        return {"structure_s": t.seconds}

    def _element(self, form, data):
        field = form.field
        zero = self.spoly.SPolynomial.zero(field, self.gamma_vars)
        coords = [zero] * 18
        for j, c0, c1 in data:
            coords[j] = self.spoly.SPolynomial(
                field, self.gamma_vars, {(0,): field.scalar(c0), (1,): field.scalar(c1)}
            )
        return self.cliffordf.CliffordFElement(form, coords)

    def prepare(self, req):
        field = self.fields[req["p"]]
        form = self.forms.BinaryCubicForm(field, req["coeffs"])
        prepared = {"form": form}
        if req["kind"] == "mul":
            prepared["u"] = self._element(form, req["u"])
            prepared["v"] = self._element(form, req["v"])
        elif req["kind"] == "iso":
            prepared["g"] = self.forms.GL2Element(field, req["matrix"])
        return prepared

    def execute(self, req, prepared):
        kind, form = req["kind"], prepared["form"]
        cf = self.cliffordf
        if kind == "mul":
            return cf.specialized_algebra(form).mul(prepared["u"], prepared["v"])
        if kind == "iso":
            return cf.check_clifford_iso(prepared["g"], form)
        if kind == "symbol":
            return cf.symbol_relations_check(form)
        return cf.gamma_independence_check(form, req["bound"])

    def _free_preimage(self, field, data):
        """The free element sum (c0 + c1*gamma) * b_j of a sparse element."""
        terms = {}
        for j, c0, c1 in data:
            word = self.basis_words[j]
            parts = [(word, c0)] + [(w + word, c1 * k) for w, k in self.ga_words.items()]
            for w, c in parts:
                terms[w] = terms.get(w, field.zero()) + field.scalar(c)
        return self.freealg.FreeElement(field, terms)

    def check(self, req, prepared, result):
        kind, p = req["kind"], req["p"]
        if kind == "mul":
            field = self.fields[p]
            # a fresh algebra (not the cached one) and word folding, not the
            # basis-word expansion that mul uses
            alg = self.cliffordf.SpecializedAlgebra(prepared["form"])
            left = self._free_preimage(field, req["u"])
            right = self._free_preimage(field, req["v"])
            require(alg.reduce_free(left) == prepared["u"], "preimage-mismatch")
            require(alg.reduce_free(left * right) == result, "mul-vs-reduce-free")
        elif kind == "iso":
            require(result.passed, "iso-report-failed")
            expected = det(req["matrix"], p) ** 2 % p
            require(
                result.gamma_factor is not None and result.gamma_factor.val == expected,
                "iso-gamma-factor",
            )
        elif kind == "symbol":
            require(result.passed, "symbol-report-failed", str(result.first_failure))
        else:
            require(result is True, "gamma-dependent")


# -- cli-forms -----------------------------------------------------------------------


class CliForms:
    name = "cli-forms"
    CHEAP = ("disc", "act", "diagonalize", "jacobian", "torsion", "cover-point", "stab-diagonal")
    BLOCK = (
        list(CHEAP) * 2
        + ["orbits-7", "orbits-13", "orbits-13", "stab-7", "lambda-kernel"]
        + ["point-search-found", "point-search-absent"]
    )
    NOMINAL_RPS = 17

    def __init__(self, seed: int):
        self.seed = seed
        self._nondegenerate = {}

    def requests(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        for i, kind in enumerate(_blocks(rng, self.BLOCK)):
            yield dict(self._request(rng, kind), id=i, kind=kind)

    @staticmethod
    def _fp_args(command, p, coeffs):
        return [command, "--field", "Fp", "--p", str(p), "--coeffs", ",".join(map(str, coeffs))]

    def _request(self, rng, kind):
        if kind in self.CHEAP:
            p = rng.choice(CHEAP_PRIMES)
            if kind == "stab-diagonal":
                f = (rng.randrange(1, p), 0, 0, rng.randrange(1, p))
                return {"p": p, "coeffs": f, "argv": self._fp_args("stab", p, f)}
            f = random_form(rng, p)
            req = {"p": p, "coeffs": f, "argv": self._fp_args(kind, p, f)}
            if kind == "act":
                req["matrix"] = random_gl2(rng, p)
                req["argv"] += ["--matrix", ",".join(map(str, req["matrix"]))]
            elif kind == "cover-point":
                req["which"] = rng.randint(1, 4)
                req["argv"] += ["--which", str(req["which"])]
            return req
        if kind.startswith("orbits"):
            p = int(kind.split("-")[1])
            fmt = rng.choice(("json", "csv"))
            argv = ["orbits", "--field", "Fp", "--p", str(p), "--nondegenerate", "--format", fmt]
            return {"p": p, "format": fmt, "argv": argv}
        if kind == "stab-7":
            while True:
                f = random_form(rng, 7)
                if f[1] or f[2]:
                    return {"p": 7, "coeffs": f, "argv": self._fp_args("stab", 7, f)}
        if kind == "lambda-kernel":
            p = rng.choice(LAMBDA_PRIMES)
            f = random_form(rng, p)
            return {"p": p, "coeffs": f, "argv": self._fp_args("lambda-kernel", p, f)}
        # point searches over Q; the stream holds one form with a point
        # within the budget and one without in every block
        want_found = kind == "point-search-found"
        while True:
            f = tuple(rng.randint(-9, 9) for _ in range(4))
            if disc(f) and (q_point_within(f, POINT_BUDGET) is not None) == want_found:
                break
        argv = ["point-search", "--field", "Q", "--coeffs=" + ",".join(map(str, f)),
                "--budget", str(POINT_BUDGET)]
        return {"coeffs": f, "argv": argv}

    def setup(self, timer) -> dict:
        from cubiclifford import cli

        self.cli = cli
        cli.build_parser()
        return {"structure_s": 0.0}

    def prepare(self, req):
        return None

    def execute(self, req, prepared):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(req["argv"])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    # checks --------------------------------------------------------------------

    def nondegenerate_count(self, p):
        if p not in self._nondegenerate:
            n = 0
            for c0 in range(p):
                for c1 in range(p):
                    for c2 in range(p):
                        for c3 in range(p):
                            if disc((c0, c1, c2, c3), p):
                                n += 1
            self._nondegenerate[p] = n
        return self._nondegenerate[p]

    def check(self, req, prepared, result):
        code, out, err = result
        require(code in (0, 1), "exit-code", f"{code}: {err.strip()[:200]}")
        kind = req["kind"]
        if code == 1:
            error = json.loads(err.strip().splitlines()[-1])["error"]
            self._check_domain_error(req, error)
            return
        if kind.startswith("orbits"):
            self._check_orbits(req, out)
            return
        checks = {
            "disc": self._check_disc,
            "act": self._check_act,
            "diagonalize": self._check_diagonalize,
            "jacobian": self._check_jacobian,
            "torsion": self._check_torsion,
            "cover-point": self._check_cover,
            "stab-diagonal": self._check_stab,
            "stab-7": self._check_stab,
            "lambda-kernel": self._check_lambda,
            "point-search-found": self._check_point,
            "point-search-absent": self._check_point,
        }
        checks[kind](req, json.loads(out))

    def _check_domain_error(self, req, error):
        kind = req["kind"]
        p, f = req.get("p"), req.get("coeffs")
        if kind == "diagonalize" and error == "square-root-absent":
            # -Delta/108 must be a non-residue
            big_d = -disc(f, p) * pow(108, -1, p) % p
            require(not is_square(big_d, p), "false-square-root-absent")
        elif kind == "diagonalize" and error == "not-diagonalizable-by-this-transform":
            third = pow(3, -1, p)

            def r_of(c):
                return (c[0] * c[2] * third - c[1] * c[1] * third * third) % p

            swapped = act((0, 1, 1, 0), f, p)
            require(r_of(f) == 0 and r_of(swapped) == 0, "false-not-diagonalizable")
        elif kind == "cover-point" and error == "precondition-failed":
            value = {1: f[0], 2: f[3], 3: evaluate(f, 1, 1), 4: evaluate(f, 1, -1)}[req["which"]]
            require(value % p == 0, "false-precondition")
        else:
            raise CheckFailed("unexpected-domain-error", f"{kind}: {error}")

    def _check_disc(self, req, data):
        require(data["delta"] == disc(req["coeffs"], req["p"]), "disc")

    def _check_act(self, req, data):
        p, f, g = req["p"], req["coeffs"], req["matrix"]
        image = tuple(data["coeffs"])
        require(image == act(g, f, p), "act-expansion")
        require(disc(image, p) == det(g, p) ** 6 * disc(f, p) % p, "disc-covariance")

    def _check_diagonalize(self, req, data):
        p, f = req["p"], req["coeffs"]
        g, diag = tuple(data["transform"]), tuple(data["diagonal"])
        require(det(g, p) != 0, "diagonalize-singular")
        require(act(g, f, p) == diag and diag[1] == diag[2] == 0, "diagonalize")

    def _check_jacobian(self, req, data):
        p = req["p"]
        require(data["A"] == disc(req["coeffs"], p) * pow(4, -1, p) % p, "jacobian")

    def _check_torsion(self, req, data):
        p = req["p"]
        a = disc(req["coeffs"], p) * pow(4, -1, p) % p
        require(data["A"] == a, "torsion-constant")
        points = data["points"]
        require(points[0] == "infinity", "torsion-infinity")
        for pt in points[1:]:
            require(pt["gamma"] == 0 and pt["s"] ** 2 % p == a, "torsion-point")
        expected = 3 if is_square(a, p) else 1
        require(data["order"] == len(points) == expected, "torsion-order")

    def _check_cover(self, req, data):
        p, f, which = req["p"], req["coeffs"], req["which"]
        pt = data["point"]
        if data["field"] == "Fp":
            u, v, w = pt["u"], pt["v"], pt["w"]
            require((u, v, w) != (0, 0, 0), "cover-zero")
            require(pow(w, 3, p) == evaluate(f, u, v) % p, "cover-point-off-curve")
            shape = {1: v == 0, 2: u == 0, 3: (u, v) == (1, 1), 4: (u, v) == (1, p - 1)}
            require(shape[which], "cover-shape")
            return
        ext = _Fp3(p, pt["modulus"])
        require(ext.irreducible(), "cover-modulus-reducible")
        u, v, w = (tuple(pt[k]) for k in ("u", "v", "w"))
        u2, v2 = ext.mul(u, u), ext.mul(v, v)
        rhs = (0, 0, 0)
        for c, mono in zip(f, (ext.mul(u2, u), ext.mul(u2, v), ext.mul(u, v2), ext.mul(v2, v))):
            rhs = ext.add(rhs, ext.scale(c, mono))
        require(ext.mul(ext.mul(w, w), w) == rhs, "cover-point-off-curve-fp3")

    def _check_stab(self, req, data):
        p, f = req["p"], tuple(req["coeffs"])
        elements = [tuple(g) for g in data["elements"]]
        require(len(set(elements)) == len(elements) == data["order"], "stab-count")
        for g in elements:
            require(det(g, p) != 0 and act(g, f, p) == f, "stab-element-moves-form")
        if req["kind"] == "stab-diagonal":
            expected = 18 if is_cube(f[3] * pow(f[0], -1, p), p) else 9
            require(data["order"] == expected, "stab-diagonal-order")
        else:
            require(data["order"] * orbit_size(f, p) == gl2_order(p), "orbit-stabilizer")

    def _check_orbits(self, req, out):
        p = req["p"]
        if req["format"] == "csv":
            rows = list(csv.DictReader(io.StringIO(out)))
            orbits = [
                (tuple(int(t) for t in r["representative"].split()), int(r["size"]),
                 int(r["stabilizer_order"]), int(r["delta"]))
                for r in rows
            ]
        else:
            data = json.loads(out)
            require(data["count"] == len(data["orbits"]), "orbits-count")
            orbits = [
                (tuple(o["representative"]), o["size"], o["stabilizer_order"], o["delta"])
                for o in data["orbits"]
            ]
        require(sum(o[1] for o in orbits) == self.nondegenerate_count(p), "orbit-sizes-sum")
        for rep, size, stab, delta in orbits:
            require(size * stab == gl2_order(p), "orbit-stabilizer")
            require(delta == disc(rep, p) != 0, "orbit-delta")

    def _check_lambda(self, req, data):
        p = req["p"]
        a = disc(req["coeffs"], p) * pow(4, -1, p) % p
        require(data["A"] == a, "lambda-constant")
        require(data["kernel_equals_torsion"] is True, "kernel-not-torsion")
        # point count by Euler's criterion, independent of the curve scan
        count = 1
        for g in range(p):
            rhs = (g**3 + a) % p
            count += 1 if rhs == 0 else (2 if pow(rhs, (p - 1) // 2, p) == 1 else 0)
        require(data["curve_order"] == count, "curve-order")
        for pt in data["kernel"]:
            if pt != "infinity":
                require((pt["s"] ** 2 - pt["gamma"] ** 3 - a) % p == 0, "kernel-off-curve")

    def _check_point(self, req, data):
        f = req["coeffs"]
        if data["status"] == "found":
            pt = data["point"]
            u, v, w = (Fraction(str(pt[k])) for k in ("u", "v", "w"))
            require((u, v) != (0, 0) and w**3 == evaluate(f, u, v), "point-off-curve")
            require(req["kind"] == "point-search-found", "point-found-beyond-scan")
        else:
            require(data["status"] == "absent-within-budget", "point-status")
            require(req["kind"] == "point-search-absent", "point-missed")


WORKLOADS = {w.name: w for w in (GcaQw, CliffordfFp, CliForms)}
