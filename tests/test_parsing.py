"""The raw-term parsers against the operator parse of ``tests/oracles.py``,
and ``reduce_text`` (products and powers of sums in the algebra) against
``reduce`` of the expanded element.

Expression trees are derandomized Hypothesis draws over F_7, a prime above
2^63, Q and Q(w): sums, differences, nested parentheses, unary minus,
integer and ``p/q`` literals (zero and multiple-of-7 denominators
included), ``w`` and powers 0-6, sized so that the expansion stays below
about 2000 words. Plain sums of monomial terms, the texts the flat scanner
reads, are drawn too: signs, ``x + -y``, literals, names with powers 0-6,
an unknown name, coefficients ``(a+b*w)``, unusual whitespace and a
5000-digit literal. Malformed texts are either kind with one character
dropped or one non-digit inserted.
"""

import contextlib
import io
import random
import re
import time
from fractions import Fraction

import pytest
from conftest import rand_free_element
from hypothesis import example, given, settings, strategies as st

from cubiclifford import spoly
from cubiclifford._parsing import scan_sum, tokenize
from cubiclifford.cli import main
from cubiclifford.errors import BudgetExceeded, CubicliffordError, NumberTooLarge
from cubiclifford.fields import FieldSpec, power
from cubiclifford.freealg import FreeElement, parse_free_expression, word_text
from cubiclifford.gca import PREFIX_CACHE_LETTERS, GCAElement, GenericCliffordAlgebra
from cubiclifford.spoly import MAX_EXPONENT, RawRing, SPolynomial, discriminant_polynomial

from oracles import operator_parse_free, operator_parse_poly

F7 = FieldSpec.prime(7)
P64 = FieldSpec.prime(18446744073709551427)
Q = FieldSpec.rationals()
QW = FieldSpec.cyclotomic()
FIELDS = (F7, P64, Q, QW)
ALGEBRAS = {field: GenericCliffordAlgebra(field) for field in (F7, P64, QW)}
MAX_WORDS = 2000
POLY_VARS = ("X3", "AL", "GA")

literals = st.one_of(
    st.integers(0, 12).map(str),
    st.integers(0, 2**70).map(str),
    st.tuples(st.integers(0, 30), st.sampled_from((0, 1, 2, 3, 6, 7, 14))).map(
        lambda pq: f"{pq[0]}/{pq[1]}"
    ),
)


@st.composite
def trees(draw, names, depth=4):
    """(text, bound): an expression and a bound on its expanded terms."""
    if depth == 0 or (depth < 3 and not draw(st.integers(0, 3))):
        if draw(st.booleans()):
            return draw(literals), 1
        return draw(st.sampled_from(names)), 1
    op = draw(st.sampled_from("^*+-^*n("))
    text, bound = draw(trees(names, depth - 1))
    if op == "n":
        return f"-{text}", bound
    if op == "(":
        return f"({text})", bound
    other, other_bound = draw(trees(names, depth - 1))
    if op == "^":  # a power of a sum
        bound += other_bound
        top = max(n for n in range(7) if bound**n <= MAX_WORDS)
        n = draw(st.integers(0, top))
        return f"({text} + {other})^{n}", bound**n
    if op == "*" and bound * other_bound <= MAX_WORDS:
        return f"({text})*({other})", bound * other_bound
    return f"{text} {'-' if op == '-' else '+'} {other}", bound + other_bound


@st.composite
def malformed(draw, names, shape=None):
    """A tree's text (or a draw of ``shape``) with one character dropped or
    one non-digit inserted."""
    text = draw(shape) if shape is not None else draw(trees(names))[0]
    at = draw(st.integers(0, len(text)))
    if draw(st.booleans()) and at < len(text):
        return text[:at] + text[at + 1:]
    return text[:at] + draw(st.sampled_from("+-*^()/ zw")) + text[at:]


# n and n/d, zero and multiple-of-7 d among them, and one 5000-digit n, past
# the interpreter's digit limit
SUM_LITERALS = [
    f"{n}{d}" for n in range(14) for d in ("", "", "", "/0", "/1", "/2", "/3", "/6", "/7", "/14")
] + ["9" * 5000]


def sums(names):
    """A plain sum of monomial terms: each term an optional sign (``x + -y``
    included), then literals, names of ``names`` or the unknown ``z`` with
    an optional power 0-6, and coefficients ``(a+b*w)`` as
    ``Scalar.__str__`` prints them, joined by ``*``; tokens apart by one
    unusual whitespace."""
    literal = st.sampled_from(SUM_LITERALS)
    power = st.builds(
        str.__add__,
        st.sampled_from(names * 3 + ("z",)),
        st.sampled_from(("", "", "", "", *(f"^{n}" for n in range(7)))),
    )
    coefficient = st.builds(
        lambda sign, a, op, b: f"({sign}{a}{op}{b}w)",
        st.sampled_from(("", "-")),
        literal,
        st.sampled_from("+-"),
        st.just("") | literal.map(lambda q: q + "*"),
    )
    term = st.tuples(
        st.sampled_from(("+", "-", "+ -", "- -")),
        st.lists(literal | power | coefficient, min_size=1, max_size=4),
    )

    def text(first_sign, terms, space):
        parts = [first_sign] + [
            part for k, (sign, factors) in enumerate(terms) for part in (
                sign if k else "", f"{space}*{space}".join(factors)
            )
        ]
        return space.join(parts)

    return st.builds(
        text,
        st.sampled_from(("", "-")),
        st.lists(term, min_size=1, max_size=5),
        st.sampled_from(("", " ", "  ", "\t", "\n", "\u00a0")),
    )


def inputs(names):
    """(text, bound) draws: trees, sums and both kinds made malformed."""
    return st.one_of(
        trees(names),
        *(texts.map(lambda text: (text, 0)) for texts in (
            malformed(names), sums(names), malformed(names, sums(names))
        )),
    )


def outcome(parse, text, field):
    """The parsed element, or the error's type, message and position."""
    try:
        return parse(text, field)
    except CubicliffordError as err:
        return type(err), str(err), getattr(err, "position", None)


def small_exponents(text):
    """Whether every exponent is at most 6, so the operator parse is quick."""
    return all(len(n) < 4 and int(n) <= 6 for n in re.findall(r"\^\s*(\d+)", text))


FREE_NAMES = ("x", "y", "w", "x", "y")
POLY_NAMES = POLY_VARS + ("w",)
SETTINGS = settings(max_examples=500, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(field=st.sampled_from(FIELDS), tree=inputs(FREE_NAMES))
@example(field=Q, tree=(f"x + {SUM_LITERALS[-1]}*y", 0))
def test_free_parse_equals_the_operator_parse(field, tree):
    text, _ = tree
    if small_exponents(text):
        assert outcome(parse_free_expression, text, field) == outcome(
            operator_parse_free, text, field
        ), text


def parse_poly(text, field):
    return SPolynomial.parse(text, field, POLY_VARS)


def operator_poly(text, field):
    return operator_parse_poly(text, field, POLY_VARS)


@SETTINGS
@given(field=st.sampled_from(FIELDS), tree=inputs(POLY_NAMES))
@example(field=F7, tree=(f"X3 + {SUM_LITERALS[-1]}*GA", 0))
def test_polynomial_parse_equals_the_operator_parse(field, tree):
    text, _ = tree
    if small_exponents(text):
        assert outcome(parse_poly, text, field) == outcome(operator_poly, text, field), text


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(tuple(ALGEBRAS)), tree=trees(FREE_NAMES))
def test_reduce_text_equals_reduce_of_the_expansion(field, tree):
    text, _ = tree
    alg = ALGEBRAS[field]

    def reduce_text(text, field):
        return alg.reduce_text(text)

    def reduce_expansion(text, field):
        return alg.reduce(operator_parse_free(text, field))

    assert outcome(reduce_text, text, field) == outcome(reduce_expansion, text, field), text


def test_powers_of_sums_equal_repeated_products():
    alg = ALGEBRAS[QW]
    s = alg.reduce(parse_free_expression("x + y", QW))
    for k in (8, 12, 14, 16):
        expected = power(s, k, alg.one(), alg.mul)
        assert alg.reduce_text(f"(x + y)^{k}") == expected
    assert alg.reduce_text("(x + y)^8") == alg.reduce(operator_parse_free("(x + y)^8", QW))


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_reduce_of_a_power_of_a_sum_answers_in_under_a_second():
    start = time.perf_counter()
    code, out, _ = run("reduce", "--field", "Qw", "--expr", "(x+y)^16")
    assert code == 0 and time.perf_counter() - start < 1
    assert out.startswith('{"coords":[')


def test_reduce_budget_counts_work_and_says_how_much_was_used():
    code, _, err = run("reduce", "--field", "Qw", "--expr", "(x+y)^64")
    assert code == 1
    assert '"error":"budget-exceeded"' in err and "1000000 work units" in err
    code, _, err = run("reduce", "--field", "Qw", "--expr", "x^5 + y", "--budget", "4")
    assert code == 1 and "budget of 4 work units (6 used)" in err
    assert run("reduce", "--field", "Qw", "--expr", "x^5 + y", "--budget", "100")[0] == 0
    # a word power past the prefix cache is a power of the word's normal
    # form, so its letters are never built, and its products are charged
    alg = ALGEBRAS[F7]
    x = alg.basis_element(1)
    assert alg.reduce_text("x^1000000000") == power(x, 10**9, alg.one(), alg.mul)
    try:
        alg.reduce_text("x^1000000000", budget=10)
    except BudgetExceeded as err:
        assert "budget of 10 work units" in str(err)
    else:
        raise AssertionError("a word power ran past its budget")


def test_a_long_word_power_is_a_power_of_its_normal_form():
    # equal to folding the expanded word letter by letter in a second algebra
    alg, folding = GenericCliffordAlgebra(QW), GenericCliffordAlgebra(QW)
    for text, word in (("x^100000", "x" * 100000), ("(x*y)^40", "xy" * 40), ("y^65", "y" * 65)):
        start = time.perf_counter()
        got = alg.reduce_text(text)
        seconds = time.perf_counter() - start
        assert got == folding.reduce(FreeElement.word(QW, word)), text
        if text == "x^100000":
            assert seconds < 0.05, seconds


def test_a_long_word_caches_bounded_prefixes():
    alg = GenericCliffordAlgebra(QW)
    n = 3 * PREFIX_CACHE_LETTERS + 2
    got = alg.reduce(FreeElement.word(QW, "x" * n))
    assert max(map(len, alg._word_cache)) == PREFIX_CACHE_LETTERS
    x = alg.basis_element(1)
    assert got == power(x, n, alg.one(), alg.mul)
    # a second word goes on from the longest cached prefix
    assert alg.reduce(FreeElement.word(QW, "x" * n + "y")) == alg.mul(got, alg.basis_element(2))


@pytest.mark.parametrize(
    "text, answered",
    [
        ("X3^1073741823", True),
        ("X3^1073741824", False),
        ("*".join(["X3^1073741823"] * 5), False),
        ("GA + 2*X3^536870912*AL*X3^536870912", False),
        ("GA + 2*X3^536870912*AL*X3^536870911", True),
    ],
)
def test_an_exponent_above_the_bound_is_never_packed(text, answered):
    # the flat route refuses the text, and the general route raises as the
    # operator parse does, NumberTooLarge with the same message
    tokens = tokenize(text)
    for field in FIELDS:
        ring = RawRing(SPolynomial.zero(field, POLY_VARS), {"X3": 1 << 64, "AL": 1 << 32, "GA": 1})
        assert (ring._read(scan_sum(tokens), len(tokens)) is not None) == answered
        got = outcome(parse_poly, text, field)
        assert got == outcome(operator_poly, text, field), text
        assert got[0] is NumberTooLarge if not answered else isinstance(got, SPolynomial)


def test_the_term_map_parsers_are_budgeted():
    used = r"parse needs more than its budget of 1000000 work units \((\d+) used\)"
    # 2^20 words; the last product is charged its 2^16 * 2^4 term products first
    with pytest.raises(BudgetExceeded, match=used):
        parse_free_expression("(x+y)^20", QW)
    for parse, text in (
        (lambda text: SPolynomial.parse(text, Q), "(X3+AL+BE+Y3+GA)^200"),
        (lambda text: parse_free_expression(text, F7), "x^1000000000"),
    ):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=used):
            parse(text)
        assert time.perf_counter() - start < 1, text
    # below the budget nothing changes
    assert parse_free_expression("(x+y)^14", Q) == operator_parse_free("(x+y)^14", Q)
    # the flat route counts at least what the general one charges, so at the
    # edge the general route decides: x^n is charged its name, its n letters
    # and the power
    assert parse_free_expression("x^999998", F7) == FreeElement.word(F7, "x" * 999998)
    with pytest.raises(BudgetExceeded, match=r"\(1000001 used\)"):
        parse_free_expression("x^999999", F7)
    with pytest.raises(BudgetExceeded, match=used):
        parse_free_expression("x^600000 + y^600000", F7)
    assert SPolynomial.parse("X3^1073741823 + 2", F7) == SPolynomial(
        F7, ("X3", "AL", "BE", "Y3", "GA"), {(MAX_EXPONENT, 0, 0, 0, 0): 1, (0,) * 5: 2}
    )


def qw_request(rng):
    """A reduce text in the shape the benchmark's gca-qw workload writes,
    and its element: 2 to 6 terms (a+b*w)*word, a and b in [-9, 9]/[1, 6]
    as ``_coeff_text`` prints them, words of 4 to 12 letters as
    ``word_text`` prints them."""

    def q(x):
        return str(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    texts, terms = [], {}
    for _ in range(rng.randint(2, 6)):
        word = "".join(rng.choice("xy") for _ in range(rng.randint(4, 12)))
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        texts.append(f"({q(a)}{'-' if b < 0 else '+'}{q(abs(b))}*w)*{word_text(word)}")
        terms[word] = terms.get(word, QW.zero()) + QW.scalar((a, b))
    return " + ".join(texts), FreeElement(QW, terms)


def test_the_request_texts_take_the_flat_route(monkeypatch):
    def general_route(*_):
        raise AssertionError("the general route ran")

    monkeypatch.setattr(spoly, "ExprParser", general_route)
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for _ in range(1120):
            text, element = qw_request(rng)
            assert parse_free_expression(text, QW) == element, text
    for field in (F7, P64, Q, QW):
        rng = random.Random(5)
        for _ in range(200):
            element = rand_free_element(field, rng)
            assert parse_free_expression(str(element), field) == element
        assert discriminant_polynomial(field) == operator_parse_poly(
            "18*X3*AL*BE*Y3 - 4*AL^3*Y3 + AL^2*BE^2 - 4*X3*BE^3 - 27*X3^2*Y3^2", field
        )
    for field in (QW, Q, F7):
        alg, rng = GenericCliffordAlgebra(field), random.Random(6)
        for _ in range(40):
            element = alg.reduce(rand_free_element(field, rng, max_len=12))
            assert GCAElement.from_json(field, element.to_json()) == element
