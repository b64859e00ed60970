"""The raw-term parsers against the operator parse of ``tests/oracles.py``,
and ``reduce_text`` (products and powers of sums in the algebra) against
``reduce`` of the expanded element.

Expression trees are derandomized Hypothesis draws over F_7, a prime above
2^63, Q and Q(w): sums, differences, nested parentheses, unary minus,
integer and ``p/q`` literals (zero and multiple-of-7 denominators
included), ``w`` and powers 0-6, sized so that the expansion stays below
about 2000 words. Malformed texts are the same trees with one character
dropped or one non-digit inserted.
"""

import contextlib
import io
import re
import time

from hypothesis import given, settings, strategies as st

from cubiclifford.cli import main
from cubiclifford.errors import BudgetExceeded, CubicliffordError
from cubiclifford.fields import FieldSpec, power
from cubiclifford.freealg import FreeElement, parse_free_expression
from cubiclifford.gca import PREFIX_CACHE_LETTERS, GenericCliffordAlgebra
from cubiclifford.spoly import SPolynomial

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
def malformed(draw, names):
    """A tree's text with one character dropped or one non-digit inserted."""
    text, _ = draw(trees(names))
    at = draw(st.integers(0, len(text)))
    if draw(st.booleans()) and at < len(text):
        return text[:at] + text[at + 1:]
    return text[:at] + draw(st.sampled_from("+-*^()/ zw")) + text[at:]


def outcome(parse, text, field):
    """The parsed element, or the error's type, message and position."""
    try:
        return parse(text, field)
    except CubicliffordError as err:
        return type(err), str(err), getattr(err, "position", None)


def small_exponents(text):
    """Whether every exponent is at most 6, so the operator parse is quick."""
    return all(int(n) <= 6 for n in re.findall(r"\^\s*(\d+)", text))


FREE_NAMES = ("x", "y", "w", "x", "y")
POLY_NAMES = POLY_VARS + ("w",)
SETTINGS = settings(max_examples=250, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(field=st.sampled_from(FIELDS), tree=trees(FREE_NAMES) | malformed(FREE_NAMES).map(lambda t: (t, 0)))
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
@given(field=st.sampled_from(FIELDS), tree=trees(POLY_NAMES) | malformed(POLY_NAMES).map(lambda t: (t, 0)))
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
