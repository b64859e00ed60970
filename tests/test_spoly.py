"""Sparse polynomial ring S = k[X3, AL, BE, Y3, GA]."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cubiclifford.errors import (
    FieldMismatch,
    MissingAssignment,
    NumberTooLarge,
    UnknownSymbol,
    VariableMismatch,
)
from cubiclifford.fields import FieldSpec
from cubiclifford.freealg import FreeElement
from cubiclifford.spoly import (
    GCA_VARS,
    MAX_EXPONENT,
    SPolynomial,
    discriminant_polynomial,
)

Q = FieldSpec.rationals()
QW = FieldSpec.cyclotomic()
F7 = FieldSpec.prime(7)
P64 = 18446744073709551427  # a prime above 2^64, 1 mod 3


def V(field, name):
    return SPolynomial.variable(field, name)


def test_difference_of_squares():
    x3, ga = V(Q, "X3"), V(Q, "GA")
    assert (x3 + ga) * (x3 - ga) == x3 * x3 - ga * ga


def test_additive_identity():
    p = SPolynomial.parse("3*X3*GA - AL", Q)
    assert p + SPolynomial.zero(Q) == p


def test_square_over_f7():
    al, be = V(F7, "AL"), V(F7, "BE")
    assert (al * be) ** 2 == al**2 * be**2


def test_single_term_power_is_charged_like_a_parsed_power():
    # the operator and the parsers share RawTerms.__pow__, which charges a
    # lone coefficient's power (Scalar.__pow__) before computing it
    with pytest.raises(NumberTooLarge):
        SPolynomial.parse("10*X3", Q) ** 300000
    with pytest.raises(NumberTooLarge):
        SPolynomial.parse("(10*X3)^300000", Q)
    assert SPolynomial.parse("2/3*X3 + w", QW) ** 3 == SPolynomial.parse("(2/3*X3 + w)^3", QW)
    assert SPolynomial.parse("3*X3", F7) ** 300000 == SPolynomial.parse("(3*X3)^300000", F7)


def test_exponent_bound_on_parse_and_operators():
    # a monomial holds each exponent in [0, MAX_EXPONENT]: the largest
    # round-trips with its text, and one step past it raises NumberTooLarge
    # on every route, also from two exponents that are each legal
    top, half = MAX_EXPONENT, (MAX_EXPONENT + 1) // 2
    for k, name in enumerate(GCA_VARS):  # X3 the most significant slot, GA the least
        expo = tuple(top if j == k else 0 for j in range(5))
        big = SPolynomial.parse(f"{name}^{top}", F7)
        assert str(big) == f"{name}^{top}" and big.terms == {expo: F7.one()}
        assert big == V(F7, name) ** top == SPolynomial.monomial(F7, expo, 1)
        assert SPolynomial.parse(f"{name}^{top - 1}", F7) * V(F7, name) == big
        halves = SPolynomial.parse(f"{name}^{half}", F7)
        for step in (
            lambda: SPolynomial.parse(f"{name}^{top + 1}", F7),
            lambda: SPolynomial.parse(f"{name}^{top}*{name}", F7),
            lambda: SPolynomial.parse(f"({name}^{half})*({name}^{half})", F7),
            lambda: SPolynomial.parse(f"({name}^{half})^2", F7),
            lambda: big * V(F7, name),
            lambda: halves * halves,
            lambda: halves**2,
            lambda: V(F7, name) ** (top + 1),
            # past four times the bound a slot would carry into its neighbour
            lambda: V(F7, name) ** (2**32 + 1),
            lambda: SPolynomial.parse(f"{name}^{2**32 + 1}", F7),
            lambda: SPolynomial.parse("*".join([f"{name}^{top}"] * 5), F7),
            lambda: (V(F7, name) + SPolynomial.const(F7, 1)) * big,
            lambda: SPolynomial.monomial(F7, tuple(e + (j == k) for j, e in enumerate(expo)), 1),
        ):
            with pytest.raises(NumberTooLarge):
                step()
    # every slot at the bound at once: no slot spills into its neighbour
    text = "*".join(f"{v}^{top}" for v in GCA_VARS)
    assert str(SPolynomial.parse(text, QW)) == text
    assert str(SPolynomial.parse(text, QW) * SPolynomial.parse("w", QW)) == f"w*{text}"
    # a single term's power keeps its coefficient
    assert str(SPolynomial.parse("10*X3", F7) ** 5) == "5*X3^5"
    assert str(SPolynomial.parse("10*X3", Q) ** 3) == "1000*X3^3"
    assert str(SPolynomial.parse("-1/2*GA", Q) ** 3) == "-1/8*GA^3"
    assert str(SPolynomial.parse("3*GA", F7) ** top) == f"{pow(3, top, 7)}*GA^{top}"
    with pytest.raises(ValueError):
        SPolynomial.monomial(Q, (0, -1, 0, 0, 0), 1)


def test_variable_mismatch():
    with pytest.raises(VariableMismatch):
        V(Q, "X3") + SPolynomial.variable(Q, "GA", ("GA",))


def test_free_and_polynomial_operands_do_not_mix():
    x = FreeElement.generator(Q, "x")
    with pytest.raises(VariableMismatch):
        x + V(Q, "X3")
    with pytest.raises(VariableMismatch):
        V(Q, "X3") + x


def test_discriminant_evaluation():
    # independent oracle: direct integer evaluation of the expansion
    def delta_int(a, b, c, d):
        return 18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d

    delta = discriminant_polynomial(Q)
    point = {"X3": Q.one(), "AL": Q.zero(), "BE": Q.zero(), "Y3": Q.one(), "GA": Q.zero()}
    assert delta.evaluate(point) == Q.scalar(delta_int(1, 0, 0, 1))
    assert delta.evaluate(point) == Q.scalar(-27)
    rng = random.Random(5)
    for _ in range(25):
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        point = {
            "X3": Q.scalar(a),
            "AL": Q.scalar(b),
            "BE": Q.scalar(c),
            "Y3": Q.scalar(d),
            "GA": Q.zero(),
        }
        assert delta.evaluate(point) == Q.scalar(delta_int(a, b, c, d))


def test_constant_term_at_zero():
    p = SPolynomial.parse("5 + X3*GA - AL^2", Q)
    zeros = {v: Q.zero() for v in GCA_VARS}
    assert p.evaluate(zeros) == Q.scalar(5)


def test_ga_cube_mod_7():
    p = V(F7, "GA") ** 3
    point = {v: F7.zero() for v in GCA_VARS}
    point["GA"] = F7.scalar(2)
    assert p.evaluate(point) == F7.one()


def test_missing_assignment():
    with pytest.raises(MissingAssignment):
        V(Q, "X3").evaluate({"AL": Q.one()})


def test_evaluation_checks_the_field_of_each_value():
    point = {v: F7.one() for v in GCA_VARS}
    point["BE"] = Q.one()
    with pytest.raises(FieldMismatch):
        V(F7, "X3").evaluate(point)
    assert SPolynomial.zero(F7).evaluate({v: F7.one() for v in GCA_VARS}) == F7.zero()


def test_substitute_rejects_a_value_of_another_field():
    # a value of another field is refused on every field, F_p included
    poly = SPolynomial.parse("X3*GA+AL", F7)
    for other in (FieldSpec.prime(13), Q):
        point = {"X3": other.scalar(12), "AL": other.scalar(5)}
        point.update(BE=other.zero(), Y3=other.zero())
        with pytest.raises(FieldMismatch):
            poly.substitute(point, ("GA",))
    for field, other in ((Q, F7), (QW, Q)):
        point = {v: other.one() for v in GCA_VARS[:4]}
        with pytest.raises(FieldMismatch):
            SPolynomial.parse("X3*GA+AL", field).substitute(point, ("GA",))
    point = {"X3": F7.scalar(12), "AL": F7.scalar(5), "BE": F7.zero(), "Y3": F7.zero()}
    assert str(poly.substitute(point, ("GA",))) == "5*GA + 5"


def test_evaluation_is_ring_hom():
    rng = random.Random(6)

    def rand_poly(field):
        p = SPolynomial.zero(field)
        for _ in range(rng.randint(1, 5)):
            expo = tuple(rng.randint(0, 2) for _ in GCA_VARS)
            p = p + SPolynomial.monomial(field, expo, rng.randint(-4, 4))
        return p

    for field in (Q, F7):
        for _ in range(20):
            p, q = rand_poly(field), rand_poly(field)
            point = {v: field.scalar(rng.randint(-3, 3)) for v in GCA_VARS}
            assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
            assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


def test_ring_axioms_random():
    rng = random.Random(7)

    def rand_poly(field):
        p = SPolynomial.zero(field)
        for _ in range(rng.randint(0, 4)):
            expo = tuple(rng.randint(0, 2) for _ in GCA_VARS)
            p = p + SPolynomial.monomial(field, expo, rng.randint(-4, 4))
        return p

    for _ in range(25):
        p, q, r = (rand_poly(F7) for _ in range(3))
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_substitute_partial():
    p = SPolynomial.parse("X3*GA^2 + AL*GA + 7", Q)
    u = p.substitute({"X3": Q.scalar(2), "AL": Q.scalar(-1), "BE": Q.zero(), "Y3": Q.zero()}, ("GA",))
    assert u == SPolynomial.parse("2*GA^2 - GA + 7", Q, ("GA",))


def test_canonical_text_round_trip():
    samples = [
        "0",
        "1",
        "-27*X3^2*Y3^2 + 18*X3*AL*BE*Y3 - 4*X3*BE^3 - 4*AL^3*Y3 + AL^2*BE^2",
        "GA^3 - 1/4*X3",
        "2/3*AL*GA - BE",
    ]
    for text in samples:
        p = SPolynomial.parse(text, Q)
        assert str(p) == text
        assert SPolynomial.parse(str(p), Q) == p
    # the classical ordering of the discriminant parses to the same polynomial
    assert SPolynomial.parse(
        "18*X3*AL*BE*Y3 - 4*AL^3*Y3 + AL^2*BE^2 - 4*X3*BE^3 - 27*X3^2*Y3^2", Q
    ) == discriminant_polynomial(Q)


def test_qw_coefficient_round_trip():
    p = SPolynomial.parse("(1+2*w)*X3*GA - w*AL + 1/2", QW)
    assert SPolynomial.parse(str(p), QW) == p
    assert "(" in str(p)


def test_terms_is_a_new_dict():
    for e in (
        SPolynomial.parse("X3^2 - 3/2*GA + w*AL", QW),
        SPolynomial.parse("X3^2 - 3*GA + 5", F7),
        FreeElement.word(Q, "xy", Fraction(-2, 3)) + FreeElement.one(Q),
    ):
        before, h, twin = dict(e.terms), hash(e), e._make(dict(e.raw), e.den)
        terms = e.terms
        terms[next(iter(terms))] = e.field.scalar(6)
        terms[e._unit()] = e.field.scalar(4)
        del terms[next(iter(terms))]
        assert e.terms == before and e.terms is not terms
        assert e == twin and hash(e) == h == hash(twin)


def test_unknown_symbol_position():
    with pytest.raises(UnknownSymbol):
        SPolynomial.parse("X3 + bogus", Q)


# -- the raw kernel against Scalar arithmetic ---------------------------------

KERNEL_FIELDS = {"Q": Q, "Qw": QW, "F7": F7, "F_P64": FieldSpec.prime(P64)}


def coefficients(field):
    """Scalars of ``field``; over Q and Q(w) with denominators 1-6 (in both
    parts over Q(w))."""
    if field.p:
        return st.integers(0, field.p - 1).map(field.scalar)
    frac = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    if field.kind == "Q":
        return frac.map(field.scalar)
    return st.tuples(frac, frac).map(field.scalar)


# ring -> (monomials, constructor from {monomial: Scalar}, monomial product, unit)
RINGS = {
    "SPolynomial": (
        st.tuples(*(st.integers(0, 2) for _ in GCA_VARS)),
        lambda field, terms: SPolynomial(field, GCA_VARS, terms),
        lambda e1, e2: tuple(a + b for a, b in zip(e1, e2)),
        (0,) * len(GCA_VARS),
    ),
    "FreeElement": (
        st.text("xy", max_size=3),
        FreeElement,
        lambda w1, w2: w1 + w2,
        "",
    ),
}


def reference(pairs):
    """The Scalar-level sum of c * m over (monomial, Scalar) pairs, zeros dropped."""
    out = {}
    for m, c in pairs:
        out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if not c.is_zero()}


def reference_mul(p, q, mono_mul):
    return reference(
        (mono_mul(m1, m2), c1 * c2) for m1, c1 in p.terms.items() for m2, c2 in q.terms.items()
    )


def assert_canonical(t):
    """The raw layout's invariants: residues in [1, p) over F_p; over Q and
    Q(w) nonzero pairs over a positive denominator sharing no factor with
    all of them (b = 0 over Q)."""
    if t.field.p:
        assert t.den == 1 and all(0 < r < t.field.p for r in t.raw.values())
        return
    assert t.den > 0 and all(a or b for a, b in t.raw.values())
    assert gcd(t.den, *(x for pair in t.raw.values() for x in pair)) == 1
    if t.field.kind == "Q":
        assert all(b == 0 for _, b in t.raw.values())


@pytest.mark.parametrize("field", KERNEL_FIELDS.values(), ids=KERNEL_FIELDS.keys())
@pytest.mark.parametrize("ring", RINGS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_kernel_agrees_with_scalar_reference(ring, field, data):
    monos, build, mono_mul, unit = RINGS[ring]
    elements = st.dictionaries(monos, coefficients(field), max_size=4).map(
        lambda terms: build(field, terms)
    )
    p, q = data.draw(elements), data.draw(elements)
    c = data.draw(coefficients(field))
    n = data.draw(st.integers(0, 3))
    for t in (p, q):
        assert_canonical(t)
        assert build(field, dict(t.terms)) == t

    results = {
        "+": (p + q, reference([*p.terms.items(), *q.terms.items()])),
        "-": (p - q, reference([*p.terms.items(), *((m, -k) for m, k in q.terms.items())])),
        "neg": (-p, reference((m, -k) for m, k in p.terms.items())),
        "*": (p * q, reference_mul(p, q, mono_mul)),
        "scale": (p.scale(c), reference((m, k * c) for m, k in p.terms.items())),
    }
    power = {unit: field.one()}
    for _ in range(n):
        power = reference_mul(build(field, power), p, mono_mul)
    results["**"] = (p**n, power)
    for op, (got, want) in results.items():
        assert_canonical(got)
        assert dict(got.terms) == want, op
        assert got.is_zero() == (not want), op

    # values reached along different routes are equal, with equal hashes
    half, third = field.one() / field.scalar(2), field.one() / field.scalar(3)
    zero = build(field, {})
    routes = (
        (p.scale(half) + p.scale(half), p),
        ((p * q).scale(third).scale(field.scalar(3)), p * q),
        (p - q + q, p),
        (p.scale(c) - p.scale(c), zero),
        (p.scale(field.zero()), zero),
        (p * zero, zero),
        (p - p, zero),
    )
    for got, want in routes:
        assert got == want and hash(got) == hash(want)
    assert (p - p).is_zero() and (p * zero).is_zero()


# -- the one arithmetic (RawTerms) on seeded operands ---------------------------


def seeded_coefficient(field, rng):
    """A Scalar of ``field``; over Q and Q(w) an even or a multiple of 3 over
    12, so that sums often share a factor with the common denominator."""
    if field.p:
        return field.scalar(rng.randrange(field.p))

    def frac():
        return Fraction(rng.randint(-6, 6) * rng.choice((2, 3)), 12)

    return field.scalar(frac() if field.kind == "Q" else (frac(), frac()))


def seeded_operands(ring, field, rng):
    """(p, q) pairs: random ones, q = -p, and q sharing some of p's terms
    with opposite coefficients, so that sums cancel in full or in part."""
    _, build, _, _ = RINGS[ring]

    def mono():
        if ring == "SPolynomial":
            return tuple(rng.randint(0, 2) for _ in GCA_VARS)
        return "".join(rng.choice("xy") for _ in range(rng.randint(0, 3)))

    def element():
        terms = {mono(): seeded_coefficient(field, rng) for _ in range(rng.randint(0, 5))}
        return build(field, terms)

    for _ in range(12):
        p = element()
        yield p, element()
        yield p, build(field, {m: -c for m, c in p.terms.items()})
        shared = {m: -c for m, c in list(p.terms.items())[:2]}
        yield p, build(field, {**element().terms, **shared})


@pytest.mark.parametrize("field", KERNEL_FIELDS.values(), ids=KERNEL_FIELDS.keys())
@pytest.mark.parametrize("ring", RINGS)
def test_one_arithmetic_on_seeded_operands(ring, field):
    _, _, mono_mul, _ = RINGS[ring]
    rng = random.Random(f"one-arithmetic:{ring}:{field.kind}:{field.p}")
    for p, q in seeded_operands(ring, field, rng):
        before = [(dict(t.raw), t.den) for t in (p, q)]
        c = rng.choice((field.zero(), -field.one(), seeded_coefficient(field, rng)))
        results = {
            "+": (p + q, reference([*p.terms.items(), *q.terms.items()])),
            "-": (p - q, reference([*p.terms.items(), *((m, -k) for m, k in q.terms.items())])),
            "neg": (-p, reference((m, -k) for m, k in p.terms.items())),
            "*": (p * q, reference_mul(p, q, mono_mul)),
            "scale": (p.scale(c), reference((m, k * c) for m, k in p.terms.items())),
            "scale by -1": (p.scale(-field.one()), reference((m, -k) for m, k in p.terms.items())),
            "scale by 0": (p.scale(field.zero()), {}),
        }
        for op, (got, want) in results.items():
            assert_canonical(got)
            assert dict(got.terms) == want, op
        assert [(dict(t.raw), t.den) for t in (p, q)] == before
