"""Scalar arithmetic over Q, Q(w), and F_p."""

import copy
import itertools
import pickle
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from conftest import rand_form, rand_free_element, rand_gl2, rand_scalar
from oracles import distinct_roots_factor

from cubiclifford.cliffordf import specialized_algebra
from cubiclifford.curves import CubicExtension, EllipticPoint, ell_mul, ell_neg
from cubiclifford import fields
from cubiclifford.errors import (
    DivisionByZero,
    FieldMismatch,
    NumberTooLarge,
    UnsupportedField,
    UnsupportedFieldForTest,
    ZeroInput,
)
from cubiclifford.fields import (
    FieldSpec,
    Scalar,
    cube_root_in_field,
    form_discriminant,
    form_value,
    hessian,
    iroot,
    lone_root,
    nth_power_class,
    power,
    prime_power_root_mod,
    root_count,
    sixth_power_class_token,
    sqrt_in_field,
)
from cubiclifford.spoly import GCA_VARS, SPolynomial, raw_scalar
from cubiclifford.freealg import FreeElement
from cubiclifford.gca import GenericCliffordAlgebra
from cubiclifford.spoly import GCA_VARS, SPolynomial

Q = FieldSpec.rationals()
QW = FieldSpec.cyclotomic()
F7 = FieldSpec.prime(7)
F13 = FieldSpec.prime(13)


def test_field_spec_validation():
    assert F7.omega_residue == 2  # smallest residue of order 3 mod 7
    assert FieldSpec.prime(7, 4).omega_residue == 4
    assert FieldSpec.prime(13).omega_residue == 3
    with pytest.raises(UnsupportedField):
        FieldSpec.prime(5)  # 5 = 2 mod 3
    with pytest.raises(UnsupportedField):
        FieldSpec.prime(3)
    with pytest.raises(UnsupportedField):
        FieldSpec.prime(9)
    with pytest.raises(UnsupportedField):
        FieldSpec.prime(7, 3)  # 3^3 = 6 != 1 mod 7
    with pytest.raises(UnsupportedField):
        Q.omega()


@pytest.mark.parametrize(
    "n, factor",
    [(318665857834031151167461, 399165290221), (3317044064679887385961981, 1287836182261)],
)
def test_moduli_past_the_proof_bound_are_refused(n, factor):
    # psi_12 and psi_13: composite, 1 mod 3, and strong probable primes to bases 2..37
    assert n % factor == 0 and n % 3 == 1 and fields.is_prime(n)
    assert n >= fields.PRIME_PROOF_BOUND
    with pytest.raises(UnsupportedField):
        FieldSpec.prime(n)


def test_the_last_prime_below_the_proof_bound_is_accepted():
    field = FieldSpec.prime(fields.PRIME_PROOF_BOUND - 198)  # the last prime = 1 (mod 3) below it
    assert field.omega() ** 3 == field.one() != field.omega()


def test_omega_has_order_three():
    for field in (QW, F7, F13, FieldSpec.prime(7, 4), FieldSpec.prime(9973)):
        w = field.omega()
        assert w != field.one()
        assert w * w * w == field.one()
        assert w * w + w + 1 == field.zero()  # minimal polynomial


def test_spec_examples():
    w = QW.omega()
    assert w * w * w == QW.one()
    assert w + w * w == QW.scalar(-1)
    two = F7.scalar(2)
    assert two * two * two == F7.one()


def test_arithmetic_dispatch_and_errors():
    a, b = Q.scalar(Fraction(3, 4)), Q.scalar(Fraction(1, 4))
    assert a + b == Q.one()
    assert a / b == Q.scalar(3)
    with pytest.raises(FieldMismatch):
        a + F7.one()
    with pytest.raises(DivisionByZero):
        a / Q.zero()
    with pytest.raises(FieldMismatch):
        Q.one() + F7.one()


def test_scalar_reads_every_input_through_one_fraction():
    # F_p reads a float, a Decimal or a text as Q and Q(w) do, exactly:
    # 2.5 is 5/2 (not 2), 0.1 is 3602879701896397/2^55 (not 0)
    tenth = Fraction(3602879701896397, 2**55)
    assert Fraction(0.1) == tenth
    for value, exact in ((2.5, Fraction(5, 2)), (0.1, tenth), (Decimal("0.1"), Fraction(1, 10)),
                         ("1/2", Fraction(1, 2)), ("-3", -3)):
        for field in (F7, F13, Q, QW):
            assert field.scalar(value) == field.scalar(exact), (field, value)
    assert F7.scalar(2.5) == F7.scalar(6)
    assert F7.scalar(0.1) != F7.zero()
    assert F7.scalar("1/2") == F7.scalar(4)
    for value in (Fraction(1, 7), "3/14"):  # a denominator divisible by p
        with pytest.raises(DivisionByZero):
            F7.scalar(value)
    with pytest.raises(TypeError):  # a pair belongs to Q(w) alone
        F7.scalar((1, 2))


def test_inverse_property_random():
    rng = random.Random(1)
    for _ in range(100):
        fa = Q.scalar(Fraction(rng.randint(-40, 40), rng.randint(1, 20)))
        if not fa.is_zero():
            assert fa * fa.inverse() == Q.one()
        fb = QW.scalar((rng.randint(-9, 9), rng.randint(-9, 9)))
        if not fb.is_zero():
            assert fb * fb.inverse() == QW.one()
        fc = F13.scalar(rng.randint(1, 12))
        assert fc * fc.inverse() == F13.one()


def test_pow_and_neg():
    w = QW.omega()
    assert w**3 == QW.one()
    assert w**-1 == w * w
    assert (-F7.scalar(3)).val == 4
    assert F7.scalar(3) ** 6 == F7.one()


def test_iroot_exact():
    assert iroot(0, 3) == 0
    assert iroot(64, 6) == 2
    assert iroot(64, 3) == 4
    assert iroot(63, 3) is None
    assert iroot(10**30, 3) == 10**10
    assert iroot(10**30 + 1, 3) is None


def test_prime_power_root_against_brute_force():
    for p in (7, 13, 19, 31, 37, 43, 61):
        for r in (2, 3):
            cubes = {pow(x, r, p) for x in range(p)}
            for a in range(p):
                got = prime_power_root_mod(a, r, p)
                if a in cubes:
                    assert got is not None and pow(got, r, p) == a
                else:
                    assert got is None


def test_sqrt_examples():
    assert sqrt_in_field(F7.scalar(2)) == F7.scalar(3)  # least of {3, 4}
    assert sqrt_in_field(Q.zero()) == Q.zero()
    assert sqrt_in_field(Q.scalar(2)) is None
    assert sqrt_in_field(Q.scalar(Fraction(9, 4))) == Q.scalar(Fraction(3, 2))
    # -3 = (1 + 2w)^2 in Q(w)
    r = sqrt_in_field(QW.scalar(-3))
    assert r is not None and r * r == QW.scalar(-3)
    # w itself is a square: (w^2)^2 = w^4 = w
    r = sqrt_in_field(QW.omega())
    assert r is not None and r * r == QW.omega()
    assert sqrt_in_field(QW.scalar(2)) is None


def test_sqrt_of_square_is_consistent():
    rng = random.Random(2)
    for field in (Q, QW, F7, F13):
        for _ in range(40):
            if field.kind == "Fp":
                r = field.scalar(rng.randint(0, field.p - 1))
            elif field.kind == "Qw":
                r = field.scalar((rng.randint(-6, 6), rng.randint(-6, 6)))
            else:
                r = field.scalar(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
            sq = r * r
            got = sqrt_in_field(sq)
            assert got is not None and got * got == sq


def test_nth_power_class_examples():
    assert nth_power_class(F7.one(), 6) is True
    cubes = {pow(x, 3, 7) for x in range(1, 7)}
    assert cubes == {1, 6}
    assert nth_power_class(F7.scalar(3), 3) is False
    assert nth_power_class(F7.scalar(6), 3) is True
    assert nth_power_class(Q.scalar(64), 6) is True
    assert nth_power_class(Q.scalar(-8), 3) is True
    assert nth_power_class(Q.scalar(-4), 2) is False
    assert nth_power_class(Q.scalar(Fraction(8, 27)), 3) is True
    with pytest.raises(ZeroInput):
        nth_power_class(Q.zero(), 2)


def test_nth_power_class_qw():
    # -3 is a square (and not a cube) in Q(w)
    assert nth_power_class(QW.scalar(-3), 2) is True
    assert nth_power_class(QW.scalar(-3), 3) is False
    assert nth_power_class(QW.scalar(64), 6) is True
    # -27/4 = (3/2)^2 * (-3) is a square in Q(w), but not a cube (2 is prime
    # in Z[w]), so not a sixth power
    assert nth_power_class(QW.scalar(Fraction(-27, 4)), 2) is True
    assert nth_power_class(QW.scalar(Fraction(-27, 4)), 6) is False
    assert nth_power_class(QW.omega(), 2) is True  # w = (w^2)^2
    with pytest.raises(UnsupportedFieldForTest):
        nth_power_class(QW.scalar(2), 5)


def test_nth_power_class_qw_irrational_elements():
    rng = random.Random(17)
    two, w = QW.scalar(2), QW.omega()
    for _ in range(200):
        a, c, d = rng.randint(-9, 9), rng.choice((-3, -2, -1, 1, 2, 5)), rng.randint(1, 6)
        b6 = QW.scalar((Fraction(a, d), Fraction(c, d))) ** 6  # b is irrational: c != 0
        assert all(nth_power_class(b6, n) for n in (2, 3, 6))
        # 2 is not a square in Q(w) and w is not a cube (Q(w) has no ninth root of 1)
        assert not nth_power_class(two * b6, 2) and not nth_power_class(two * b6, 6)
        assert not nth_power_class(w * b6, 3) and not nth_power_class(w * b6, 6)


def test_nth_power_class_invariant_under_nth_power_factors():
    rng = random.Random(3)
    for p in (7, 13):
        field = FieldSpec.prime(p)
        for n in (2, 3, 6):
            for _ in range(60):
                a = field.scalar(rng.randint(1, p - 1))
                b = field.scalar(rng.randint(1, p - 1))
                assert nth_power_class(a * b**n, n) == nth_power_class(a, n)


def test_cube_roots():
    assert cube_root_in_field(Q.scalar(Fraction(-27, 8))) == Q.scalar(Fraction(-3, 2))
    assert cube_root_in_field(Q.scalar(2)) is None
    r = cube_root_in_field(F7.scalar(6))
    assert r is not None and r**3 == F7.scalar(6)
    assert cube_root_in_field(F7.scalar(3)) is None
    # w = (w^2)^3 * w ... w is a cube iff some t^3 = w; N(w) = 1, t must be a unit
    r = cube_root_in_field(QW.omega())
    assert r is None  # units of Z[w] have cubes {1, -1}
    r = cube_root_in_field(QW.scalar(-8))
    assert r is not None and r**3 == QW.scalar(-8)
    rng = random.Random(4)
    for _ in range(20):
        t = QW.scalar((Fraction(rng.randint(-5, 5), rng.randint(1, 3)), Fraction(rng.randint(-5, 5))))
        c = t**3
        got = cube_root_in_field(c)
        assert got is not None and got**3 == c


def _qw_cube_root_by_scan(c):
    """Cube root of c in Q(w) by scanning every lattice point u + v*w of
    norm N(c)^(1/3) in ascending u, after clearing denominators."""
    x, y = (Fraction(v, c.val[1]) for v in c.val[0])
    if x == 0 and y == 0:
        return QW.zero()
    den = lcm(x.denominator, y.denominator)
    ax, ay = int(x * den**3), int(y * den**3)
    n3 = iroot(ax * ax - ax * ay + ay * ay, 3)
    if n3 is None:
        return None
    bound = isqrt(4 * n3 // 3) + 1
    for u in range(-bound, bound + 1):
        d = 4 * n3 - 3 * u * u
        if d < 0 or isqrt(d) ** 2 != d:
            continue
        for v2 in (u + isqrt(d), u - isqrt(d)):
            v = v2 // 2
            if v2 % 2 == 0 and (u**3 - 3 * u * v * v + v**3, 3 * u * v * (u - v)) == (ax, ay):
                return QW.scalar((Fraction(u, den), Fraction(v, den)))
    return None


def test_qw_cube_root_matches_lattice_scan():
    rng = random.Random(8)
    cases = [QW.scalar(n) for n in range(-30, 31)] + [QW.omega() * QW.scalar(n) for n in (1, 8, -27)]
    for _ in range(300):
        u, v = rng.randint(-12, 12), rng.randint(-12, 12)
        if rng.random() < 0.2:
            v = -u  # u*(1 - w) and its conjugate w*u*(1 - w) share the coordinate u
        t = QW.scalar((Fraction(u, rng.randint(1, 3)), Fraction(v, rng.randint(1, 3))))
        cases += [t**3, t**3 * QW.scalar(3), t**3 * QW.scalar((Fraction(2), Fraction(1)))]
        cases.append(QW.scalar((Fraction(rng.randint(-200, 200)), Fraction(rng.randint(-200, 200)))))
    for c in cases:
        assert cube_root_in_field(c) == _qw_cube_root_by_scan(c), c


def test_qw_cube_root_takes_the_least_a_part_then_the_larger_b_part():
    # k^3*(3 + 6w) = (-k*(1 - w))^3 has the roots -k + k*w and -k - 2k*w,
    # both of a-part -k: the larger b-part is taken, whatever k is
    for k in range(1, 41):
        tie = QW.scalar((3 * k**3, 6 * k**3))
        assert cube_root_in_field(tie) == QW.scalar((-k, k)), k
        for m in (2, 3, 7):
            assert cube_root_in_field(tie / m**3) == QW.scalar((Fraction(-k, m), Fraction(k, m))), (k, m)


def test_qw_cube_root_of_large_norm():
    c = QW.scalar(10**30) * QW.scalar((Fraction(2), Fraction(3))) ** 3
    r = cube_root_in_field(c)
    assert r is not None and r**3 == c
    assert cube_root_in_field(QW.scalar(2 * 10**30)) is None


def _qw_sqrt_by_scan(c):
    """The larger of the two square roots of c in Q(w), by scanning every
    lattice point u + v*w of norm N(c)^(1/2) after clearing denominators."""
    x, y = (Fraction(v, c.val[1]) for v in c.val[0])
    if x == 0 and y == 0:
        return QW.zero()
    den = lcm(x.denominator, y.denominator)
    ax, ay = int(x * den**2), int(y * den**2)
    n2 = iroot(ax * ax - ax * ay + ay * ay, 2)
    if n2 is None:
        return None
    bound = isqrt(4 * n2 // 3) + 1
    for u in range(-bound, bound + 1):
        d = 4 * n2 - 3 * u * u
        if d < 0 or isqrt(d) ** 2 != d:
            continue
        for v2 in (u + isqrt(d), u - isqrt(d)):
            v = v2 // 2
            if v2 % 2 == 0 and (u * u - v * v, 2 * u * v - v * v) == (ax, ay):
                root = (Fraction(u, den), Fraction(v, den))
                return QW.scalar(max(root, (-root[0], -root[1])))
    return None


def test_qw_sqrt_matches_lattice_scan():
    rng = random.Random(12)
    minus3 = QW.scalar(-3)
    cases = [QW.scalar(n) for n in range(-30, 31)] + [QW.omega(), QW.omega() * QW.scalar(-3)]
    for _ in range(200):
        a = Fraction(rng.randint(-15, 15), rng.randint(1, 4))
        t = QW.scalar((a, Fraction(rng.randint(-15, 15), rng.randint(1, 4))))
        cases += [t * t, t * t * minus3, t * t * QW.scalar((Fraction(2), Fraction(1)))]
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 300), rng.randint(1, 5))
        cases.append(QW.scalar((Fraction(rng.randint(-300, 300), rng.randint(1, 5)), b)))
    for c in cases:
        assert sqrt_in_field(c) == _qw_sqrt_by_scan(c), c
    # a square of norm about 10^30, past the reach of the scan
    t = QW.scalar((3 * 10**7 + 3, -3 * 10**7 + 19))
    r = sqrt_in_field(t * t)
    assert r.val == max(t.val, (-t).val)


@pytest.mark.parametrize(
    "x, answered",
    [
        # (3 + 2w)/6: 2 bits per reduced coordinate, 3 on the raw (a, b, den)
        (QW.scalar((Fraction(1, 2), Fraction(1, 3))), 32),
        (Q.scalar(Fraction(5, 3)), 21),  # 3 bits
        (Q.scalar(Fraction(-3, 4)), 21),
    ],
    ids=str,
)
def test_power_is_charged_per_reduced_coordinate(monkeypatch, x, answered):
    monkeypatch.setattr(fields, "POWER_BIT_CAP", 64)
    assert x**answered == power(x, answered, x.field.one())
    with pytest.raises(NumberTooLarge):
        x ** (answered + 1)


def _canonical(c) -> bool:
    (a, b), den = c.val
    return (
        all(type(x) is int for x in (a, b, den))
        and den > 0
        and gcd(a, b, den) == 1
        and (b == 0 or c.field is QW)
    )


def _layout_values(field, rng):
    """Seeded values of ``field`` from every constructor."""
    def q():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 6))

    made = [field.scalar(rng.randint(-9, 9)) for _ in range(5)]
    made += [field.scalar(q()) for _ in range(5)]
    if field is QW:
        made += [field.scalar((q(), q())) for _ in range(5)]
        made += [field.scalar((rng.randint(-9, 9), q())) for _ in range(5)]
        made += [field.omega(), Scalar.from_json(field, {"a": "4/6", "b": -2})]
    made += [Scalar.from_json(field, "-10/4"), Scalar.from_json(field, 6)]
    made += [Scalar.from_json(field, c.to_json()) for c in list(made)]
    for x, y in itertools.combinations(made[:12], 2):
        made += [x + y, x - y, x * y, -x, x**3]
        if y:
            made += [x / y, y.inverse()]
    squares = [x * x for x in made[:20]]
    made += squares + [r for r in map(sqrt_in_field, squares) if r is not None]
    made += [r for r in (cube_root_in_field(x**3) for x in made[:20]) if r is not None]
    poly = SPolynomial(field, GCA_VARS, {(i, 0, 0, 0, 0): c for i, c in enumerate(made[:30])})
    made += list(poly.terms.values()) + list((poly * poly).terms.values())
    twins = [f(c) for c in made[:40] for f in (copy.copy, lambda c: pickle.loads(pickle.dumps(c)))]
    return made + twins


@pytest.mark.parametrize("field", (Q, QW), ids=str)
def test_pair_layout_is_canonical_from_every_constructor(field):
    for c in _layout_values(field, random.Random(30)):
        assert _canonical(c), c.val
        assert raw_scalar(c) == c.val
        (a, b), den = c.val
        if b == 0:
            assert c == Fraction(a, den) and c == field.scalar(Fraction(a, den))
            assert hash(c) == hash(field.scalar(Fraction(a, den)))
            if den == 1:
                assert c == a and hash(c) == hash(field.scalar(a))
        twin = field.scalar((Fraction(a, den), Fraction(b, den))) if field is QW else None
        assert twin is None or (twin == c and hash(twin) == hash(c))


def test_power_of_zero_exponent_is_the_unit():
    ext = CubicExtension(7)
    assert power(QW.scalar((2, 3)), 0, QW.one()) == QW.one()
    assert QW.scalar((2, 3)) ** 0 == QW.one()
    assert F7.scalar(0) ** 0 == F7.one()
    xy = FreeElement.word(Q, "xy")
    assert xy**0 == FreeElement.word(Q, "")
    assert xy**3 == xy * xy * xy
    assert ext.pow((3, 1, 4), 0) == (1, 0, 0)
    assert power((3, 1, 4), 0, (1, 0, 0), ext.mul) == (1, 0, 0)
    p = EllipticPoint.affine(F7, F7.scalar(2), 0, 3)
    assert ell_mul(0, p).is_infinity()
    assert ell_mul(-4, p) == ell_mul(4, ell_neg(p))
    with pytest.raises(ValueError):
        xy ** -1


def test_gcd_oracle_on_every_cubic_tuple():
    # the reference of the closed forms below: every nonzero (c0, c1, c2, c3),
    # zero leading coefficients included
    for p in (7, 13):
        for poly in itertools.product(range(p), repeat=4):
            if not any(poly):
                continue
            roots = [x for x in range(p) if sum(c * x**i for i, c in enumerate(poly)) % p == 0]
            factor = distinct_roots_factor(poly, p)
            assert len(factor) - 1 == len(roots) and factor[-1] == 1, (p, poly)
            if len(roots) == 1:
                assert -factor[0] % p == roots[0], (p, poly)


def test_root_count_and_lone_root_on_every_nondegenerate_cubic():
    # against the roots on P^1(F_p) found one by one
    for p in (7, 13):
        for c in itertools.product(range(p), repeat=4):
            delta = form_discriminant(c) % p
            if not delta:
                continue
            roots = [(x, 1) for x in range(p) if form_value(c, x, 1) % p == 0]
            roots += [(1, 0)] * (c[0] == 0)
            assert root_count(c, delta, p) == len(roots), (p, c)
            if len(roots) == 1:
                assert lone_root(c, p) == roots[0], (p, c)


@pytest.mark.parametrize("p", [1000003, 2**61 - 1, 18446744073709551427])
def test_root_count_and_lone_root_against_the_gcd_at_large_primes(p):
    rng = random.Random(p)
    lone = 0
    for _ in range(500):
        c = tuple(rng.randrange(p) for _ in range(4))
        delta = form_discriminant(c) % p
        factor = distinct_roots_factor(c[::-1], p)  # f(t, 1), lowest coefficient first
        assert root_count(c, delta, p) == len(factor) - 1 + (c[0] == 0), (p, c)
        if len(factor) == 2:
            assert lone_root(c, p) == (-factor[0] % p, 1), (p, c)
            lone += 1
    assert lone > 150  # about half of all cubics have one root


def test_lone_root_raises_on_a_cubic_without_roots():
    # t^3 + t^2 + 1, the modulus of F_{7^3}, has no root to find, so the
    # check of f(t, 1) = 0 fails
    with pytest.raises(AssertionError):
        lone_root((1, 1, 0, 1), 7)


def test_hessian_is_minus_a_quarter_of_the_second_derivative_determinant():
    rng = random.Random(29)

    def d(f, k):  # the partial derivative of a {(i, j): c} form in u (k = 0) or v (k = 1)
        out = {}
        for e, c in f.terms.items():
            if e[k]:
                out[(e[0] - (k == 0), e[1] - (k == 1))] = c * e[k]
        return SPolynomial(f.field, f.variables, out)

    for field in (Q, QW, F13):
        for _ in range(200):
            c = [rand_scalar(field, rng) for _ in range(4)]
            f = SPolynomial(field, ("u", "v"), {(3 - i, i): c[i] for i in range(4)})
            fu, fv = d(f, 0), d(f, 1)
            det = d(fu, 0) * d(fv, 1) - d(fu, 1) * d(fu, 1)
            h = hessian(c)
            want = SPolynomial(field, ("u", "v"), {(2 - i, i): h[i] for i in range(3)})
            assert det.scale(field.scalar(Fraction(-1, 4))) == want, (field, c)
            if field.p:  # on raw residues too, as triple_root_class passes them
                assert [v % field.p for v in hessian([x.val for x in c])] == [x.val for x in h]


def test_sixth_power_token():
    assert sixth_power_class_token(Q.scalar(5)) is None
    toks = {v: sixth_power_class_token(F13.scalar(v)) for v in range(1, 13)}
    sixth = {pow(x, 6, 13) for x in range(1, 13)}
    for a in range(1, 13):
        for b in range(1, 13):
            same = (a * pow(b, -1, 13)) % 13 in sixth
            assert (toks[a] == toks[b]) == same


def test_omega_swap_symmetry():
    # both cube roots mod 7 are legal omegas and are each other's square
    f_a = FieldSpec.prime(7, 2)
    f_b = FieldSpec.prime(7, 4)
    assert f_a.omega() * f_a.omega() == Scalar(f_a, f_b.omega_residue)


def test_json_round_trip():
    for field in (Q, QW, F7):
        assert FieldSpec.from_json(field.to_json()) == field
    vals = [Q.scalar(Fraction(3, 7)), Q.scalar(-2), QW.scalar((Fraction(1, 2), -3)), F7.scalar(5)]
    for v in vals:
        assert Scalar.from_json(v.field, v.to_json()) == v


def test_str_forms():
    assert str(Q.scalar(Fraction(-2, 3))) == "-2/3"
    assert str(QW.omega()) == "w"
    assert str(QW.scalar((1, -2))) == "1-2*w"
    assert str(QW.scalar((0, 2))) == "2*w"
    assert str(F7.scalar(5)) == "5"


SHARED = (Q, QW, F7, FieldSpec.prime(7, 4), FieldSpec.prime(18446744073709551427))


def test_each_field_is_one_shared_instance():
    assert FieldSpec.prime(7) is FieldSpec.prime(7, 2) is FieldSpec.prime(7, 9) is F7
    assert FieldSpec.prime(7) is not FieldSpec.prime(7, 4)
    assert FieldSpec.rationals() is Q and FieldSpec.cyclotomic() is QW
    assert len({Q, QW, F7, FieldSpec.prime(7, 4), FieldSpec.prime(7, 2)}) == 4


@pytest.mark.parametrize("field", SHARED, ids=str)
def test_every_path_to_a_field_returns_the_shared_instance(field):
    assert FieldSpec.from_json(field.to_json()) is field
    assert pickle.loads(pickle.dumps(field)) is field
    assert copy.copy(field) is field
    assert copy.deepcopy(field) is field


def test_fields_are_immutable():
    with pytest.raises(AttributeError):
        F7.p = 13
    with pytest.raises(AttributeError):
        F7.omega_residue = 4
    with pytest.raises(AttributeError):
        del QW.kind
    assert F7.p == 7 and F7.omega_residue == 2 and QW.kind == "Qw"


def test_scalars_are_immutable():
    for value in (F7.scalar(3), QW.scalar((Fraction(1, 2), Fraction(-3, 4)))):
        val, digest = value.val, hash(value)
        for change in (
            lambda: setattr(value, "val", 1),
            lambda: setattr(value, "field", Q),
            lambda: delattr(value, "val"),
            lambda: delattr(value, "field"),
        ):
            with pytest.raises(AttributeError):
                change()
        assert value.val == val and hash(value) == digest == hash((value.field, val))
        twin = pickle.loads(pickle.dumps(value))
        assert twin == value and hash(twin) == digest and twin.field is value.field


def test_scalars_of_different_fields_differ():
    assert F7.scalar(3) != F13.scalar(3)
    assert F7.scalar(2) != FieldSpec.prime(7, 4).scalar(2)
    assert Q.one() != F7.one() and QW.zero() != Q.zero()
    assert F7.scalar(3) == 10 and Q.scalar(Fraction(1, 2)) == Fraction(1, 2)


def _values(field, rng):
    """One value of each kind built on scalars of ``field``."""
    g, s = rand_scalar(field, rng), rand_scalar(field, rng)
    values = [
        rand_scalar(field, rng, nonzero=True),
        rand_form(field, rng),
        rand_gl2(field, rng),
        SPolynomial.parse("2*X3*AL^2 - GA + 3", field, GCA_VARS),
        rand_free_element(field, rng),
        EllipticPoint.affine(field, s * s - g**3, g, s),
    ]
    free = rand_free_element(field, rng)
    values.append(GenericCliffordAlgebra(field).reduce(free))
    values.append(specialized_algebra(rand_form(field, rng)).reduce_free(free))
    return values


def _field_of(value):
    return value.form.field if hasattr(value, "form") else value.field


@pytest.mark.parametrize("field", (Q, QW, F7), ids=str)
def test_values_pickle_and_copy_onto_the_shared_field(field):
    for value in _values(field, random.Random(18)):
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert twin == value, type(value).__name__
            assert _field_of(twin) is _field_of(value) is field


def test_import_loads_no_dataclasses():
    code = (
        "import sys; before = set(sys.modules); "
        "from cubiclifford import cli, cliffordf, curves, fields, forms, freealg, gca, spoly; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"
