"""Plane cubics, Jacobians, the CM map, torsion, isogeny, point searches."""

import itertools
import random
from fractions import Fraction

import pytest

import oracles
from conftest import F7, F13, Q, QW, rand_form, rand_gl2

from cubiclifford.curves import (
    CubicExtension,
    EllipticPoint,
    PlaneCubicPoint,
    _height_shell,
    _jacobian_multiple,
    _signed_range,
    cm_theta,
    construct_cover_point,
    cubic_extension,
    curve_order,
    curve_points,
    ell_add,
    ell_mul,
    ell_neg,
    j_invariant,
    jacobian_constant,
    lambda_isogeny,
    lambda_kernel,
    least_cube_root_mod,
    point_search,
    torsion_points,
)
from cubiclifford.errors import (
    CurveMismatch,
    DegenerateForm,
    PreconditionFailed,
    UnsupportedField,
)
from cubiclifford.fields import FieldSpec, is_prime, nth_power_class
from cubiclifford.forms import BinaryCubicForm, act_gl2


def test_jacobian_examples():
    assert jacobian_constant(BinaryCubicForm(Q, (1, 0, 0, 1))) == Q.scalar(Fraction(-27, 4))
    assert jacobian_constant(BinaryCubicForm(F7, (1, 0, 0, 1))) == F7.scalar(2)
    with pytest.raises(DegenerateForm):
        jacobian_constant(BinaryCubicForm(Q, (1, 0, 0, 0)))


def test_group_law_examples():
    a2 = F7.scalar(2)
    p = EllipticPoint.affine(F7, a2, 0, 3)
    inf = EllipticPoint.infinity(F7, a2)
    assert ell_add(p, inf) == p
    assert ell_add(p, ell_neg(p)) == inf
    assert ell_add(p, p) == EllipticPoint.affine(F7, a2, 0, 4)
    with pytest.raises(CurveMismatch):
        ell_add(p, EllipticPoint.infinity(F7, F7.scalar(3)))
    with pytest.raises(CurveMismatch):
        EllipticPoint.affine(F7, a2, 1, 1)  # 1 != 1 + 2


def test_group_axioms_random_triples():
    rng = random.Random(40)
    for field in (F7, F13):
        a = field.scalar(2)
        pts = curve_points(field, a)
        inf = EllipticPoint.infinity(field, a)
        for _ in range(200):
            p, q, r = (rng.choice(pts) for _ in range(3))
            assert ell_add(ell_add(p, q), r) == ell_add(p, ell_add(q, r))
            assert ell_add(p, q) == ell_add(q, p)
        for p in pts:
            assert ell_add(p, inf) == p
            assert ell_add(p, ell_neg(p)) == inf


def test_j_invariant_zero():
    for field in (Q, F7, F13):
        for v in (2, -3, 5):
            assert j_invariant(field.scalar(v)) == field.zero()
    with pytest.raises(DegenerateForm):
        j_invariant(Q.zero())


def test_theta_examples_and_homomorphism():
    a2 = F7.scalar(2)
    inf = EllipticPoint.infinity(F7, a2)
    assert cm_theta(inf) == inf
    fixed = EllipticPoint.affine(F7, a2, 0, 3)
    assert cm_theta(fixed) == fixed
    moved = EllipticPoint.affine(F7, a2, 3, 1)  # 27 + 2 = 29 = 1 mod 7
    assert cm_theta(moved) != moved
    with pytest.raises(UnsupportedField):
        cm_theta(EllipticPoint.infinity(Q, Q.scalar(2)))
    rng = random.Random(41)
    for field in (F7, F13):
        a = field.scalar(2)
        pts = curve_points(field, a)
        for _ in range(100):
            p, q = rng.choice(pts), rng.choice(pts)
            assert cm_theta(ell_add(p, q)) == ell_add(cm_theta(p), cm_theta(q))
        for p in pts:
            assert cm_theta(cm_theta(cm_theta(p))) == p


def test_torsion_examples():
    pts = torsion_points(F7, F7.scalar(2))
    assert [p.to_json() for p in pts] == [
        "infinity",
        {"gamma": 0, "s": 3},
        {"gamma": 0, "s": 4},
    ]
    assert torsion_points(Q, Q.scalar(2)) == [EllipticPoint.infinity(Q, Q.scalar(2))]
    for p in pts:
        assert ell_mul(3, p).is_infinity()
        assert ell_mul(3 * 10**18, p).is_infinity()
        assert ell_add(ell_add(p, p), p).is_infinity()


def test_lambda_kernel_equals_torsion_exhaustively():
    for field in (F7, F13):
        a = field.scalar(2)
        pts = curve_points(field, a)
        kernel = [p for p in pts if lambda_isogeny(p).is_infinity()]
        torsion = {repr(p) for p in torsion_points(field, a)}
        assert {repr(p) for p in kernel} == torsion
        assert len(kernel) in (1, 3)
        assert lambda_kernel(field, a) == kernel
    # F7: sqrt(2) exists -> 3; F13: 2 is a nonsquare -> 1
    assert len(torsion_points(F7, F7.scalar(2))) == 3
    assert len(torsion_points(F13, F13.scalar(2))) == 1


def test_lambda_fixed_point_example():
    a2 = F7.scalar(2)
    p = EllipticPoint.affine(F7, a2, 0, 3)
    assert lambda_isogeny(p).is_infinity()
    assert lambda_isogeny(EllipticPoint.infinity(F7, a2)).is_infinity()


def test_point_search_examples():
    pt = point_search(BinaryCubicForm(Q, (1, 0, 0, 1)))
    assert [c.to_json() for c in pt.coords] == [1, 0, 1]
    pt = point_search(BinaryCubicForm(F7, (1, 0, 0, 1)))
    assert pt is not None and pt.verify()
    # the spec's (3,0,0,4) example has a point at height 1: 3(-1)^3+4 = 1
    pt = point_search(BinaryCubicForm(Q, (3, 0, 0, 4)), budget=20)
    assert [c.to_json() for c in pt.coords] == [-1, 1, 1]
    # the Selmer curve (w = 5z form) really has no rational points
    assert point_search(BinaryCubicForm(Q, (-75, 0, 0, -100)), budget=6) is None


def test_point_search_qw():
    pt = point_search(BinaryCubicForm(QW, (1, 0, 0, 2)), budget=2)
    assert pt is not None and pt.verify()


# The first point of each search, as returned before the Q and Q(w) height
# loops were merged: the search order is (v, u) over Q and (b1, a1, b2, a2)
# over Q(w), u = a1 + b1*w and v = a2 + b2*w, the last coordinate fastest.
FIRST_POINTS_Q = [
    ((5, -2, -8, -4), [-3, 5, -5]), ((3, 8, -6, 9), [1, 3, 6]),
    ((-5, -9, -9, -3), [-1, 2, -1]), ((-5, 9, -5, 4), [3, 2, -1]),
    ((-7, 6, -1, 7), [2, 1, -3]), ((2, 8, -1, 6), [-3, 1, 3]),
    ((7, -5, 7, -4), [1, 5, -7]), ((-7, 4, -4, 9), [5, 3, -8]),
    ((9, 6, -3, -5), [-8, 3, -15]), ((-7, 2, -9, 3), [1, 3, -1]),
    ((-2, 0, -8, -5), [-2, 1, 3]), ((5, 2, 2, 9), [-2, 1, -3]),
]
FIRST_POINTS_QW = [
    ((3, 3, -5, 2), [1, {"a": 1, "b": -1}, 0]),
    ((4, 6, 7, -2), [1, {"a": 2, "b": -2}, {"a": -4, "b": -4}]),
    ((3, -8, 4, -5), [1, {"a": 2, "b": 2}, {"a": -3, "b": -3}]),
    ((-7, -6, 1, -5), [{"a": 1, "b": 1}, {"a": -1, "b": 1}, {"a": -3, "b": -2}]),
    ((2, 7, -1, 6), [1, {"a": 1, "b": 1}, {"a": -1, "b": 1}]),
    ((-4, -1, 5, 6), [1, {"a": 0, "b": 1}, {"a": -2, "b": -1}]),
    ((-3, -4, -4, 7), [1, {"a": 0, "b": 1}, {"a": -2, "b": -2}]),
    ((-6, 4, 2, -5), [1, {"a": 1, "b": 1}, {"a": -1, "b": 1}]),
]


def test_point_search_keeps_its_first_point():
    for field, budget, cases in ((Q, 20, FIRST_POINTS_Q), (QW, 2, FIRST_POINTS_QW)):
        for coeffs, coords in cases:
            pt = point_search(BinaryCubicForm(field, coeffs), budget=budget)
            assert pt.to_json() == dict(zip("uvw", coords)), coeffs


def test_height_shell_is_the_filtered_product():
    for n in (1, 2, 4):
        for h in (1, 2, 3):
            box = itertools.product(_signed_range(h), repeat=n)
            assert list(_height_shell(h, n)) == [c for c in box if max(map(abs, c)) == h]


def test_height_shell_equals_the_recursive_oracle():
    for n in (1, 2, 3, 4):
        for h in range(1, 13):
            assert list(_height_shell(h, n)) == list(oracles.height_shell(h, n)), (h, n)


def test_point_search_over_q_matches_the_scalar_loop():
    # half integer, half rational coefficients; a point of height h found at
    # budget B is the answer at every budget from h to B, and None below h
    rng = random.Random(45)
    for i in range(200):
        if i % 2:
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)]
        else:
            coeffs = [rng.randint(-9, 9) for _ in range(4)]
        f = BinaryCubicForm(Q, coeffs)
        budget = i % 21 if i < 42 else i % 6
        want = oracles.scalar_point_search(f, budget)
        height = budget + 1 if want is None else max(abs(c.val[0][0]) for c in want[:2])
        for b in range(budget + 1):
            got = point_search(f, b)
            assert (None if got is None else got.coords) == (want if height <= b else None)


PRIMES_1_MOD_3 = [p for p in range(7, 200) if p % 3 == 1 and is_prime(p)]
# the primes of the benchmark's lambda-kernel requests
LAMBDA_PRIMES = [p for p in range(960, 1041) if p % 3 == 1 and is_prime(p)]


def test_curve_order_matches_the_euler_count():
    rng = random.Random(47)
    cases = [(p, range(1, p)) for p in PRIMES_1_MOD_3]
    cases += [(p, rng.sample(range(1, p), 20)) for p in LAMBDA_PRIMES]
    for p, constants in cases:
        field = FieldSpec.prime(p)
        for a in constants:
            assert curve_order(field, field.scalar(a)) == oracles.euler_curve_order(p, a), (p, a)
    with pytest.raises(UnsupportedField):
        curve_order(Q, Q.scalar(2))
    with pytest.raises(DegenerateForm):
        curve_order(F7, F7.zero())


def test_curve_order_matches_the_brute_force_count():
    for p in (7, 13, 19):
        field = FieldSpec.prime(p)
        for a in range(1, p):
            assert curve_order(field, field.scalar(a)) == oracles.brute_force_curve_order(p, a)


def test_curve_order_raises_when_the_order_does_not_kill_its_point(monkeypatch):
    # the negated prime gives p + 1 - Tr instead of p + 1 + Tr: 28 at p = 19,
    # A = 1, where #E = 12 and [28](2, 16) is not infinity
    from cubiclifford import curves

    primary = curves._primary_prime
    monkeypatch.setattr(curves, "_primary_prime", lambda p: tuple(-x for x in primary(p)))
    field = FieldSpec.prime(19)
    with pytest.raises(AssertionError, match=r"\[28\]"):
        curve_order(field, field.scalar(1))


def _affine(jacobian, p):
    x, y, z = jacobian
    if z % p == 0:
        return None
    zi = pow(z, -1, p)
    return x * zi * zi % p, y * zi * zi * zi % p


def test_jacobian_multiple_kills_a_point_exactly_at_the_curve_order():
    # #E kills every point; #E +- 1 gives +-P, never infinity; and every
    # multiple agrees with the affine group law of ell_mul
    rng = random.Random(51)
    for _ in range(200):
        p = rng.choice(PRIMES_1_MOD_3 + LAMBDA_PRIMES)
        field = FieldSpec.prime(p)
        a = rng.randrange(1, p)
        while True:
            g = rng.randrange(p)
            squares = [x for x in range(p) if (x * x - g**3 - a) % p == 0]
            if squares:
                s = rng.choice(squares)
                break
        order = oracles.euler_curve_order(p, a)
        assert _jacobian_multiple(order, g, s, p)[2] % p == 0, (p, a, g, s)
        assert _jacobian_multiple(order - 1, g, s, p)[2] % p != 0
        assert _jacobian_multiple(order + 1, g, s, p)[2] % p != 0
        point = EllipticPoint(field, field.scalar(a), (field.scalar(g), field.scalar(s)))
        for n in (1, 2, 3, order - 1, order + 1, rng.randrange(1, 3 * order)):
            multiple = ell_mul(n, point)
            want = None if multiple.is_infinity() else tuple(c.val for c in multiple.xy)
            assert _affine(_jacobian_multiple(n, g, s, p), p) == want, (p, a, g, s, n)


def test_cubic_extension_matches_the_scans():
    # the modulus, every cube root of a non-cube and the cover points it gives
    for p in (7, 13, 19, 31):
        field = FieldSpec.prime(p)
        ext = CubicExtension(p)
        assert ext.modulus == oracles.least_irreducible_cubic(p)
        roots = oracles.least_cube_roots_fp3(p, ext.modulus)
        for c in range(1, p):
            if least_cube_root_mod(c, p) is not None:
                continue
            r = ext.cube_root(c)
            assert r == roots[c], (p, c)
            r2 = oracles.fp3_mul(r, r, ext.modulus, p)
            pt = construct_cover_point(BinaryCubicForm(field, (c, 0, 0, 1)), 1)
            assert pt.to_json() == {"u": list(r), "v": [0, 0, 0], "w": list(r2),
                                    "modulus": list(ext.modulus)}
            pt = construct_cover_point(BinaryCubicForm(field, (1, 0, 0, c)), 2)
            assert pt.coords == ((0, 0, 0), r, r2)


def test_cube_root_falls_back_to_t_squared():
    # t^3 + 4t^2 + 3t + 2 = (t - 1)^3 - 4, so t = 1 + r^2 with r^3 = 2 and the
    # Frobenius projection sends t to 0; the root comes from t^2
    class WithThisModulus(CubicExtension):
        def _least_irreducible(self):
            return (2, 3, 4)

    ext = WithThisModulus(7)
    assert ext.cube_root(2) == oracles.least_cube_roots_fp3(7, (2, 3, 4))[2] == (1, 5, 1)


@pytest.mark.parametrize("p", [2**61 - 1, 18446744073709551427])
def test_cube_roots_of_non_cubes_at_64_bit_primes(p):
    ext = CubicExtension(p)
    w = FieldSpec.prime(p).omega_residue
    rng = random.Random(p)
    non_cubes = []
    while len(non_cubes) < 10:
        c = rng.randrange(2, p)
        if pow(c, (p - 1) // 3, p) != 1:
            non_cubes.append(c)
    for c in non_cubes:
        r = ext.cube_root(c)
        assert oracles.fp3_mul(oracles.fp3_mul(r, r, ext.modulus, p), r, ext.modulus, p) == (c, 0, 0)
        others = [tuple(x * w**k % p for x in r) for k in (1, 2)]
        assert r < min(others), (p, c)


def test_cubic_extension_mul_matches_the_oracle():
    rng = random.Random(48)
    for p in (7, 13, 18446744073709551427):
        ext = CubicExtension(p)
        for _ in range(200):
            u, v = (tuple(rng.randrange(p) for _ in range(3)) for _ in range(2))
            assert ext.mul(u, v) == oracles.fp3_mul(u, v, ext.modulus, p), (p, u, v)


def test_point_search_always_succeeds_over_f7():
    rng = random.Random(42)
    for _ in range(25):
        f = rand_form(F7, rng)
        pt = point_search(f)
        assert pt is not None and pt.verify()


def test_cubic_extension_modulus():
    ext = CubicExtension(7)
    assert ext.modulus == (1, 0, 1)  # t^3 + t^2 + 1, least by (a0, a1, a2)
    # no roots in F_7
    a0, a1, a2 = ext.modulus
    assert all((x**3 + a2 * x * x + a1 * x + a0) % 7 for x in range(7))
    # field sanity: multiplicative order of a generator divides 7^3 - 1
    t = (0, 1, 0)
    assert ext.pow(t, 7**3 - 1) == (1, 0, 0)


def test_cover_point_examples():
    pt = construct_cover_point(BinaryCubicForm(F7, (1, 0, 0, 3)), 1)
    assert pt.extension is None
    assert [c.to_json() for c in pt.coords] == [1, 0, 1]
    pt = construct_cover_point(BinaryCubicForm(F7, (3, 0, 0, 1)), 1)
    assert pt.extension is not None
    assert pt.verify()
    assert pt.extension.pow(pt.coords[0], 3) == pt.extension.embed(3)
    pt = construct_cover_point(BinaryCubicForm(F7, (1, 1, 1, 1)), 3)
    assert pt.extension is not None  # t^3 = 4 and 4 is not a cube mod 7
    assert pt.verify()
    with pytest.raises(PreconditionFailed):
        construct_cover_point(BinaryCubicForm(F7, (0, 1, 1, 0)), 1)
    for p in (2, 3, 5, 7, 13, 31, 37):
        for c in range(p):
            roots = [x for x in range(p) if pow(x, 3, p) == c]
            assert least_cube_root_mod(c, p) == (roots[0] if roots else None)


def test_cover_points_share_one_extension_per_prime():
    p = 18446744073709551427
    f = BinaryCubicForm(FieldSpec.prime(p), (3, 0, 0, 1))  # 3 is not a cube mod p
    first = construct_cover_point(f, 1)
    second = construct_cover_point(f, 1)
    assert first.extension is second.extension is cubic_extension(p)
    assert first.to_json() == second.to_json()
    fresh = CubicExtension(p)  # still public, and builds its own
    assert fresh is not cubic_extension(p) and fresh.modulus == cubic_extension(p).modulus
    assert fresh.cube_root(3) == first.coords[0]
    assert cubic_extension.cache_info().maxsize == 16


def test_cover_points_50_random_forms_all_four():
    rng = random.Random(43)
    for _ in range(50):
        f = rand_form(F7, rng)
        for which in (1, 2, 3, 4):
            try:
                pt = construct_cover_point(f, which)
            except PreconditionFailed:
                continue
            assert pt.verify()


def test_jacobians_isomorphic_within_orbit():
    rng = random.Random(44)
    for field in (F7, F13):
        for _ in range(50):
            f = rand_form(field, rng)
            g = rand_gl2(field, rng)
            ratio = jacobian_constant(act_gl2(g, f)) / jacobian_constant(f)
            assert nth_power_class(ratio, 6)


def test_plane_point_validation():
    f = BinaryCubicForm(Q, (1, 0, 0, 1))
    with pytest.raises(CurveMismatch):
        PlaneCubicPoint(f, (Q.one(), Q.one(), Q.one()))  # 1 != f(1,1) = 2


def test_point_search_on_a_non_cube_times_a_cube_over_fp():
    # lambda*L^3 with lambda a non-cube has one point, the zero of L; the scan
    # order gives the same point as a full scan at small p and answers at once
    # at large p, where a full scan would take ~p steps
    for p in (7, 13, 19):
        field = FieldSpec.prime(p)
        lam = next(c for c in range(2, p) if pow(c, (p - 1) // 3, p) != 1)
        for l0, l1 in itertools.product(range(p), repeat=2):
            if not (l0 or l1):
                continue
            coeffs = (l0**3, 3 * l0 * l0 * l1, 3 * l0 * l1 * l1, l1**3)
            f = BinaryCubicForm(field, [lam * c for c in coeffs])
            scan = next(
                (u, v) for u, v in itertools.chain(((1, v) for v in range(p)), ((0, 1),))
                if least_cube_root_mod(f.evaluate(field.scalar(u), field.scalar(v)).val, p) is not None
            )
            pt = point_search(f)
            assert tuple(c.val for c in pt.coords) == (*scan, 0), (p, l0, l1)
    for p in (1000003, 18446744073709551427):
        field = FieldSpec.prime(p)
        assert point_search(BinaryCubicForm(field, (2, 0, 0, 0))).to_json() == {"u": 0, "v": 1, "w": 0}
        # 2*(u + 5v)^3: the zero of u + 5v is (1 : -1/5)
        pt = point_search(BinaryCubicForm(field, (2, 30, 150, 250)))
        assert pt.to_json() == {"u": 1, "v": -pow(5, -1, p) % p, "w": 0}
