"""Acceptance suite: the thirteen exactness criteria, one line each.

Every check is exact (tolerance zero). Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import random

from conftest import F7, F7B, F13, Q, QW, rand_form, rand_free_element, rand_gl2, rand_scalar
from oracles import act_raw, hessian_coefficients, is_central

from cubiclifford import cliffordf, curves, forms
from cubiclifford.fields import (
    FieldSpec,
    is_prime,
    nth_power_class,
    sixth_power_class_token,
    sqrt_in_field,
)
from cubiclifford.forms import BinaryCubicForm
from cubiclifford.freealg import (
    FreeElement,
    delta_element,
    epsilon_element,
    gamma_element,
    s_element,
)
from cubiclifford.gca import GenericCliffordAlgebra
from cubiclifford.spoly import GAMMA_VARS, GCA_VARS, SPolynomial

ALGEBRAS = {}


def algebra(field):
    if field not in ALGEBRAS:
        ALGEBRAS[field] = GenericCliffordAlgebra(field)
    return ALGEBRAS[field]


def report(num, name, ok):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_defining_relations():
    rels = (
        "x^3*y - y*x^3",
        "x*y^3 - y^3*x",
        "x^2*y^2 + x*y*x*y - y^2*x^2 - y*x*y*x",
    )
    ok = all(
        algebra(field).reduce_text(rel).is_zero()
        for field in (QW, F7, F7B)
        for rel in rels
    )
    report(1, "defining relations reduce to zero (Qw, F7 both omegas)", ok)


def test_criterion_02_b17_column():
    alg = algebra(QW)
    col = alg.mul(alg.basis_element(17), alg.basis_element(1))
    expected = {
        7: SPolynomial.parse("GA", QW, GCA_VARS),
        11: SPolynomial.parse("AL", QW, GCA_VARS),
        2: SPolynomial.parse("-X3*BE", QW, GCA_VARS),
        14: SPolynomial.parse("X3", QW, GCA_VARS),
    }
    ok = all(
        col.coords[i] == expected.get(i, SPolynomial.zero(QW, GCA_VARS)) for i in range(18)
    )
    report(2, "b17*x column equals GA e7 + AL e11 - X3 BE e2 + X3 e14", ok)


def test_criterion_03_center_identities():
    ok = True
    for field in (QW, F7, F13):
        rep = algebra(field).verify_center_identities()
        ok = ok and len(rep) == 4 and all(v["pass"] for v in rep.values())
    report(3, "center identities 4/4 groups over Qw, F7, F13", ok)


def test_criterion_04_centrality():
    alg = algebra(QW)
    central = (
        gamma_element(QW),
        delta_element(QW) ** 3,
        epsilon_element(QW) ** 3,
        s_element(QW),
    )
    noncentral = (
        FreeElement.generator(QW, "x"),
        FreeElement.generator(QW, "y"),
        FreeElement.word(QW, "xy"),
        delta_element(QW),
        epsilon_element(QW),
    )
    ok = all(is_central(alg, alg.reduce(e)) for e in central) and not any(
        is_central(alg, alg.reduce(e)) for e in noncentral
    )
    report(4, "centrality of gamma, delta^3, eps^3, s (and only those)", ok)


def test_criterion_05_discriminant_covariance():
    rng = random.Random(101)
    ok = True
    for field in (F7, F13, QW):
        for _ in range(500):
            g = rand_gl2(field, rng)
            f = rand_form(field, rng, nondegenerate=False)
            ok = ok and forms.act_gl2(g, f).discriminant() == g.det**6 * f.discriminant()
    report(5, "Delta(g.f) = det(g)^6 Delta(f), 500 random pairs x 3 fields", ok)


def test_criterion_06_stabilizers_diagonal_f7():
    tuples = [
        (a, b, c, d)
        for a in range(7)
        for b in range(7)
        for c in range(7)
        for d in range(7)
        if (a * d - b * c) % 7
    ]
    ok = True
    for p in range(1, 7):
        for r in range(1, 7):
            f = (p, 0, 0, r)
            brute = {g for g in tuples if act_raw(g, f, 7) == f}
            st = forms.stabilizer(BinaryCubicForm(F7, f))
            got = {tuple(e.val for e in g.entries()) for g in st.elements}
            cube = len({x for x in range(1, 7) if pow(x, 3, 7) == (r * pow(p, -1, 7)) % 7}) > 0
            ok = ok and got == brute and st.order == (18 if cube else 9)
    report(6, "diagonal stabilizers: formula = enumeration, orders 9/18", ok)


def test_criterion_07_orbit_stabilizer_f7():
    orbits = forms.orbit_enumerate(F7)
    ok = (
        len(orbits) == 9  # frozen after the first brute-force run
        and sum(o.size for o in orbits) == 2016
        and all(o.size * o.stabilizer_order == 2016 for o in orbits)
    )
    report(7, "orbit x stabilizer = 2016 on all 9 frozen F7 orbits", ok)


def test_criterion_08_diagonalization_f13():
    rng = random.Random(102)
    ok = True
    done = 0
    while done < 100:
        f = rand_form(F13, rng)
        if sqrt_in_field(F13.scalar(-108) * f.discriminant()) is None:
            continue
        done += 1
        g, d = forms.diagonalize(f)
        ok = ok and d.is_diagonal() and d.is_nondegenerate() and forms.act_gl2(g, f) == d
        iso = cliffordf.check_clifford_iso(g, f)
        ok = ok and iso.passed and iso.gamma_factor == g.det**2
        r, s, t = hessian_coefficients(f)
        if not r.is_zero():
            big_d = s * s - r * t
            ok = ok and g.det**2 == F13.scalar(4) * r**2 * big_d
    report(8, "100 diagonalizations over F13 with gamma factor det^2 = 4r^2D", ok)


def test_criterion_09_curve_suite():
    rng = random.Random(103)
    ok = True
    for field in (F7, F13):
        a = field.scalar(2)
        pts = curves.curve_points(field, a)
        inf = curves.EllipticPoint.infinity(field, a)
        for _ in range(200):
            p, q, r = (rng.choice(pts) for _ in range(3))
            ok = ok and curves.ell_add(curves.ell_add(p, q), r) == curves.ell_add(
                p, curves.ell_add(q, r)
            )
        for p in pts:
            ok = ok and curves.ell_add(p, curves.ell_neg(p)) == inf
            ok = ok and curves.cm_theta(curves.cm_theta(curves.cm_theta(p))) == p
        for _ in range(100):
            p, q = rng.choice(pts), rng.choice(pts)
            ok = ok and curves.cm_theta(curves.ell_add(p, q)) == curves.ell_add(
                curves.cm_theta(p), curves.cm_theta(q)
            )
        kernel = {repr(p) for p in pts if curves.lambda_isogeny(p).is_infinity()}
        torsion = {repr(p) for p in curves.torsion_points(field, a)}
        ok = ok and kernel == torsion and len(kernel) in (1, 3)
        ok = ok and curves.j_invariant(a) == field.zero()
    ok = ok and curves.j_invariant(Q.scalar(-27) / Q.scalar(4)) == Q.zero()
    report(9, "group law, j = 0, ker(lambda) = T exhaustively, theta order 3", ok)


def test_criterion_10_cover_points():
    rng = random.Random(104)
    ok = True
    constructed = 0
    for _ in range(50):
        f = rand_form(F7, rng)
        for which in (1, 2, 3, 4):
            try:
                pt = curves.construct_cover_point(f, which)
            except curves.PreconditionFailed:
                continue
            constructed += 1
            ok = ok and pt.verify()
    ok = ok and constructed >= 150
    report(10, "all four cover-point constructions verify on 50 random forms", ok)


def test_criterion_11_specialization_and_linearization():
    rng = random.Random(105)
    ok = True
    for field in (F7, F13, QW):
        alg = algebra(field)
        count = 200 if field.kind == "Fp" else 40
        for _ in range(count):
            f = rand_form(field, rng)
            saf = cliffordf.specialized_algebra(f)
            p, q = rand_scalar(field, rng), rand_scalar(field, rng)
            v = FreeElement.generator(field, "x").scale(p) + FreeElement.generator(
                field, "y"
            ).scale(q)
            got = saf.reduce_free(v**3)
            ok = ok and got == saf.scalar_element(
                SPolynomial.const(field, f.evaluate(p, q), GAMMA_VARS)
            )
        for _ in range(10):
            f = rand_form(field, rng)
            u = alg.reduce(rand_free_element(field, rng, max_len=4, max_terms=2))
            v = alg.reduce(rand_free_element(field, rng, max_len=4, max_terms=2))
            ok = ok and cliffordf.specialize(alg.mul(u, v), f) == cliffordf.mul_af(
                cliffordf.specialize(u, f), cliffordf.specialize(v, f)
            )
    report(11, "specialization is an algebra map and v^3 = f(v) in A_f", ok)


def test_criterion_12_orbit_invariance():
    rng = random.Random(106)
    ok = True
    for _ in range(20):
        f = rand_form(F7, rng)
        token = sixth_power_class_token(f.discriminant())
        a_f = curves.jacobian_constant(f)
        for _ in range(50):
            g = rand_gl2(F7, rng)
            h = forms.act_gl2(g, f)
            ok = ok and sixth_power_class_token(h.discriminant()) == token
            ok = ok and nth_power_class(curves.jacobian_constant(h) / a_f, 6)
    report(12, "Delta class-6 and Jacobian iso class constant on orbits", ok)


def test_criterion_13_orbit_count_by_twist():
    """A consistency check with the abstract's count, not the paper's
    theorem: PAPER.md holds only the abstract, which pairs GL2-orbits of
    nondegenerate forms with j = 0 curves plus CM-invariant 3-torsion
    classes. Over F_p the class of Delta mod F_p*^6 fixes E_f:
    s^2 = gamma^3 + Delta/4, one of six twists. The three twists whose
    theta-fixed 3-torsion (``torsion_points``) is rational, Delta a square,
    carry two orbits each; the other three carry one each: 3*2 + 3*1 = 9.
    """
    primes = [p for p in range(7, 200, 6) if is_prime(p)] + [1009, 10009]
    ok = True
    for p in primes:
        field = FieldSpec.prime(p)
        twists = {}
        for orbit in forms.orbit_enumerate(field):
            twists.setdefault(orbit.delta_class6, []).append(orbit)
        for orbits in twists.values():
            a = orbits[0].delta / field.scalar(4)
            rational_torsion = len(curves.torsion_points(field, a)) == 3
            ok = ok and len(orbits) == (2 if rational_torsion else 1)
        ok = ok and sorted(map(len, twists.values())) == [1, 1, 1, 2, 2, 2]
    report(13, f"9 orbits = 3 twists x 2 + 3 twists x 1 at {len(primes)} primes", ok)
