"""Brute-force references for the GL2 action and the curves over a small
F_p, and for the point search over Q.

The package finds orbits, stabilizers and orbit equivalences from a
complete invariant and one normal form per orbit type. These routines find
them without either, by breadth-first search over generators and by
exhaustive scans, and the tests require equal answers for p <= 31. Curve
orders, the F_{p^3} modulus and its cube roots come from closed forms in
the package and from counts and scans here; the point search over Q runs
on integers in the package and on field scalars here.

The specialized algebra's freeness, symbol and GL2-isomorphism checks fold
through the factors of their free elements in the package; here they
expand the free elements into words and reduce those, and the tests
require equal reports.
"""

import functools
import itertools
from math import gcd

from cubiclifford.cliffordf import IsoReport, SymbolReport, specialized_algebra
from cubiclifford.fields import cube_root_in_field
from cubiclifford.forms import act_gl2
from cubiclifford.freealg import (
    FreeElement,
    alpha_element,
    beta_element,
    epsilon_commutators,
    epsilon_element,
    gamma_element,
    linear_substitute,
)
from cubiclifford.gca import BASIS_WORDS


def act_raw(g, f, p):
    """The coefficients of f(a*u + b*v, c*u + d*v) mod p, g = (a, b, c, d)."""
    a, b, c, d = g
    c0, c1, c2, c3 = f
    return (
        (c0 * a * a * a + c1 * a * a * c + c2 * a * c * c + c3 * c * c * c) % p,
        (
            3 * c0 * a * a * b
            + c1 * (a * a * d + 2 * a * b * c)
            + c2 * (2 * a * c * d + b * c * c)
            + 3 * c3 * c * c * d
        ) % p,
        (
            3 * c0 * a * b * b
            + c1 * (2 * a * b * d + b * b * c)
            + c2 * (a * d * d + 2 * b * c * d)
            + 3 * c3 * c * d * d
        ) % p,
        (c0 * b * b * b + c1 * b * b * d + c2 * b * d * d + c3 * d * d * d) % p,
    )


def delta_raw(f, p):
    c0, c1, c2, c3 = f
    return (
        18 * c0 * c1 * c2 * c3 - 4 * c1**3 * c3 + c1**2 * c2**2 - 4 * c0 * c2**3
        - 27 * c0**2 * c3**2
    ) % p


def primitive_root(p):
    """The least generator of F_p^*."""
    factors = [q for q in range(2, p) if (p - 1) % q == 0 and all(q % r for r in range(2, q))]
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def gl2_generators(p):
    """(1, 1; 0, 1), (1, 0; 1, 1) and diag(g, 1), g a primitive root, generate GL2(F_p)."""
    return [(1, 1, 0, 1), (1, 0, 1, 1), (primitive_root(p), 0, 0, 1)]


def encode(f, p):
    """The lex index c0*p^3 + c1*p^2 + c2*p + c3 of a raw form."""
    c0, c1, c2, c3 = f
    return ((c0 * p + c1) * p + c2) * p + c3


def decode(n, p):
    return (n // p**3, n // p**2 % p, n // p % p, n % p)


def generator_images(f, p, g):
    """act_raw of the three ``gl2_generators`` on f, written out: f(u + v, v),
    f(u, u + v) and f(g*u, v)."""
    c0, c1, c2, c3 = f
    return (
        (c0, (c1 + 3 * c0) % p, (c2 + 2 * c1 + 3 * c0) % p, (c0 + c1 + c2 + c3) % p),
        ((c0 + c1 + c2 + c3) % p, (c1 + 2 * c2 + 3 * c3) % p, (c2 + 3 * c3) % p, c3),
        (c0 * g**3 % p, c1 * g * g % p, c2 * g % p, c3),
    )


@functools.lru_cache(maxsize=None)
def orbit_partition(p):
    """(ids, orbits): ids[encode(f)] is the index of the orbit of the nonzero
    form f, and orbits lists (least member, size) by least member. Each orbit
    is found by breadth-first search over ``gl2_generators`` from the least
    form not yet placed."""
    g = primitive_root(p)
    ids = [-1] * p**4
    orbits = []
    for start in range(1, p**4):
        if ids[start] >= 0:
            continue
        k = len(orbits)
        ids[start] = k
        frontier, size = [start], 1
        while frontier:
            nxt = []
            for n in frontier:
                for image in generator_images(decode(n, p), p, g):
                    m = encode(image, p)
                    if ids[m] < 0:
                        ids[m] = k
                        nxt.append(m)
            size += len(nxt)
            frontier = nxt
        orbits.append((decode(start, p), size))
    return ids, orbits


def orbit_of(f, p):
    """(least member, size) of the orbit of the nonzero raw form f."""
    ids, orbits = orbit_partition(p)
    return orbits[ids[encode(f, p)]]


def orbit_table(p, nondegenerate_only):
    """[(representative, size)] as ``orbit_enumerate`` lists them."""
    return [
        (rep, size)
        for rep, size in orbit_partition(p)[1]
        if not nondegenerate_only or delta_raw(rep, p)
    ]


def scan_stabilizer(f, p):
    """Every (a, b, c, d) over F_p with act((a, b, c, d), f) = f, in lex order.

    Such a matrix has f(a, c) = c0 and f(b, d) = c3 (the first and last
    coefficients of the image), so the scan over all p^4 matrices is the
    scan over the pairs of columns that pass those two tests. A singular
    matrix sends f to a form with zero discriminant, so for a nondegenerate
    f every matrix found is invertible.
    """
    c0, c1, c2, c3 = f

    def value(u, v):
        return (c0 * u**3 + c1 * u * u * v + c2 * u * v * v + c3 * v**3) % p

    firsts = [(a, c) for a in range(p) for c in range(p) if value(a, c) == c0]
    seconds = [(b, d) for b in range(p) for d in range(p) if value(b, d) == c3]
    found = [
        (a, b, c, d)
        for a, c in firsts
        for b, d in seconds
        if act_raw((a, b, c, d), f, p) == tuple(f)
    ]
    return sorted(found)


@functools.lru_cache(maxsize=None)
def _legendre_and_cubes(p):
    legendre = [0] + [1 if pow(x, (p - 1) // 2, p) == 1 else -1 for x in range(1, p)]
    return legendre, [g**3 % p for g in range(p)]


def euler_curve_order(p, a):
    """#E(F_p) for s^2 = g^3 + A by Euler's criterion: each g contributes
    1 + (g^3 + A | p) points, and infinity one more."""
    legendre, cubes = _legendre_and_cubes(p)
    return 1 + sum(1 + legendre[(c + a) % p] for c in cubes)


def least_irreducible_cubic(p):
    """(a0, a1, a2) of the least monic cubic, by (a0, a1, a2), with no root in F_p."""
    for a0, a1, a2 in itertools.product(range(p), repeat=3):
        if all((x**3 + a2 * x * x + a1 * x + a0) % p for x in range(p)):
            return (a0, a1, a2)
    raise AssertionError("no irreducible cubic found")


def fp3_mul(x, y, modulus, p):
    """The product of two coefficient triples modulo t^3 + a2 t^2 + a1 t + a0."""
    a0, a1, a2 = modulus
    raw = [0] * 5
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            raw[i + j] += xi * yj
    for k in (4, 3):
        c = raw[k]
        raw[k - 1] -= c * a2
        raw[k - 2] -= c * a1
        raw[k - 3] -= c * a0
    return (raw[0] % p, raw[1] % p, raw[2] % p)


def least_cube_roots_fp3(p, modulus):
    """{c: the least triple u with u^3 = c} for every c in F_p, by cubing all
    p^3 triples in tuple order."""
    roots = {}
    for u in itertools.product(range(p), repeat=3):
        cube = fp3_mul(fp3_mul(u, u, modulus, p), u, modulus, p)
        if cube[1] == cube[2] == 0:
            roots.setdefault(cube[0], u)
    return roots


def _signed_range(bound):
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def scalar_point_search(f, budget):
    """The first (u, v, w) on w^3 = f(u, v) over Q within the budget, or
    None: every pair (v, u) of the box of each height is formed, those of a
    lower height and the non-primitive ones are dropped, and the cube root
    is taken on field scalars."""
    field = f.field
    for h in range(1, budget + 1):
        for c in itertools.product(_signed_range(h), repeat=2):
            if max(map(abs, c)) != h or gcd(*c) != 1:
                continue
            v, u = field.scalar(c[0]), field.scalar(c[1])
            w = cube_root_in_field(f.evaluate(u, v))
            if w is not None:
                return (u, v, w)
    return None


def cubic_sums(field):
    """x^3, alpha, beta, y^3: the algebra at a form sets them to its
    coefficients c0, c1, c2, c3."""
    x3, y3 = FreeElement.word(field, "xxx"), FreeElement.word(field, "yyy")
    return (x3, alpha_element(field), beta_element(field), y3)


def relations_hold_by_reductions(alg):
    """``SpecializedAlgebra.relations_hold`` by 72 reductions of the free
    elements b_i (r - c), sharing one prefix cache."""
    cache = {"": alg.one().coords}
    for i, word in enumerate(BASIS_WORDS):
        if alg._word_vector(word, cache) != alg.basis_element(i).coords:
            return False
    if alg._reduce(gamma_element(alg.field), cache) != alg.gamma():
        return False
    one = FreeElement.one(alg.field)
    relations = [s - one.scale(c) for s, c in zip(cubic_sums(alg.field), alg.form.coeffs)]
    return all(
        alg._reduce(FreeElement.word(alg.field, w) * r, cache).is_zero()
        for w in BASIS_WORDS
        for r in relations
    )


def clifford_iso_by_substitution(g, f):
    """``check_clifford_iso`` on the expanded words of ``linear_substitute``
    images, each reduced by ``reduce_free``."""
    field = f.field
    target = act_gl2(g, f)
    alg = specialized_algebra(f)
    one = FreeElement.one(field)
    names = ("cube-x", "polarization-u2v", "polarization-uv2", "cube-y")
    relations = {}
    for name, src, coeff in zip(names, cubic_sums(field), target.coeffs):
        image = linear_substitute(g, src) - one.scale(coeff)
        relations[name] = alg.reduce_free(image).is_zero()
    gamma_image = alg.reduce_free(linear_substitute(g, gamma_element(field)))
    factor = None
    if all(gamma_image.coords[i].is_zero() for i in range(1, 18)):
        head = gamma_image.coords[0]
        if head.is_zero():
            factor = field.zero()
        elif head.raw.keys() == {(1,)}:
            factor = head.terms[(1,)]
    return IsoReport(relations, factor, g.det**2)


def symbol_check_by_expansion(f):
    """``symbol_relations_check`` with eps^3 expanded into words before
    ``reduce_free``."""
    field = f.field
    alg = specialized_algebra(f)
    x = FreeElement.generator(field, "x")
    y = FreeElement.generator(field, "y")
    eps3 = epsilon_element(field) ** 3
    eps_x, eps_y = epsilon_commutators(field)
    identities = (
        ("eps-x-commutation", eps_x),
        ("eps-y-commutation", eps_y),
        ("eps-cube-central-x", eps3 * x - x * eps3),
        ("eps-cube-central-y", eps3 * y - y * eps3),
    )
    checks = {}
    first_failure = None
    for name, elem in identities:
        value = alg.reduce_free(elem)
        entry = {"pass": value.is_zero()}
        if not value.is_zero():
            entry["witness"] = value.to_json()["coords"]
            if first_failure is None:
                first_failure = name
        checks[name] = entry
    return SymbolReport(checks, first_failure)
