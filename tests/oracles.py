"""Brute-force references for the GL2 action and the curves over a small
F_p, and for the point search over Q.

The package finds orbits, stabilizers and orbit equivalences from a
complete invariant and one normal form per orbit type. These routines find
them without either, by breadth-first search over generators and by
exhaustive scans, and the tests require equal answers for p <= 31. Curve
orders, the F_{p^3} modulus and its cube roots come from closed forms in
the package and from counts and scans here; the root count and the lone
root of a cubic come from Cardano's resolvent in the package and from a
polynomial gcd with t^p - t here; the point search over Q runs
on integers in the package and on field scalars here, and its height
shells come from one flat loop in the package and by recursion here.

The specialized algebra's freeness, symbol and GL2-isomorphism checks fold
through the factors of their free elements in the package; here they
expand the free elements into words and reduce those, and the tests
require equal reports.

The rank-18 kernel folds sparse raw vectors through flat column triples;
here folds, reductions and products run on dense 18-tuples of polynomials
by their own operators, each output coordinate a sum over all 18 inputs,
and the tests require equal elements.

The structure columns are derived by elimination mod a prime and verified
over Z; here every column is re-expanded into the free algebra and its
difference from its word is decided a member of the defining ideal over Q,
with each "member" answer certified over Z.

The package parses an expression into one raw term map and normalizes it
once; here every literal and name is a normalized ``FreeElement`` or
``SPolynomial`` and the parser applies their own operators, and the tests
require equal elements or equal errors.

An answer over Q or Q(w) is checked at split primes by ``reduce_mod``, the
ring map Z[w] -> F_p with w sent to a cube root of 1 mod p: what the
package answers over Q(w) must reduce to what it answers over F_p.
"""

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm

from cubiclifford._parsing import ExprParser
from cubiclifford.cliffordf import IsoReport, SymbolReport, specialized_algebra
from cubiclifford.curves import EllipticPoint
from cubiclifford.errors import SingularMatrix, UnknownSymbol
from cubiclifford.fields import FieldSpec, Scalar, cube_root_in_field, hessian, poly_mulmod, power
from cubiclifford.forms import BinaryCubicForm, GL2Element, act_gl2
from cubiclifford.freealg import (
    FreeElement,
    alpha_element,
    beta_element,
    epsilon_commutators,
    epsilon_element,
    gamma_element,
    linear_substitute,
)
from cubiclifford.gca import (
    BASIS_WORDS,
    _Echelon,
    _ideal_columns,
    _monomial_expansion,
    _structure_columns_int,
    _verify_over_z,
    words_of_degree,
)
from cubiclifford.spoly import GCA_VARS, SPolynomial


def gamma_element_alt(field):
    """(xy)^2 - y^2*x^2, the other defining expression for the class of GA."""
    return FreeElement(field, {"xyxy": field.one(), "yyxx": -field.one()})


def scale_poly(u, s):
    """The element u with every coordinate times the polynomial s."""
    return u._like([a * s for a in u.coords])


def hessian_coefficients(f):
    """(r, s, t) with Hessian/36 = r*u^2 + 2*s*u*v + t*v^2, which is
    -(h0, h1/2, h2)/9 for the covariant (h0, h1, h2) of ``fields.hessian``:
    the Scalar-valued coefficients that the Hessian split of ``forms``
    reads off the raw covariant."""
    h0, h1, h2 = hessian(f.coeffs)
    k = f.field.scalar(-1) / 9
    return h0 * k, h1 * k / 2, h2 * k


def is_central(alg, u) -> bool:
    """Whether u commutes with x and y in the algebra ``alg``."""
    x, y = alg.basis_element(1), alg.basis_element(2)
    return alg.mul(u, x) == alg.mul(x, u) and alg.mul(u, y) == alg.mul(y, u)


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


def _poly_trim(a):
    """a without its zero leading coefficients (lowest coefficient first)."""
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def distinct_roots_factor(poly, p):
    """The monic gcd over F_p of poly(t) and t^p - t, lowest coefficient first.

    ``poly`` lists residues from the constant term up and is not zero mod p.
    The gcd is the product of t - a over the distinct roots a of poly in F_p
    (Cohen, A Course in Computational Algebraic Number Theory, 3.4), so its
    degree counts those roots and a linear gcd (g0, 1) names the root -g0; a
    poly with no root, such as an irreducible cubic, gives (1,). poly is
    first made monic, which keeps its roots, and t^p is taken modulo it by
    ``power`` and ``poly_mulmod``: O(log p) products of degree below deg poly.
    ``poly_mulmod`` also gives Euclid's remainders: a mod b is a*1 modulo
    b / b[-1], which divides the same polynomials as b.
    """
    m = _poly_trim([c % p for c in poly])
    if len(m) < 2:  # a nonzero constant has no roots
        return (1,)
    inv = pow(m[-1], -1, p)
    low = [c * inv % p for c in m[:-1]]  # m / m[-1]: monic, with the same roots
    frob = [*power((0, 1), p, (1,), lambda x, y: poly_mulmod(x, y, low, p)), 0]
    frob[1] -= 1  # t^p - t modulo m
    a, b = m, _poly_trim([c % p for c in frob])
    while b:  # low is always a's monic part, so the gcd is (*low, 1)
        inv = pow(b[-1], -1, p)
        low = [c * inv % p for c in b[:-1]]
        a, b = b, _poly_trim(list(poly_mulmod(a, (1,), low, p)))
    return (*low, 1)


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


def height_shell(h, n):
    """The integer n-tuples of height h (largest |entry| exactly h), h >= 1,
    in the order of itertools.product(_signed_range(h), repeat=n), by
    recursion on n: a first entry of height h takes any tail, a smaller one
    a tail of height h."""
    for first in _signed_range(h):
        if abs(first) == h:
            tails = itertools.product(_signed_range(h), repeat=n - 1)
        elif n > 1:
            tails = height_shell(h, n - 1)
        else:
            continue
        for tail in tails:
            yield (first, *tail)


def brute_force_curve_order(p, a):
    """#E(F_p) for s^2 = g^3 + A by testing every pair (g, s), plus infinity."""
    return 1 + sum((s * s - g * g * g - a) % p == 0 for g in range(p) for s in range(p))


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
    cache = {"": alg._vector(alg.one().coords)}
    for i, word in enumerate(BASIS_WORDS):
        if alg._element(alg._word_vector(word, cache)) != alg.basis_element(i):
            return False
    if alg._element(alg._reduce(gamma_element(alg.field), cache)) != alg.gamma():
        return False
    one = FreeElement.one(alg.field)
    relations = [s - one.scale(c) for s, c in zip(cubic_sums(alg.field), alg.form.coeffs)]
    return all(
        alg._element(alg._reduce(FreeElement.word(alg.field, w) * r, cache)).is_zero()
        for w in BASIS_WORDS
        for r in relations
    )


def column_polys(alg, letter, j):
    """Column j of ``alg``'s ``letter`` as the nonzero (i, polynomial) pairs."""
    zero = alg._zero
    raws = [{} for _ in range(18)]
    for i, m, c in alg.columns[letter][j]:
        raws[i][m or zero._unit()] = c
    return [(i, q) for i, raw in enumerate(raws) if (q := zero._make(raw, alg.den)).raw]


def dense_fold(alg, items):
    """Sum of coords times letter over the (coords, letter) items, coords
    18 polynomials: output i sums coords[j] * column_j[i]."""
    out = [alg._zero] * 18
    for coords, letter in items:
        for j, v in enumerate(coords):
            if v.raw:
                for i, q in column_polys(alg, letter, j):
                    out[i] = out[i] + v * q
    return tuple(out)


def dense_word(alg, coords, w):
    """coords folded through the word w one letter at a time."""
    for letter in w:
        coords = dense_fold(alg, ((coords, letter),))
    return coords


def dense_reduce(alg, e):
    """The normal form of the free element e: its words folded from the
    unit, each output coordinate the sum of their coordinates scaled."""
    vectors = [(c, dense_word(alg, alg.one().coords, w)) for w, c in e.terms.items()]
    coords = [sum((v[i].scale(c) for c, v in vectors), alg._zero) for i in range(18)]
    return alg.ELEMENT(alg.base, coords)


def dense_mul(alg, u, v):
    """u*v: u folded through the basis words of v, each output coordinate
    the sum of those folds times v's coordinates."""
    folds = [
        (dense_word(alg, u.coords, word), vj) for word, vj in zip(BASIS_WORDS, v.coords) if vj.raw
    ]
    coords = [sum((u_j[i] * vj for u_j, vj in folds), alg._zero) for i in range(18)]
    return alg.ELEMENT(alg.base, coords)


def ideal_membership(vec: dict, n: int) -> bool:
    """Exact membership of an integer word-vector in the degree-n ideal
    component, decided over Q (independent of the mod-p solver). A "member"
    answer is certified by checking its combination of ideal columns over Z."""
    index = {w: k for k, w in enumerate(words_of_degree(n))}
    if any(w not in index for w in vec):
        return False
    cols = _ideal_columns(n)
    ech = _Echelon()
    for j, col in enumerate(cols):
        ech.add({index[w]: Fraction(c) for w, c in col.items()}, j)
    rem, combo = ech.reduce({index[w]: Fraction(c) for w, c in vec.items()})
    if rem:
        return False
    den = lcm(*(q.denominator for q in combo.values()))
    coeffs = {j: q.numerator * (den // q.denominator) for j, q in combo.items()}
    _verify_over_z({w: den * c for w, c in vec.items()}, cols, coeffs, "ideal membership")
    return True


def validate_structure_columns() -> bool:
    """Re-expand every structure column back into the free algebra and check
    membership of the difference in the defining ideal over Q (independent
    of the mod-p pivoting that produced the columns)."""
    diffs = {}
    for (letter, j, i), expo, c in _structure_columns_int():
        diff = diffs.setdefault((letter, j), {BASIS_WORDS[j] + letter: -1})
        for w, k in _monomial_expansion(expo):
            key = w + BASIS_WORDS[i]
            diff[key] = diff.get(key, 0) + c * k
    for (letter, j), diff in diffs.items():
        diff = {w: c for w, c in diff.items() if c}
        if diff and not ideal_membership(diff, len(BASIS_WORDS[j]) + 1):
            return False
    return True


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
        elif head.terms.keys() == {(1,)}:
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


def operator_parse_free(text, field):
    """The free element of ``text`` by ``FreeElement`` arithmetic."""

    def symbol(name, pos):
        if name in ("x", "y"):
            return FreeElement.generator(field, name)
        if name == "w":
            return FreeElement(field, {"": field.omega()})
        raise UnknownSymbol(f"unknown symbol {name!r}", pos)

    return ExprParser(text, lambda q: FreeElement(field, {"": field.scalar(q)}), symbol).parse()


def operator_parse_poly(text, field, variables=GCA_VARS):
    """The polynomial of ``text`` by ``SPolynomial`` arithmetic."""

    def symbol(name, pos):
        if name == "w":
            return SPolynomial.const(field, field.omega(), variables)
        if name in variables:
            return SPolynomial.variable(field, name, variables)
        raise UnknownSymbol(f"unknown symbol {name!r}", pos)

    return ExprParser(text, lambda q: SPolynomial.const(field, q, variables), symbol).parse()


def reduce_mod(value, p, omega):
    """The image over F_p of a Scalar, form, ``GL2Element`` or
    ``EllipticPoint`` over Q or Q(w), under the ring map Z[w] -> F_p that
    sends w to ``omega`` (an int or F_p Scalar with omega^2 + omega + 1 = 0,
    such as ``FieldSpec.prime(p).omega()`` or its square). None where p
    divides a denominator, or where the image is a degenerate form, a
    singular matrix or a point of a singular curve; a point whose image is
    off the image curve raises ``CurveMismatch``."""
    field = FieldSpec.prime(p)
    w = field.scalar(omega)
    if isinstance(value, Scalar):
        (a, b), den = value.val
        return None if den % p == 0 else (field.scalar(a) + field.scalar(b) * w) / field.scalar(den)
    if isinstance(value, EllipticPoint):
        parts = [value.curve_a, *(value.xy or ())]
    elif isinstance(value, BinaryCubicForm):
        parts = value.coeffs
    else:
        parts = value.entries()
    images = [reduce_mod(x, p, omega) for x in parts]
    if any(x is None for x in images):
        return None
    if isinstance(value, BinaryCubicForm):
        form = BinaryCubicForm(field, images)
        return form if form.is_nondegenerate() else None
    if isinstance(value, GL2Element):
        try:
            return GL2Element(field, images)
        except SingularMatrix:
            return None
    curve_a, *xy = images
    return None if curve_a.is_zero() else EllipticPoint(field, curve_a, tuple(xy) or None)
