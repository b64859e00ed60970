"""Plane cubics w^3 = f(u, v), their Jacobians s^2 = g^3 + Delta/4, the
order-3 automorphism, its fixed 3-torsion, and the degree-3 isogeny.

Over F_p the curve order, the kernel of the isogeny, the modulus of F_{p^3}
and cube roots there come from closed forms, each result checked; only
``curve_points`` lists points one by one. The modulus is the least cubic
with no root, by Cardano's resolvent (``fields.root_count``), and a cube
root in F_{p^3} is a Frobenius eigenvector scaled by one F_p cube root, so
``fields.prime_power_root_mod`` is the only root extraction on the F_p side.

The module is deliberately form-agnostic at the import level: it consumes
any object with .field, .coeffs, .evaluate, .discriminant (a
forms.BinaryCubicForm), so the forms module can call back in for orbit
invariants without an import cycle.
"""

from __future__ import annotations

import functools
import itertools
import operator
from math import gcd, isqrt, lcm

from .errors import (
    BudgetExceeded,
    CurveMismatch,
    DegenerateForm,
    PreconditionFailed,
    UnsupportedField,
)
from .fields import (
    CYCLOTOMIC,
    DEFAULT_SCAN_BUDGET,
    RATIONALS,
    FieldSpec,
    Scalar,
    _omega_residues,
    _zw_mul,
    cube_root_in_field,
    form_discriminant,
    form_value,
    iroot,
    pair_scalar,
    poly_mulmod,
    power,
    prime_power_root_mod,
    root_count,
    sqrt_in_field,
    triple_root_class,
)

DEFAULT_HEIGHT_BUDGET_Q = 20
DEFAULT_HEIGHT_BUDGET_QW = 4


# -- the elliptic side -----------------------------------------------------------


class EllipticPoint:
    """A point of s^2 = gamma^3 + A: infinity or an affine pair."""

    __slots__ = ("field", "curve_a", "xy")

    def __init__(self, field: FieldSpec, curve_a: Scalar, xy=None):
        self.field = field
        self.curve_a = curve_a
        self.xy = xy
        if xy is not None:
            g, s = xy
            if s * s != g**3 + curve_a:
                raise CurveMismatch(f"({g}, {s}) is not on s^2 = g^3 + {curve_a}")

    @staticmethod
    def infinity(field, curve_a):
        return EllipticPoint(field, curve_a, None)

    @staticmethod
    def affine(field, curve_a, gamma, s):
        return EllipticPoint(field, curve_a, (field.scalar(gamma), field.scalar(s)))

    def is_infinity(self):
        return self.xy is None

    def __eq__(self, other):
        return (
            isinstance(other, EllipticPoint)
            and self.field == other.field
            and self.curve_a == other.curve_a
            and self.xy == other.xy
        )

    def __hash__(self):
        return hash((self.field, self.curve_a, self.xy))

    def __repr__(self):
        if self.xy is None:
            return "EllipticPoint(infinity)"
        return f"EllipticPoint({self.xy[0]}, {self.xy[1]})"

    def to_json(self):
        if self.xy is None:
            return "infinity"
        return {"gamma": self.xy[0].to_json(), "s": self.xy[1].to_json()}


def jacobian_constant(f) -> Scalar:
    """A = Delta(f)/4, the constant of the Jacobian s^2 = gamma^3 + A."""
    delta = f.discriminant()
    if delta.is_zero():
        raise DegenerateForm("the Jacobian needs a nondegenerate form")
    return delta / f.field.scalar(4)


def j_invariant(curve_a: Scalar) -> Scalar:
    """j of s^2 = g^3 + A: the quartic coefficient is 0, so j = 0."""
    if curve_a.is_zero():
        raise DegenerateForm("A = 0 gives a singular cubic")
    return curve_a.field.zero()


def _require_same_curve(p: EllipticPoint, q: EllipticPoint):
    if p.field != q.field or p.curve_a != q.curve_a:
        raise CurveMismatch("points on different curves")


def ell_neg(p: EllipticPoint) -> EllipticPoint:
    if p.xy is None:
        return p
    g, s = p.xy
    return EllipticPoint(p.field, p.curve_a, (g, -s))


def ell_add(p: EllipticPoint, q: EllipticPoint) -> EllipticPoint:
    """Chord-tangent addition on s^2 = gamma^3 + A."""
    _require_same_curve(p, q)
    if p.xy is None:
        return q
    if q.xy is None:
        return p
    g1, s1 = p.xy
    g2, s2 = q.xy
    if g1 == g2:
        if s1 == -s2:
            return EllipticPoint.infinity(p.field, p.curve_a)
        lam = (p.field.scalar(3) * g1 * g1) / (p.field.scalar(2) * s1)
    else:
        lam = (s2 - s1) / (g2 - g1)
    g3 = lam * lam - g1 - g2
    s3 = lam * (g1 - g3) - s1
    return EllipticPoint(p.field, p.curve_a, (g3, s3))


def ell_mul(n: int, p: EllipticPoint) -> EllipticPoint:
    if n < 0:
        return ell_mul(-n, ell_neg(p))
    return power(p, n, EllipticPoint.infinity(p.field, p.curve_a), ell_add)


def cm_theta(p: EllipticPoint) -> EllipticPoint:
    """(gamma, s) -> (omega*gamma, s); the order-3 automorphism."""
    if not p.field.has_omega():
        raise UnsupportedField("theta needs omega in the field")
    if p.xy is None:
        return p
    g, s = p.xy
    return EllipticPoint(p.field, p.curve_a, (p.field.omega() * g, s))


def torsion_points(field: FieldSpec, curve_a: Scalar) -> list:
    """The fixed subgroup of theta: infinity and (0, +-sqrt(A)) when the
    root exists."""
    if curve_a.is_zero():
        raise DegenerateForm("A = 0 gives a singular cubic")
    points = [EllipticPoint.infinity(field, curve_a)]
    r = sqrt_in_field(curve_a)
    if r is not None:
        points.append(EllipticPoint(field, curve_a, (field.zero(), r)))
        points.append(EllipticPoint(field, curve_a, (field.zero(), -r)))
    return points


def lambda_isogeny(p: EllipticPoint) -> EllipticPoint:
    """theta - [1]; its kernel is exactly the fixed subgroup of theta."""
    return ell_add(cm_theta(p), ell_neg(p))


def lambda_kernel(field: FieldSpec, curve_a: Scalar) -> list:
    """The kernel of lambda = theta - [1] on s^2 = gamma^3 + A over ``field``:
    infinity and (0, +-sqrt(A)) when the root exists, in the order a scan
    over gamma = 0, 1, ... lists them (``torsion_points``).

    Proof: lambda(P) = O iff theta(P) = P. Infinity is fixed, and an affine
    (gamma, s) is fixed iff (omega*gamma, s) = (gamma, s), that is
    (omega - 1)*gamma = 0, that is gamma = 0 because omega != 1; then
    s^2 = A. Each listed point is checked by ``lambda_isogeny``.
    """
    kernel = torsion_points(field, curve_a)
    for point in kernel:
        if not lambda_isogeny(point).is_infinity():
            raise AssertionError(f"lambda does not kill {point}")
    return kernel


# the six units of Z[w] as pairs (a, b) = a + b*w: 1, w, w^2 = -1 - w and their negatives
_UNITS = ((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1))


def _primary_prime(p: int) -> tuple:
    """(a, b) with a^2 - a*b + b^2 = p, a = 2 and b = 0 (mod 3), for a prime
    p = 1 (mod 3).

    Cornacchia (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 1.5.3) writes 4p = X^2 + 3Y^2; then X = Y (mod 2) and
    pi = (X + Y)/2 + Y*w has norm p. Exactly one of its six associates
    u*pi is primary.
    """
    # odd, as Cohen asks (x0 = D mod 2), and a root of D = -3: (2w + 1)^2 = 4(w^2 + w + 1) - 3
    x0 = 2 * _omega_residues(p)[0] + 1
    a, b, bound = 2 * p, x0, isqrt(4 * p)
    while b > bound:
        a, b = b, a % b
    y = isqrt((4 * p - b * b) // 3)
    if b * b + 3 * y * y != 4 * p:
        raise AssertionError(f"Cornacchia found no 4p = X^2 + 3Y^2 for p = {p}")
    pi = ((b + y) // 2, y)
    for unit in _UNITS:
        a, b = _zw_mul(unit, pi)
        if a % 3 == 2 and b % 3 == 0:
            return a, b
    raise AssertionError(f"no primary associate of {pi}")


def curve_order(field: FieldSpec, curve_a: Scalar) -> int:
    """The number of points of s^2 = gamma^3 + A over F_p, infinity included.

    With pi = a + b*w the primary prime above p (``_primary_prime``),
    Ireland & Rosen (A Classical Introduction to Modern Number Theory,
    ch. 18 §3, Thm 4) give

        #E = p + 1 + Tr(conj(chi) * pi),   chi = (4A/pi)_6,

    the sextic residue symbol: the sixth root of unity congruent to
    (4A)^((p - 1)/6) modulo pi. Z[w]/pi is F_p with w -> -a/b (pi vanishes
    there), so chi is the unit whose image mod p is that power. The order
    is checked by [N]P = O at the first point P of least gamma >= 1
    (gamma = 0 when no such point exists), by left-to-right double-and-add
    on Jacobian residues (X, Y, Z), which stand for (X/Z^2, Y/Z^3), with
    Z = 0 for infinity (``_jacobian_multiple``). These are ``ell_add``'s
    tangent and chord formulas with gamma = X/Z^2, s = Y/Z^3 substituted
    and the denominators cleared, so no inversion is needed:

        2(X, Y, Z) = (M^2 - 2S, M(S - X') - 8Y^4, 2YZ),
            S = 4XY^2, M = 3X^2, X' the new X; infinity when Y = 0;
        (X, Y, Z) + (g, s, 1) = (R^2 - H^3 - 2XH^2, R(XH^2 - X') - YH^3, ZH),
            H = g*Z^2 - X, R = s*Z^3 - Y; when H = 0 the points share
            gamma, so the sum is a doubling when R = 0 and infinity else.
    """
    if not field.p:
        raise UnsupportedField("curve orders need a finite field")
    if curve_a.is_zero():
        raise DegenerateForm("A = 0 gives a singular cubic")
    p, a_raw = field.p, curve_a.val
    a, b = _primary_prime(p)
    w = -a * pow(b, -1, p) % p
    residue = pow(4 * a_raw, (p - 1) // 6, p)
    chi = next(u for u in _UNITS if (u[0] + u[1] * w) % p == residue)
    c, d = _zw_mul((chi[0] - chi[1], -chi[1]), (a, b))  # conj(chi) * pi
    order = p + 1 + 2 * c - d
    for g in itertools.chain(range(1, p), (0,)):
        s = prime_power_root_mod(g * g * g + a_raw, 2, p)
        if s is not None:
            break
    point = EllipticPoint(field, curve_a, (field.scalar(g), field.scalar(s)))
    if _jacobian_multiple(order, g, s, p)[2]:
        raise AssertionError(f"[{order}]{point} is not infinity on s^2 = g^3 + {curve_a}")
    return order


def _jacobian_multiple(n: int, g: int, s: int, p: int) -> tuple:
    """[n]P for n >= 1 and P = (g, s) on s^2 = gamma^3 + A over F_p, as
    Jacobian residues (X, Y, Z) with Z = 0 for infinity, by the formulas in
    ``curve_order``."""

    def double(x, y, z):
        if not y:  # 2-torsion or infinity
            return 1, 1, 0
        yy = y * y % p
        big_s, m = 4 * x * yy % p, 3 * x * x % p
        x3 = (m * m - 2 * big_s) % p
        return x3, (m * (big_s - x3) - 8 * yy * yy) % p, 2 * y * z % p

    x, y, z = g, s, 1
    for bit in bin(n)[3:]:
        x, y, z = double(x, y, z)
        if bit == "0":
            continue
        if not z:
            x, y, z = g, s, 1
            continue
        zz = z * z % p
        h, r = (g * zz - x) % p, (s * zz * z - y) % p
        if not h:
            x, y, z = double(x, y, z) if not r else (1, 1, 0)
            continue
        hh = h * h % p
        hhh, v = h * hh % p, x * hh % p
        x3 = (r * r - hhh - 2 * v) % p
        x, y, z = x3, (r * (v - x3) - y * hhh) % p, z * h % p
    return x, y, z


def curve_points(field: FieldSpec, curve_a: Scalar) -> list:
    """All points over F_p (exhaustive scan)."""
    if not field.p:
        raise UnsupportedField("exhaustive point lists need a finite field")
    points = [EllipticPoint.infinity(field, curve_a)]
    for g in field.elements():
        rhs = g**3 + curve_a
        r = sqrt_in_field(rhs)
        if r is None:
            continue
        points.append(EllipticPoint(field, curve_a, (g, r)))
        if r != -r:
            points.append(EllipticPoint(field, curve_a, (g, -r)))
    return points


# -- the cubic extension F_{p^3} ---------------------------------------------------


class CubicExtension:
    """F_p[t]/(m(t)), p = 1 (mod 3), for the lexicographically least
    irreducible monic cubic m = t^3 + a2 t^2 + a1 t + a0 (ordered by
    (a0, a1, a2)). Elements are coefficient triples (e0, e1, e2), multiplied
    by ``fields.poly_mulmod``. A cube root of a non-cube of F_p is a
    Frobenius eigenvector scaled by one F_p cube root (``cube_root``).
    ``cubic_extension(p)`` shares one instance per p."""

    def __init__(self, p: int):
        self.p = p
        self.modulus = self._least_irreducible()
        t = (0, 1, 0)
        frob = self.pow(t, p)
        self.conjugates = (t, frob, self.pow(frob, p))  # t, t^p, t^(p^2)

    def _least_irreducible(self):
        """m is irreducible exactly when the form (1, a2, a1, a0), whose
        f(t, 1) is m, has Delta != 0 and no root on P^1(F_p)
        (``fields.root_count``): a cubic with no root in F_p is irreducible,
        a repeated root of a cubic over F_p lies in F_p, and (1:0) is no
        root, as c0 = 1. a0 = 0 is skipped, since t divides m there. Each
        candidate counts against DEFAULT_SCAN_BUDGET; the first irreducible
        one comes within 16 candidates for every p below 20000."""
        p = self.p
        candidates = 0
        for a0 in range(1, p):
            for a1 in range(p):
                for a2 in range(p):
                    candidates += 1
                    if candidates > DEFAULT_SCAN_BUDGET:
                        raise BudgetExceeded(
                            f"no irreducible cubic within {DEFAULT_SCAN_BUDGET} candidates"
                        )
                    form = (1, a2, a1, a0)
                    delta = form_discriminant(form) % p
                    if delta and root_count(form, delta, p) == 0:
                        return (a0, a1, a2)
        raise AssertionError("no irreducible cubic found")

    def embed(self, c: int):
        return (c % self.p, 0, 0)

    def add(self, u, v):
        return tuple((a + b) % self.p for a, b in zip(u, v))

    def mul(self, u, v):
        return poly_mulmod(u, v, self.modulus, self.p)

    def pow(self, u, n):
        return power(u, n, (1, 0, 0), self.mul)

    def cube_root(self, c: int):
        """The least element (in tuple order) whose cube is the base-field c.

        A cube c of F_p has its three cube roots in F_p, the least being
        ``least_cube_root_mod``'s. Any other c in F_p* is a cube here, as
        c^((p^3 - 1)/3) = c^((p - 1)(p^2 + p + 1)/3) = 1 (3 | p^2 + p + 1).
        For r a cube root, r^p = r*(r^3)^((p - 1)/3) = z*r, z = c^((p - 1)/3)
        != 1: 1, r, r^2 are eigenvectors of the F_p-linear Frobenius for the
        distinct eigenvalues 1, z, z^2. So P(y) = y + z^-1 y^p + z^-2 y^(p^2)
        sends r^k to (1 + z^(k-1) + z^(2k-2)) r^k, 3r for k = 1 and 0 for
        k = 0, 2: P projects F_{p^3} onto F_p*r and sends 1 to 0. As 1, t, t^2
        is a basis, P(t) or P(t^2) is some v = b*r != 0 with b in F_p. Then
        v^3 = b^3*c lies in F_p (asserted), and for any cube root b' = b*w^i
        of v^3/c, v/b' = r*w^(-i) is a cube root of c. The three roots are r,
        r*w and r*w^2 for w a primitive cube root of 1 in F_p, and the least
        is returned.
        """
        p = self.p
        least = least_cube_root_mod(c, p)
        if least is not None:
            return self.embed(least)
        z = pow(c, (p - 1) // 3, p)  # z^-1 = z^2 and z^-2 = z
        for k in (1, 2):
            y0, y1, y2 = (self.pow(y, k) for y in self.conjugates)
            v = tuple((a + z * z * b + z * e) % p for a, b, e in zip(y0, y1, y2))
            if any(v):
                break
        cube = self.pow(v, 3)
        if cube[1] or cube[2]:
            raise AssertionError(f"{v}^3 = {cube} is not in F_{p}")
        inv = pow(prime_power_root_mod(cube[0] * pow(c, -1, p), 3, p), -1, p)
        return _least_cube_root(tuple(x * inv % p for x in v), p)


@functools.lru_cache(maxsize=16)
def cubic_extension(p: int) -> CubicExtension:
    """The ``CubicExtension`` of p, built once per p for ``construct_cover_point``."""
    return CubicExtension(p)


def _coordinate_ring(field: FieldSpec, ext: CubicExtension | None):
    """(lift, add, mul) of the ring a plane point's coordinates live in: the
    Scalars of ``field`` when ``ext`` is None, else the triples of ``ext``;
    lift takes an int or a Scalar of ``field`` into the ring."""
    if ext is None:
        return field.scalar, operator.add, operator.mul
    return (lambda c: ext.embed(field.scalar(c).val)), ext.add, ext.mul


class PlaneCubicPoint:
    """A projective point (u : v : w) on w^3 = f(u, v), with coordinates in
    the base field or in F_{p^3}."""

    __slots__ = ("form", "coords", "extension")

    def __init__(self, form, coords, extension: CubicExtension | None = None):
        self.form = form
        self.coords = tuple(coords)
        self.extension = extension
        if not self.verify():
            raise CurveMismatch(f"{self.coords} does not satisfy w^3 = f(u, v)")

    def verify(self) -> bool:
        u, v, w = self.coords
        if self.extension is None:
            nonzero = any(not c.is_zero() for c in self.coords)
            return nonzero and w * w * w == self.form.evaluate(u, v)
        lift, add, mul = _coordinate_ring(self.form.field, self.extension)
        if all(c == lift(0) for c in self.coords):
            return False
        c0, c1, c2, c3 = (lift(c) for c in self.form.coeffs)
        u2, v2 = mul(u, u), mul(v, v)
        rhs = add(add(mul(c0, mul(u2, u)), mul(c1, mul(u2, v))),
                  add(mul(c2, mul(u, v2)), mul(c3, mul(v2, v))))
        return mul(mul(w, w), w) == rhs

    def to_json(self):
        if self.extension is None:
            return dict(zip("uvw", (c.to_json() for c in self.coords)))
        return {**dict(zip("uvw", map(list, self.coords))), "modulus": list(self.extension.modulus)}

    def __repr__(self):
        u, v, w = self.coords
        return f"({u} : {v} : {w})"


# -- point searches -------------------------------------------------------------


def least_cube_root_mod(c: int, p: int) -> int | None:
    """The least x in [0, p) with x^3 = c (mod p), or None if there is none.

    The cube roots of a nonzero c are r, r*w, r*w^2 for one root r and a
    primitive cube root of unity w = (-1 + sqrt(-3))/2 when p = 1 (mod 3),
    and r alone otherwise.
    """
    r = prime_power_root_mod(c, 3, p)
    if r is None or (p - 1) % 3:
        return r
    return _least_cube_root((r,), p)[0]


def _least_cube_root(r: tuple, p: int) -> tuple:
    """The least in tuple order of r, r*w and r*w^2, for r a vector of
    residues mod p = 1 (mod 3) and w the primitive cube roots of 1 mod p:
    of the three cube roots of r^3 in F_p or F_{p^3}, the one returned."""
    w, w2 = _omega_residues(p)
    return min(r, tuple(x * w % p for x in r), tuple(x * w2 % p for x in r))


def _signed_range(bound: int):
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def _height_shell(h: int, n: int):
    """The integer n-tuples of height h (largest |entry| exactly h), h >= 1,
    in the order of itertools.product(_signed_range(h), repeat=n), the last
    entry fastest: after a head that holds +-h the last entry takes every
    value, after any other head only h and -h."""
    signed = tuple(_signed_range(h))
    every, tops = tuple((x,) for x in signed), ((h,), (-h,))
    for head in itertools.product(signed, repeat=n - 1):
        for last in every if h in head or -h in head else tops:
            yield head + last


# an integer cube is a cube modulo 7*9*13*19, where 315 of the 15561 residues are
_CUBE_MODULUS = 7 * 9 * 13 * 19


@functools.cache
def _cube_residues() -> bytes:
    table = bytearray(_CUBE_MODULUS)
    for y in range(_CUBE_MODULUS):
        table[y * y * y % _CUBE_MODULUS] = 1
    return bytes(table)


def _integer_point_search(f, budget: int):
    """``point_search`` over Q on Python ints.

    With D the least common denominator of the coefficients, F = D*f has
    integer coefficients and f(u, v) = F(u, v)/D is a cube iff
    F(u, v)*D^2 = f(u, v)*D^3 is, with cube root D*w. The residue table
    rejects most non-cubes before the exact root is taken.
    """
    field = f.field
    den = lcm(*(c.val[1] for c in f.coeffs))
    coeffs = [a * (den // d) for (a, _), d in (c.val for c in f.coeffs)]
    scale = den * den
    cubes = _cube_residues()
    for h in range(1, budget + 1):
        for v, u in _height_shell(h, 2):
            if gcd(v, u) != 1:
                continue
            m = form_value(coeffs, u, v) * scale
            if not cubes[m % _CUBE_MODULUS]:
                continue
            r = iroot(abs(m), 3)
            if r is not None:
                w = pair_scalar(field, r if m >= 0 else -r, 0, den)
                return PlaneCubicPoint(f, (field.scalar(u), field.scalar(v), w))
    return None


def _zw_point_search(f, budget: int):
    """``point_search`` over Q(w) on pairs of ints.

    With D the least common denominator of the coefficients' parts, F = D*f
    has coefficients in Z[w] and f(u, v) = F(u, v)/D. A cube of Q(w) has a
    norm that is a cube of Q, and N(f(u, v))*D^6 = N(F(u, v))*D^4 is an
    integer, so the residue table rejects most values before
    ``cube_root_in_field`` takes the exact root of f(u, v).
    """
    field = f.field
    den = lcm(*(c.val[1] for c in f.coeffs))
    c0, c1, c2, c3 = ((a * (den // d), b * (den // d)) for (a, b), d in (c.val for c in f.coeffs))
    scale = den**4
    cubes = _cube_residues()
    for h in range(1, budget + 1):
        for b1, a1, b2, a2 in _height_shell(h, 4):
            u, v = (a1, b1), (a2, b2)
            uu, vv = _zw_mul(u, u), _zw_mul(v, v)
            x, y = (
                sum(t)
                for t in zip(
                    _zw_mul(c0, _zw_mul(uu, u)),
                    _zw_mul(c1, _zw_mul(uu, v)),
                    _zw_mul(c2, _zw_mul(u, vv)),
                    _zw_mul(c3, _zw_mul(vv, v)),
                )
            )
            if not cubes[(x * x - x * y + y * y) * scale % _CUBE_MODULUS]:
                continue
            w = cube_root_in_field(pair_scalar(field, x, y, den))
            if w is not None:
                return PlaneCubicPoint(f, (field.scalar(u), field.scalar(v), w))
    return None


def point_search(f, budget: int | None = None):
    """A verified point on w^3 = f(u, v), or None within the budget.

    F_p: projective scan, (1 : v) for v = 0, 1, ... and then (0 : 1), which
    for a form lambda*L^3 with lambda a non-cube goes straight to the zero
    of L, its only point. Q: primitive integer pairs (u, v) of height up to
    the budget with exact cube-root extraction. Q(w):
    Z[omega]-pairs with coefficients up to the budget, same idea. Absence
    is only ever absence-within-budget. Each height is visited shell by
    shell, (v, u) over Q and (b1, a1, b2, a2) for u = a1 + b1*w,
    v = a2 + b2*w over Q(w), the last coordinate fastest. Every search runs
    on residues or ints and wraps the point it finds once.
    """
    field = f.field
    if field.kind == RATIONALS:
        return _integer_point_search(f, DEFAULT_HEIGHT_BUDGET_Q if budget is None else budget)
    if field.kind == CYCLOTOMIC:
        return _zw_point_search(f, DEFAULT_HEIGHT_BUDGET_QW if budget is None else budget)
    p = field.p
    raw = [c.val for c in f.coeffs]
    vs = range(p)
    # lambda*L^3 with lambda a non-cube: f(1, v) is a cube only at
    # v = -l0/l1 = -c2/(3*c3), where L = l0*u + l1*v vanishes
    if triple_root_class(raw, p) not in (None, 0, 1):
        vs = [-raw[2] * pow(3 * raw[3], -1, p) % p] if raw[3] else []
    for u, v in itertools.chain(((1, v) for v in vs), ((0, 1),)):
        r = least_cube_root_mod(form_value(raw, u, v), p)
        if r is not None:
            return PlaneCubicPoint(f, (field.scalar(u), field.scalar(v), field.scalar(r)))
    return None


_COVER_LABELS = {1: "c0", 2: "c3", 3: "f(1,1)", 4: "f(1,-1)"}


def construct_cover_point(f, which: int) -> PlaneCubicPoint:
    """The four explicit points that split the cover after a cube root:
    (x:0:x^2) with x^3 = c0; (0:y:y^2) with y^3 = c3; (1:1:t) with
    t^3 = f(1,1); (1:-1:t) with t^3 = f(1,-1). Built over F_p when the cube
    root lives there, else over F_{p^3}."""
    field = f.field
    if not field.p:
        raise UnsupportedField("cover points are constructed over prime fields")
    if which not in (1, 2, 3, 4):
        raise PreconditionFailed("which must be 1..4")
    one = field.one()
    value = (f.coeffs[0], f.coeffs[3], f.evaluate(one, one), f.evaluate(one, -one))[which - 1]
    if value.is_zero():
        raise PreconditionFailed(f"cover {which} needs {_COVER_LABELS[which]} != 0")
    least = least_cube_root_mod(value.val, field.p)
    ext = None if least is not None else cubic_extension(field.p)
    r = field.scalar(least) if ext is None else ext.cube_root(value.val)
    lift, _, mul = _coordinate_ring(field, ext)
    zero, one = lift(0), lift(1)
    coords = {
        1: (r, zero, mul(r, r)),
        2: (zero, r, mul(r, r)),
        3: (one, one, r),
        4: (one, lift(-1), r),
    }[which]
    return PlaneCubicPoint(f, coords, ext)
