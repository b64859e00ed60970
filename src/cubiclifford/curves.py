"""Plane cubics w^3 = f(u, v), their Jacobians s^2 = g^3 + Delta/4, the
order-3 automorphism, its fixed 3-torsion, and the degree-3 isogeny.

The module is deliberately form-agnostic at the import level: it consumes
any object with .field, .coeffs, .evaluate, .discriminant (a
forms.BinaryCubicForm), so the forms module can call back in for orbit
invariants without an import cycle.
"""

from __future__ import annotations

import itertools
from math import gcd

from .errors import (
    BudgetExceeded,
    CurveMismatch,
    DegenerateForm,
    PreconditionFailed,
    UnsupportedField,
)
from .fields import (
    FieldSpec,
    Scalar,
    cube_root_in_field,
    power,
    prime_power_root_mod,
    sqrt_in_field,
)

DEFAULT_HEIGHT_BUDGET_Q = 20
DEFAULT_HEIGHT_BUDGET_QW = 4
MAX_EXTENSION_PRIME = 31


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


def curve_points(field: FieldSpec, curve_a: Scalar) -> list:
    """All points over F_p (exhaustive scan)."""
    if field.kind != "Fp":
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
    """F_p[t]/(m(t)) for the lexicographically least irreducible monic cubic
    m = t^3 + a2 t^2 + a1 t + a0 (ordered by (a0, a1, a2)). Elements are
    coefficient triples (e0, e1, e2)."""

    def __init__(self, p: int):
        if p > MAX_EXTENSION_PRIME:
            raise BudgetExceeded(f"cubic extension scans are capped at p <= {MAX_EXTENSION_PRIME}")
        self.p = p
        self.modulus = self._least_irreducible()

    def _least_irreducible(self):
        p = self.p
        for a0 in range(p):
            for a1 in range(p):
                for a2 in range(p):
                    if all((x**3 + a2 * x * x + a1 * x + a0) % p for x in range(p)):
                        return (a0, a1, a2)
        raise AssertionError("no irreducible cubic found")

    def embed(self, c: int):
        return (c % self.p, 0, 0)

    def add(self, u, v):
        return tuple((a + b) % self.p for a, b in zip(u, v))

    def neg(self, u):
        return tuple(-a % self.p for a in u)

    def mul(self, u, v):
        p = self.p
        a0, a1, a2 = self.modulus
        raw = [0, 0, 0, 0, 0]
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    raw[i + j] += ui * vj
        # reduce t^4 then t^3 using t^3 = -(a2 t^2 + a1 t + a0)
        for k in (4, 3):
            c = raw[k] % p
            if c:
                raw[k] = 0
                raw[k - 1] = (raw[k - 1] - c * a2) % p
                raw[k - 2] = (raw[k - 2] - c * a1) % p
                raw[k - 3] = (raw[k - 3] - c * a0) % p
        return (raw[0] % p, raw[1] % p, raw[2] % p)

    def pow(self, u, n):
        return power(u, n, (1, 0, 0), self.mul)

    def elements(self):
        p = self.p
        for e0 in range(p):
            for e1 in range(p):
                for e2 in range(p):
                    yield (e0, e1, e2)

    def cube_root(self, c: int):
        """Least element (in tuple order) whose cube is the base-field c."""
        target = self.embed(c)
        for u in self.elements():
            if self.pow(u, 3) == target:
                return u
        return None


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
            if all(c.is_zero() for c in self.coords):
                return False
            return w**3 == self.form.evaluate(u, v)
        ext = self.extension
        if all(c == (0, 0, 0) for c in self.coords):
            return False
        c0, c1, c2, c3 = (ext.embed(c.val) for c in self.form.coeffs)
        u2, v2 = ext.mul(u, u), ext.mul(v, v)
        rhs = ext.mul(c0, ext.mul(u2, u))
        rhs = ext.add(rhs, ext.mul(c1, ext.mul(u2, v)))
        rhs = ext.add(rhs, ext.mul(c2, ext.mul(u, v2)))
        rhs = ext.add(rhs, ext.mul(c3, ext.mul(v2, v)))
        return ext.pow(w, 3) == rhs

    def to_json(self):
        if self.extension is None:
            return {"u": self.coords[0].to_json(), "v": self.coords[1].to_json(), "w": self.coords[2].to_json()}
        return {
            "u": list(self.coords[0]),
            "v": list(self.coords[1]),
            "w": list(self.coords[2]),
            "modulus": list(self.extension.modulus),
        }

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
    w = (prime_power_root_mod(-3, 2, p) - 1) * pow(2, -1, p) % p
    return min(r, r * w % p, r * w * w % p)


def _signed_range(bound: int):
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def point_search(f, budget: int | None = None):
    """A verified point on w^3 = f(u, v), or None within the budget.

    F_p: exhaustive projective scan. Q: primitive integer pairs (u, v) of
    height up to the budget with exact cube-root extraction. Q(w):
    Z[omega]-pairs with coefficients up to the budget, same idea. Absence
    is only ever absence-within-budget.
    """
    field = f.field
    if field.kind == "Fp":
        p = field.p
        for u, vmax in ((field.one(), p), (field.zero(), 1)):
            for vv in range(vmax) if vmax > 1 else (1,):
                v = field.scalar(vv)
                c = f.evaluate(u, v)
                r = least_cube_root_mod(c.val, p)
                if r is not None:
                    return PlaneCubicPoint(f, (u, v, field.scalar(r)))
        return None
    rational = field.kind == "Q"
    if budget is None:
        budget = DEFAULT_HEIGHT_BUDGET_Q if rational else DEFAULT_HEIGHT_BUDGET_QW
    for h in range(1, budget + 1):
        # (v, u) over Q, (b1, a1, b2, a2) for u = a1 + b1*w, v = a2 + b2*w over Q(w)
        for c in itertools.product(_signed_range(h), repeat=2 if rational else 4):
            if max(map(abs, c)) != h or (rational and gcd(*c) != 1):
                continue
            if rational:
                v, u = field.scalar(c[0]), field.scalar(c[1])
            else:
                u, v = field.scalar((c[1], c[0])), field.scalar((c[3], c[2]))
            w = cube_root_in_field(f.evaluate(u, v))
            if w is not None:
                return PlaneCubicPoint(f, (u, v, w))
    return None


_COVER_LABELS = {1: "c0", 2: "c3", 3: "f(1,1)", 4: "f(1,-1)"}


def construct_cover_point(f, which: int) -> PlaneCubicPoint:
    """The four explicit points that split the cover after a cube root:
    (x:0:x^2) with x^3 = c0; (0:y:y^2) with y^3 = c3; (1:1:t) with
    t^3 = f(1,1); (1:-1:t) with t^3 = f(1,-1). Built over F_p when the cube
    root lives there, else over F_{p^3}."""
    field = f.field
    if field.kind != "Fp":
        raise UnsupportedField("cover points are constructed over prime fields")
    if which not in (1, 2, 3, 4):
        raise PreconditionFailed("which must be 1..4")
    one, mone = field.one(), -field.one()
    c0, c1, c2, c3 = f.coeffs
    value = {
        1: c0,
        2: c3,
        3: f.evaluate(one, one),
        4: f.evaluate(one, mone),
    }[which]
    if value.is_zero():
        raise PreconditionFailed(f"cover {which} needs {_COVER_LABELS[which]} != 0")
    p = field.p
    least = least_cube_root_mod(value.val, p)
    if least is not None:
        r = field.scalar(least)
        coords = {
            1: (r, field.zero(), r * r),
            2: (field.zero(), r, r * r),
            3: (one, one, r),
            4: (one, mone, r),
        }[which]
        return PlaneCubicPoint(f, coords)
    ext = CubicExtension(p)
    r = ext.cube_root(value.val)
    if r is None:
        raise AssertionError("cube root must exist in F_{p^3}")
    zero_e, one_e = ext.embed(0), ext.embed(1)
    coords = {
        1: (r, zero_e, ext.mul(r, r)),
        2: (zero_e, r, ext.mul(r, r)),
        3: (one_e, one_e, r),
        4: (one_e, ext.neg(one_e), r),
    }[which]
    return PlaneCubicPoint(f, coords, ext)
