"""Binary cubic forms and the GL2 action on them.

A form is the raw coefficient vector (c0, c1, c2, c3) of
c0*u^3 + c1*u^2*v + c2*u*v^2 + c3*v^3. The frozen action is

    (g.f)(u, v) = f(a*u + b*v, c*u + d*v),   g = (a b; c d),

the unique orientation compatible with the generator substitution
x -> a*x + c*y, y -> b*x + d*y on the Clifford side (the cube of a*x + c*y
is f(a, c)). It composes as act(g, act(h, f)) = act(h*g, f), matching
freealg.linear_substitute.
"""

from __future__ import annotations

import itertools

from .errors import (
    BudgetExceeded,
    DegenerateForm,
    FieldMismatch,
    NotDiagonalizableByThisTransform,
    SingularMatrix,
    SquareRootAbsent,
    UnsupportedField,
    UnsupportedFieldForTest,
)
from .fields import (
    FieldSpec,
    Scalar,
    cube_root_in_field,
    nth_power_class,
    sixth_power_class_token,
    sqrt_in_field,
)

# the p^4 items (matrices for a stabilizer, forms for the orbits) a scan may visit
DEFAULT_SCAN_BUDGET = 10**6


class BinaryCubicForm:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs):
        self.field = field
        cs = tuple(field.scalar(c) for c in coeffs)
        if len(cs) != 4:
            raise FieldMismatch("a binary cubic form has 4 coefficients")
        self.coeffs = cs

    def discriminant(self) -> Scalar:
        return _delta(self.coeffs)

    def is_nondegenerate(self) -> bool:
        return not self.discriminant().is_zero()

    def require_nondegenerate(self):
        if not self.is_nondegenerate():
            raise DegenerateForm(f"discriminant of {self} vanishes")

    def evaluate(self, u: Scalar, v: Scalar) -> Scalar:
        c0, c1, c2, c3 = self.coeffs
        return c0 * u**3 + c1 * (u**2 * v) + c2 * (u * v**2) + c3 * v**3

    def is_diagonal(self) -> bool:
        return self.coeffs[1].is_zero() and self.coeffs[2].is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, BinaryCubicForm)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coeffs) + ")"

    def __repr__(self):
        return f"BinaryCubicForm{self}"

    def to_json(self):
        return {"field": self.field.to_json(), "coeffs": [c.to_json() for c in self.coeffs]}

    @staticmethod
    def from_json(obj) -> "BinaryCubicForm":
        field = FieldSpec.from_json(obj["field"])
        coeffs = [Scalar.from_json(field, c) for c in obj["coeffs"]]
        if obj.get("threes"):
            three = field.scalar(3)
            coeffs[1] = coeffs[1] * three
            coeffs[2] = coeffs[2] * three
        return BinaryCubicForm(field, coeffs)


class GL2Element:
    __slots__ = ("field", "a", "b", "c", "d", "det")

    def __init__(self, field: FieldSpec, entries):
        self.field = field
        a, b, c, d = (field.scalar(e) for e in entries)
        self.a, self.b, self.c, self.d = a, b, c, d
        self.det = a * d - b * c
        if self.det.is_zero():
            raise SingularMatrix(f"det of {entries} is zero")

    @staticmethod
    def identity(field):
        return GL2Element(field, (1, 0, 0, 1))

    @staticmethod
    def swap(field):
        return GL2Element(field, (0, 1, 1, 0))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def mul(self, other: "GL2Element") -> "GL2Element":
        if self.field != other.field:
            raise FieldMismatch("matrix fields differ")
        return GL2Element(self.field, _mat_mul(self.entries(), other.entries()))

    def inverse(self) -> "GL2Element":
        inv = self.det.inverse()
        return GL2Element(self.field, (self.d * inv, -self.b * inv, -self.c * inv, self.a * inv))

    def __eq__(self, other):
        return (
            isinstance(other, GL2Element)
            and self.field == other.field
            and self.entries() == other.entries()
        )

    def __hash__(self):
        return hash((self.field, self.entries()))

    def __repr__(self):
        return f"GL2[{self.a}, {self.b}; {self.c}, {self.d}]"

    def to_json(self):
        return [e.to_json() for e in self.entries()]


def discriminant(f: BinaryCubicForm) -> Scalar:
    return f.discriminant()


# The formulas below take entry and coefficient tuples over any ring: raw
# integers (reduced mod p by the callers that enumerate over F_p) or
# Scalars (int * Scalar coerces).


def _delta(f):
    """The discriminant of the coefficient tuple f."""
    c0, c1, c2, c3 = f
    return (
        18 * c0 * c1 * c2 * c3
        - 4 * c1**3 * c3
        + c1**2 * c2**2
        - 4 * c0 * c2**3
        - 27 * c0**2 * c3**2
    )


def _mat_mul(m, n):
    """The 2x2 matrix product m*n of entry tuples (a, b, c, d)."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _act(g, f):
    """The coefficients of f(a*u + b*v, c*u + d*v), g = (a, b, c, d)."""
    a, b, c, d = g
    c0, c1, c2, c3 = f
    n0 = c0 * a * a * a + c1 * a * a * c + c2 * a * c * c + c3 * c * c * c
    n1 = (
        3 * c0 * a * a * b
        + c1 * (a * a * d + 2 * a * b * c)
        + c2 * (2 * a * c * d + b * c * c)
        + 3 * c3 * c * c * d
    )
    n2 = (
        3 * c0 * a * b * b
        + c1 * (2 * a * b * d + b * b * c)
        + c2 * (a * d * d + 2 * b * c * d)
        + 3 * c3 * c * d * d
    )
    n3 = c0 * b * b * b + c1 * b * b * d + c2 * b * d * d + c3 * d * d * d
    return n0, n1, n2, n3


def _act_raw(g, f, p):
    """act_gl2 on raw residue tuples (hot path for enumeration)."""
    n0, n1, n2, n3 = _act(g, f)
    return (n0 % p, n1 % p, n2 % p, n3 % p)


def act_gl2(g: GL2Element, f: BinaryCubicForm) -> BinaryCubicForm:
    """The form f(a*u + b*v, c*u + d*v)."""
    if g.field != f.field:
        raise FieldMismatch("matrix and form fields differ")
    return BinaryCubicForm(f.field, _act(g.entries(), f.coeffs))


# -- diagonalization ---------------------------------------------------------


def _hessian_coefficients(f: BinaryCubicForm):
    """(r, s, t) with Hessian/36 = r*u^2 + 2*s*u*v + t*v^2."""
    c0, c1, c2, c3 = f.coeffs
    third = f.field.scalar(1) / f.field.scalar(3)
    ninth = third * third
    r = c0 * c2 * third - c1 * c1 * ninth
    s = (c0 * c3 - c1 * c2 * ninth) / f.field.scalar(2)
    t = c1 * c3 * third - c2 * c2 * ninth
    return r, s, t


def diagonalize(f: BinaryCubicForm):
    """(g, d) with act_gl2(g, f) = d diagonal.

    Transform: u -> (sqrt(D)+s)u' + (sqrt(D)-s)v', v -> -r*u' + r*v' with
    D = s^2 - r*t = -Delta/108 (the calibrated value; the alternative
    normalization -108*Delta is 108^2 times larger and does not diagonalize).
    Requires sqrt(D) in k. A diagonal form (where r = 0) comes back with the
    identity; otherwise, if r = 0, swap the variables once and retry.
    """
    f.require_nondegenerate()
    g = GL2Element.identity(f.field)
    if f.is_diagonal():
        return g, f
    r, s, t = _hessian_coefficients(f)
    if r.is_zero():
        g = GL2Element.swap(f.field)
        f = act_gl2(g, f)
        r, s, t = _hessian_coefficients(f)
        if r.is_zero():
            raise NotDiagonalizableByThisTransform(
                "r = 0 for both the form and its variable swap"
            )
    big_d = s * s - r * t
    root = sqrt_in_field(big_d)
    if root is None:
        raise SquareRootAbsent(f"sqrt of {big_d} (= -Delta/108) not in {f.field}")
    h = GL2Element(f.field, (root + s, root - s, -r, r))
    diag = act_gl2(h, f)
    if not diag.is_diagonal():
        raise NotDiagonalizableByThisTransform("calibrated transform failed to diagonalize")
    return g.mul(h), diag


# -- stabilizers --------------------------------------------------------------


class StabilizerResult:
    __slots__ = ("form", "kind", "elements")

    def __init__(self, form, kind, elements):
        self.form = form
        self.kind = kind
        self.elements = elements

    @property
    def order(self):
        return len(self.elements)

    @property
    def structure(self):
        """Isomorphism type for the diagonal classification, else the order."""
        if self.kind == "diagonal-formula":
            return "(Z/3 x Z/3) : Z/2" if self.order == 18 else "Z/3 x Z/3"
        return f"order-{self.order}"

    def to_json(self):
        return {
            "kind": self.kind,
            "order": self.order,
            "structure": self.structure,
            "elements": [g.to_json() for g in self.elements],
        }


def stabilizer(f: BinaryCubicForm, budget: int | None = None) -> StabilizerResult:
    """Explicit stabilizer of f in GL2(k).

    Diagonal (p, 0, 0, r): the nine diag(u, v) with u, v cube roots of 1,
    plus nine antidiagonals (0, u*l; v/l, 0) whenever l^3 = r/p has a root
    in k (equivalently p/r is a cube). Non-diagonal forms are enumerated
    exhaustively over a prime field and unsupported over Q / Q(w); the scan
    visits p^4 matrices and raises BudgetExceeded before it starts when
    that exceeds the budget (default DEFAULT_SCAN_BUDGET, which admits
    every p <= 31).
    """
    f.require_nondegenerate()
    field = f.field
    if f.is_diagonal():
        roots = field.cube_roots_of_unity()
        elements = [GL2Element(field, (u, 0, 0, v)) for u in roots for v in roots]
        lam = cube_root_in_field(f.coeffs[3] / f.coeffs[0])
        if lam is not None:
            inv = lam.inverse()
            elements += [
                GL2Element(field, (0, u * lam, v * inv, 0)) for u in roots for v in roots
            ]
        return StabilizerResult(f, "diagonal-formula", elements)
    if field.kind != "Fp":
        raise UnsupportedField("non-diagonal stabilizers only enumerable over Fp")
    p = field.p
    budget = DEFAULT_SCAN_BUDGET if budget is None else budget
    if p**4 > budget:
        raise BudgetExceeded(f"the stabilizer scan visits {p}^4 matrices, over budget {budget}")
    raw = tuple(c.val for c in f.coeffs)
    # a singular matrix sends f to a form with zero discriminant, so every
    # matrix fixing the nondegenerate f is invertible
    elements = [
        GL2Element(field, g)
        for g in itertools.product(range(p), repeat=4)
        if _act_raw(g, raw, p) == raw
    ]
    return StabilizerResult(f, "enumerated", elements)


def gl2_order(p: int) -> int:
    return (p * p - 1) * (p * p - p)


# -- orbit machinery over F_p ---------------------------------------------------


def _primitive_root(p: int) -> int:
    factors = []
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise AssertionError("no primitive root found")


def _gl2_generators(p: int):
    return [(1, 1, 0, 1), (1, 0, 1, 1), (_primitive_root(p), 0, 0, 1)]


class Orbit:
    __slots__ = ("field", "representative", "size", "stabilizer_order", "delta", "delta_class6")

    def __init__(self, field, representative, size):
        self.field = field
        self.representative = representative
        self.size = size
        total = gl2_order(field.p)
        if total % size:
            raise AssertionError("orbit size does not divide |GL2|")
        self.stabilizer_order = total // size
        rep = BinaryCubicForm(field, representative)
        self.delta = rep.discriminant()
        self.delta_class6 = (
            sixth_power_class_token(self.delta) if not self.delta.is_zero() else None
        )

    def representative_form(self) -> BinaryCubicForm:
        return BinaryCubicForm(self.field, self.representative)


def _orbit_raw(f0: tuple, p: int, with_witness=False):
    """BFS orbit of a raw tuple; optionally track a matrix per member."""
    gens = _gl2_generators(p)
    witness = {f0: (1, 0, 0, 1)} if with_witness else None
    seen = {f0}
    frontier = [f0]
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = _act_raw(g, f, p)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
                    if with_witness:
                        # act(g, act(G, f0)) = act(G*g, f0)
                        witness[h] = tuple(x % p for x in _mat_mul(witness[f], g))
        frontier = nxt
    return seen, witness


def orbit_enumerate(field: FieldSpec, nondegenerate_only: bool = True, budget: int | None = None):
    """Partition forms over F_p into GL2-orbits (BFS on generator actions).

    The scan and the BFS each visit a form once, so the budget (default
    DEFAULT_SCAN_BUDGET, which admits every p <= 31) bounds the p^4 forms;
    BudgetExceeded is raised before the scan when p^4 exceeds it.
    """
    if field.kind != "Fp":
        raise UnsupportedField("orbit enumeration needs a finite field")
    p = field.p
    budget = DEFAULT_SCAN_BUDGET if budget is None else budget
    if p**4 > budget:
        raise BudgetExceeded(f"the orbit scan visits {p}^4 forms, over budget {budget}")
    remaining = {
        f
        for f in itertools.product(range(p), repeat=4)
        if not nondegenerate_only or _delta(f) % p
    }
    remaining.discard((0, 0, 0, 0))  # the zero tuple is not a cubic form
    orbits = []
    while remaining:
        seed = min(remaining)
        members, _ = _orbit_raw(seed, p)
        # orbits are closed within the (non)degenerate stratum: Delta scales
        # by det^6, so BFS never leaves `remaining`
        remaining -= members
        orbits.append(Orbit(field, min(members), len(members)))
    orbits.sort(key=lambda o: o.representative)
    return orbits


def orbit_equivalent(f: BinaryCubicForm, g: BinaryCubicForm):
    """(answer, witness): answer True/False, or None for Unknown.

    Over F_p: decided by orbit BFS with a transformation witness. Over
    Q / Q(w): False if the sixth-power class of the discriminant ratio or
    the diagonalizability class separates; True (with witness) when the
    diagonalize-then-match search finds a transform; None otherwise.
    """
    if f.field != g.field:
        raise FieldMismatch("forms over different fields")
    f.require_nondegenerate()
    g.require_nondegenerate()
    field = f.field
    if field.kind == "Fp":
        raw_f = tuple(c.val for c in f.coeffs)
        raw_g = tuple(c.val for c in g.coeffs)
        members, witness = _orbit_raw(raw_f, field.p, with_witness=True)
        if raw_g not in members:
            return False, None
        w = GL2Element(field, witness[raw_g])
        assert act_gl2(w, f) == g
        return True, w
    ratio = g.discriminant() / f.discriminant()
    try:
        if not nth_power_class(ratio, 6):
            return False, None
    except UnsupportedFieldForTest:
        pass  # irrational Q(w) ratio: the class test abstains; fall through
    diag_f = sqrt_in_field(field.scalar(-108) * f.discriminant()) is not None
    diag_g = sqrt_in_field(field.scalar(-108) * g.discriminant()) is not None
    if diag_f != diag_g:
        return False, None
    if not (diag_f and diag_g):
        return None, None
    gf, df = diagonalize(f)
    gg, dg = diagonalize(g)
    match = _match_diagonal(df, dg)
    if match is None:
        # the cube-root searches over Q and Q(w) are exact (not
        # budget-bounded), and the monomial-matrix criterion is complete
        # for diagonal forms, so a failed match is a proof
        return False, None
    # act(gf, f) = df, act(m, df) = dg  =>  act(gf*m, f) = dg = act(gg, g)
    total = gf.mul(match).mul(gg.inverse())
    assert act_gl2(total, f) == g
    return True, total


def _match_diagonal(df: BinaryCubicForm, dg: BinaryCubicForm):
    """A monomial matrix m with act(m, df) = dg, or None.

    act(diag(u, v), (p,0,0,r)) = (p*u^3, 0, 0, r*v^3);
    act((0,b;c,0), (p,0,0,r)) = (r*c^3, 0, 0, p*b^3).
    """
    p1, r1 = df.coeffs[0], df.coeffs[3]
    p2, r2 = dg.coeffs[0], dg.coeffs[3]
    u = cube_root_in_field(p2 / p1)
    v = cube_root_in_field(r2 / r1)
    if u is not None and v is not None:
        return GL2Element(df.field, (u, 0, 0, v))
    c = cube_root_in_field(p2 / r1)
    b = cube_root_in_field(r2 / p1)
    if b is not None and c is not None:
        return GL2Element(df.field, (0, b, c, 0))
    return None


class OrbitInvariants:
    __slots__ = ("delta", "delta_class6", "has_point")

    def __init__(self, delta, delta_class6, has_point):
        self.delta = delta
        self.delta_class6 = delta_class6
        self.has_point = has_point

    def to_json(self):
        return {
            "delta": self.delta.to_json(),
            "delta_class6": self.delta_class6,
            "has_point": self.has_point,
        }


def orbit_invariants(f: BinaryCubicForm, point_budget: int | None = None) -> OrbitInvariants:
    from . import curves  # local import; curves stays form-agnostic

    f.require_nondegenerate()
    delta = f.discriminant()
    token = sixth_power_class_token(delta)
    point = curves.point_search(f, point_budget)
    return OrbitInvariants(delta, token, point is not None)
