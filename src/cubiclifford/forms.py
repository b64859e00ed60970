"""Binary cubic forms and the GL2 action on them.

A form is the raw coefficient vector (c0, c1, c2, c3) of
c0*u^3 + c1*u^2*v + c2*u*v^2 + c3*v^3. The frozen action is

    (g.f)(u, v) = f(a*u + b*v, c*u + d*v),   g = (a b; c d),

the unique orientation compatible with the generator substitution
x -> a*x + c*y, y -> b*x + d*y on the Clifford side (the cube of a*x + c*y
is f(a, c)). It composes as act(g, act(h, f)) = act(h*g, f), matching
freealg.linear_substitute.

Over F_p (p = 1 mod 3) nothing is enumerated by brute force: an orbit is
named by a complete invariant (``_cell``: the root count on P^1(F_p) and
Delta mod sixth powers), and ``orbit_enumerate`` fills the 13 cells by a
short lex scan. Over every field, stabilizers and equivalences come from one
normal form per orbit (``_normal_form``): diagonal when the Hessian splits,
else (0, a, 0, b) over F_p.
"""

from __future__ import annotations

from functools import partial

from .errors import (
    BudgetExceeded,
    DegenerateForm,
    FieldMismatch,
    SingularMatrix,
    SquareRootAbsent,
    UnsupportedField,
)
from .fields import (
    DEFAULT_SCAN_BUDGET,
    FieldSpec,
    Scalar,
    arith,
    cube_root_in_field,
    form_discriminant,
    form_value,
    hessian,
    lone_root,
    nth_power_class,
    root_count,
    sixth_power_class_token,
    sqrt_in_field,
    triple_root_class,
)


class BinaryCubicForm:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs):
        self.field = field
        cs = tuple(field.scalar(c) for c in coeffs)
        if len(cs) != 4:
            raise FieldMismatch("a binary cubic form has 4 coefficients")
        self.coeffs = cs

    def discriminant(self) -> Scalar:
        return self.field.scalar(form_discriminant([arith(c) for c in self.coeffs]))

    def is_nondegenerate(self) -> bool:
        return not self.discriminant().is_zero()

    def require_nondegenerate(self) -> Scalar:
        """Delta, which callers reuse; DegenerateForm when it vanishes."""
        delta = self.discriminant()
        if delta.is_zero():
            raise DegenerateForm(f"discriminant of {self} vanishes")
        return delta

    def evaluate(self, u, v) -> Scalar:
        """f(u, v) for u, v in the field: Scalars, or what ``field.scalar`` takes."""
        field = self.field
        u, v = (arith(field.scalar(x)) for x in (u, v))
        return field.scalar(form_value([arith(c) for c in self.coeffs], u, v))

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
        self.det = field.scalar(arith(a) * arith(d) - arith(b) * arith(c))
        if self.det.is_zero():
            raise SingularMatrix(f"det of {entries} is zero")

    @classmethod
    def _of_scalars(cls, field, a, b, c, d, det):
        """The element whose entries and nonzero det are these Scalars of
        ``field``, taken as they are: nothing is coerced or checked."""
        g = object.__new__(cls)
        g.field, g.a, g.b, g.c, g.d, g.det = field, a, b, c, d, det
        return g

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
        entries = _mat_mul(self.entries(), other.entries())  # det(gh) = det(g)*det(h)
        return GL2Element._of_scalars(self.field, *entries, self.det * other.det)

    def inverse(self) -> "GL2Element":
        inv = self.det.inverse()
        a, b, c, d = self.entries()
        return GL2Element._of_scalars(self.field, d * inv, -b * inv, -c * inv, a * inv, inv)

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


# The formulas below, like those of ``fields``, take entry and coefficient
# tuples over any ring: raw integers (reduced mod p by the callers that
# enumerate over F_p) or Scalars (int * Scalar coerces); the methods above
# pass ``fields.arith`` of their Scalars, residues over F_p and Scalars over
# Q and Q(w).


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


def act_gl2(g: GL2Element, f: BinaryCubicForm) -> BinaryCubicForm:
    """The form f(a*u + b*v, c*u + d*v), on residues over F_p and on
    Scalars over Q and Q(w) (``fields.arith``)."""
    if g.field != f.field:
        raise FieldMismatch("matrix and form fields differ")
    entries, coeffs = ([arith(x) for x in xs] for xs in (g.entries(), f.coeffs))
    return BinaryCubicForm(f.field, _act(entries, coeffs))


# -- diagonalization ---------------------------------------------------------


def _split(f: BinaryCubicForm):
    """(g, d) with act_gl2(g, f) = d diagonal for a nondegenerate f, or None
    when sqrt(D) is not in k: the one place the Hessian transform is built.

    Transform: u -> (sqrt(D)+s)u' + (sqrt(D)-s)v', v -> -r*u' + r*v' with
    (r, s, t) = -(h0, h1/2, h2)/9 (Hessian/36 = r*u^2 + 2*s*u*v + t*v^2) and
    D = s^2 - r*t = (h1^2 - 4*h0*h2)/18^2 = -Delta/108; the alternative
    normalization -108*Delta does not diagonalize. sqrt(D) decides the split
    before any transform is built. If r = 0, the variables are swapped first,
    which keeps D and swaps h0 and h2; then r != 0. Proof: r = 0 for both
    means c1^2 = 3*c0*c2 and c2^2 = 3*c1*c3. c0 = 0 forces c1 = c2 = 0, a
    diagonal f (returned first). Else c2 = c1^2/(3*c0) and
    c1*(c1^3/(9*c0^2) - 3*c3) = 0: c1 = 0 makes f diagonal, and
    c3 = c1^3/(27*c0^2) makes f = c0*(u + c1/(3*c0)*v)^3, with Delta = 0.
    """
    field = f.field
    if f.is_diagonal():
        return GL2Element.identity(field), f
    h0, h1, h2 = hessian([arith(c) for c in f.coeffs])
    root = sqrt_in_field(field.scalar(h1 * h1 - 4 * h0 * h2) / 324)
    if root is None:
        return None
    swapped = field.scalar(h0).is_zero()
    r, s = field.scalar(h2 if swapped else h0) / -9, field.scalar(h1) / -18
    g = GL2Element(field, (root + s, root - s, -r, r))
    if swapped:  # act(g, act(swap, f)) = act(swap*g, f)
        g = GL2Element.swap(field).mul(g)
    diag = act_gl2(g, f)
    if not diag.is_diagonal():
        raise AssertionError(f"the calibrated transform {g} carries {f} to {diag}, not diagonal")
    return g, diag


def diagonalize(f: BinaryCubicForm):
    """(g, d) with act_gl2(g, f) = d diagonal, by the Hessian split
    (``_split``); SquareRootAbsent when sqrt(-Delta/108) is not in k."""
    delta = f.require_nondegenerate()
    split = _split(f)
    if split is None:
        raise SquareRootAbsent(f"sqrt of {-delta / 108} (= -Delta/108) not in {f.field}")
    return split


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
        """The isomorphism type of a diagonal form's stabilizer of order 18 or
        9, else the order."""
        if self.kind == "diagonal-formula" and self.order in (9, 18):
            return "(Z/3 x Z/3) : Z/2" if self.order == 18 else "Z/3 x Z/3"
        return f"order-{self.order}"

    def to_json(self):
        return {
            "kind": self.kind,
            "order": self.order,
            "structure": self.structure,
            "elements": [g.to_json() for g in self.elements],
        }


def stabilizer(f: BinaryCubicForm) -> StabilizerResult:
    """Explicit stabilizer of f in GL2(k).

    Diagonal (p, 0, 0, r): the diag(u, v) with u, v cube roots of 1, then,
    whenever l^3 = r/p has a root in k (p/r a cube), the antidiagonals
    (0, u*l; v/l, 0). Any other f is carried by some g to its normal form n
    (``_normal_form``), so its stabilizer is g*Stab(n)*g^-1: conjugated on
    ``fields.arith`` values, checked to fix f, and sorted by the entries'
    values, so the list does not depend on g. Its ``kind`` keeps the legacy
    label "enumerated". Where f has no normal form (over Q or Q(w), a
    Hessian that does not split) it raises UnsupportedField.
    """
    f.require_nondegenerate()
    field = f.field
    if f.is_diagonal():
        elements = [GL2Element(field, e) for e in _normal_stabilizer(f)]
        return StabilizerResult(f, "diagonal-formula", elements)
    normal = _normal_form(f)
    if normal is None:
        raise UnsupportedField(f"the Hessian of {f} does not split over {field}")
    g, n = normal
    m = a, b, c, d = tuple(arith(e) for e in g.entries())
    k = arith(g.det.inverse())
    inv = (d * k, -b * k, -c * k, a * k)
    raw = tuple(arith(x) for x in f.coeffs)
    mod = (lambda x: x % field.p) if field.p else (lambda x: x)
    # act(g, f) = n, so act(g*s*g^-1, f) = act(g^-1, act(s, n)) = f for s in Stab(n)
    conjugates = [tuple(map(mod, _mat_mul(_mat_mul(m, s), inv))) for s in _normal_stabilizer(n)]
    if any(tuple(map(mod, _act(h, raw))) != raw for h in conjugates):
        raise AssertionError(f"a conjugated stabilizer element moves {f}")
    # reduced residues become Scalars as they are; over Q and Q(w) entries are Scalars
    wrap = partial(Scalar, field) if field.p else field.scalar
    rows = [tuple(map(wrap, (a, b, c, d, mod(a * d - b * c)))) for a, b, c, d in conjugates]
    # by value: over Q and Q(w) the coordinates, not the raw ((a, b), den)
    rows.sort(key=lambda row: tuple(e.val if field.p else e.fractions() for e in row[:4]))
    return StabilizerResult(f, "enumerated", [GL2Element._of_scalars(field, *row) for row in rows])


def gl2_order(p: int) -> int:
    return (p * p - 1) * (p * p - p)


# -- orbits over F_p from the complete invariant ----------------------------------


# |Stab| of a nondegenerate form over F_p by its root count r on P^1
_NONDEGENERATE_STABILIZER = {3: 18, 0: 9, 1: 6}


def _cell(raw, delta: Scalar):
    """(key, |Stab|) of the orbit over F_p of the nonzero raw form of discriminant delta.

    The key is a complete invariant of the GL2(F_p)-orbit (see
    ``orbit_enumerate``): (r, class of Delta mod sixth powers) for a
    nondegenerate form, ("triple", cube class of the nonzero one of c0, c3)
    for a cube lambda*L^3, and ("double",) for L^2*M.

    r, the number of roots on P^1(F_p), comes from Delta and one cubic
    character by Cardano's resolvent (``fields.root_count``, where the
    proof is): Delta is a non-square exactly when r = 1.
    """
    p = delta.field.p
    if delta:
        r = root_count(raw, delta.val, p)
        return (r, sixth_power_class_token(delta)), _NONDEGENERATE_STABILIZER[r]
    cube_class = triple_root_class(raw, p)
    if cube_class is None:
        return ("double",), p - 1
    return ("triple", cube_class), 3 * p * (p - 1)


class Orbit:
    __slots__ = ("field", "representative", "size", "stabilizer_order", "delta", "delta_class6")

    def __init__(self, field, representative, stabilizer_order, delta, delta_class6):
        self.field = field
        self.representative = representative
        self.stabilizer_order = stabilizer_order
        total = gl2_order(field.p)
        if total % stabilizer_order:
            raise AssertionError("stabilizer order does not divide |GL2|")
        self.size = total // stabilizer_order
        self.delta = delta
        self.delta_class6 = delta_class6

    def representative_form(self) -> BinaryCubicForm:
        return BinaryCubicForm(self.field, self.representative)


def orbit_enumerate(field: FieldSpec, nondegenerate_only: bool = True, budget: int | None = None):
    """The GL2-orbits of nonzero forms over F_p, each with its lex-least member.

    The orbit of a form is fixed by its cell (``_cell``); with p = 1 (mod 3)
    there are 13, with |orbit| = |GL2(F_p)| / |Stab|:

        nondegenerate, r roots on P^1(F_p), Delta mod F_p*^6:
          r = 3, Delta a square      3 cells   |Stab| = 18
          r = 0, Delta a square      3 cells   |Stab| = 9
          r = 1, Delta a non-square  3 cells   |Stab| = 6
        lambda*L^3, lambda mod cubes   3 cells   |Stab| = 3p(p - 1)
        L^2*M                          1 cell    |Stab| = p - 1

    (A squarefree cubic with r = 1 has a quadratic factor, so Delta is not
    a square; with r = 0 or 3 it is.) The scan classifies forms in lex order
    and stops once every wanted cell is filled, so the first form of a cell
    is its least member. It skips a block of forms only when every wanted
    cell the block can reach is filled, so no cell's least member is
    skipped:

    * (0, *, *, *): f(1, 0) = c0 = 0, so (1:0) is a root: r >= 1 or Delta = 0.
    * (0, 0, *, *): v^2 divides f, a double root at (1:0), so Delta = 0.
    * (0, 0, 0, *): c3*v^3, a cube of class c3.
    * (1, 0, 0, *): u^3 (the cube of class 1) or u^3 + c3*v^3 with
      Delta = -27*c3^2 = (-3)^3*c3^2, whose class mod sixth powers is that
      of c3^2, because -3 is a square mod p. So Delta is a square in the
      cube class of c3, and r = 3 exactly when -c3, hence c3, is a cube:
      only (3, class 1) and the two r = 0 cells of a non-sixth-power Delta
      can be reached.

    Every classified form counts against the budget (default
    DEFAULT_SCAN_BUDGET); one more raises BudgetExceeded.
    """
    if not field.p:
        raise UnsupportedField("orbit enumeration needs a finite field")
    p = field.p
    budget = DEFAULT_SCAN_BUDGET if budget is None else budget
    # Delta mod sixth powers is a square exactly when its token is a cube root
    # of 1; the cube classes have the same tokens
    tokens = [w.val for w in field.cube_roots_of_unity()]
    square = {(r, t) for r in (0, 3) for t in tokens}
    rooted = {(3, t) for t in tokens} | {(1, p - t) for t in tokens}
    cubes = {("triple", t) for t in tokens}
    degenerate = cubes | {("double",)}
    wanted = square | rooted | (set() if nondegenerate_only else degenerate)
    # lex index n = c0*p^3 + c1*p^2 + c2*p + c3: [start, end) and the cells reachable there
    blocks = (
        (0, p**3, rooted | degenerate),
        (0, p**2, degenerate),
        (0, p, cubes),
        (p**3, p**3 + p, {("triple", 1), (3, 1)} | {(0, t) for t in tokens[1:]}),
    )
    orbits = {}
    classified = 0
    n = 1  # (0, 0, 0, 0) is not a cubic form
    while len(orbits) < len(wanted):
        for start, end, reachable in blocks:
            if start <= n < end and reachable & wanted <= orbits.keys():
                n = end
                break
        else:
            classified += 1
            if classified > budget:
                raise BudgetExceeded(f"the orbit scan needs more than its budget of {budget} forms")
            raw = (n // p**3, n // p**2 % p, n // p % p, n % p)
            delta = Scalar(field, form_discriminant(raw) % p)
            key, order = _cell(raw, delta)
            if key in wanted and key not in orbits:
                orbits[key] = Orbit(field, raw, order, delta, key[1] if delta else None)
            n += 1
    return sorted(orbits.values(), key=lambda o: o.representative)


def _normal_form(f: BinaryCubicForm):
    """(g, n), a GL2Element and a BinaryCubicForm with act_gl2(g, f) = n, or
    None, for a nondegenerate f over any field.

    The split is decided here, once, by ``_split``: when D = -Delta/108 =
    -3*Delta/18^2 is a square, the Hessian splits (over F_p, where -3 is a
    square, Delta a square: 0 or 3 roots on P^1(F_p)) and n is diagonal.
    Otherwise, over F_p (one root): g sends the root, a trace from F_{p^2}
    (``fields.lone_root``), to (1:0), making c0 = 0, then
    u -> u - c2/(2*c1)*v completes the square: n = (0, a, 0, b). Over Q and
    Q(w): None.
    """
    field = f.field
    split, p = _split(f), field.p
    if split is not None or not p:
        return split
    raw = tuple(c.val for c in f.coeffs)
    x, y = lone_root(raw, p)
    # f(a*u + b*v, c*u + d*v) has c0 = f(a, c) = 0 for (a, c) = (x, y)
    g = (x, 1, y, 0) if y else (1, 0, 0, 1)
    _, c1, c2, _ = _act(g, raw)
    g = tuple(e % p for e in _mat_mul(g, (1, -c2 * pow(2 * c1, -1, p), 0, 1)))
    n = tuple(c % p for c in _act(g, raw))
    if n[0] or n[2]:
        raise AssertionError(f"{g} carries {f} to {n}, not to a (0, a, 0, b)")
    return GL2Element(field, g), BinaryCubicForm(field, n)


def _normal_stabilizer(n: BinaryCubicForm):
    """Stab(n) for n diagonal (the formula in ``stabilizer``) or (0, a, 0, b),
    as entry tuples of ``fields.arith`` values.

    act(diag(x, y), (0, a, 0, b)) = (0, a*x^2*y, 0, b*y^3), so the six
    diag(+-y, y) with y^3 = 1 fix (0, a, 0, b); that is all of its
    stabilizer, of order 6 (r = 1).
    """
    roots = n.field.cube_roots_of_unity()
    if not n.is_diagonal():
        return [(arith(s * y), 0, 0, arith(y)) for y in roots for s in (1, -1)]
    elements = [(arith(u), 0, 0, arith(v)) for u in roots for v in roots]
    lam = cube_root_in_field(n.coeffs[3] / n.coeffs[0])
    if lam is not None:
        inv = lam.inverse()
        elements += [(0, arith(u * lam), arith(v * inv), 0) for u in roots for v in roots]
    return elements


def orbit_equivalent(f: BinaryCubicForm, g: BinaryCubicForm):
    """(answer, witness): answer True/False, or None for Unknown.

    First the invariant, False on a mismatch: the cell over F_p (``_cell``,
    complete), the class of Delta_g/Delta_f mod sixth powers over Q / Q(w),
    both from the Delta that ``require_nondegenerate`` returned. Then the
    normal forms (``_normal_form``, where each split is decided), None
    without them, are matched by ``_match_diagonal`` or ``_match_rooted``,
    each complete. A failed match is False over Q / Q(w), where the
    cube-root searches are exact, and cannot happen over F_p. Every witness
    is checked by ``act_gl2``.
    """
    if f.field != g.field:
        raise FieldMismatch("forms over different fields")
    delta_f, delta_g = f.require_nondegenerate(), g.require_nondegenerate()
    field = f.field
    if field.p:
        raw_f, raw_g = (tuple(c.val for c in h.coeffs) for h in (f, g))
        if _cell(raw_f, delta_f) != _cell(raw_g, delta_g):
            return False, None
    elif not nth_power_class(delta_g / delta_f, 6):
        return False, None
    # -3*Delta_g = -3*Delta_f*t^6 is a square iff -3*Delta_f is: both None or of one kind
    normal_f = _normal_form(f)
    if normal_f is None:
        return None, None
    (gf, df), (gg, dg) = normal_f, _normal_form(g)
    match = _match_diagonal(df, dg) if df.is_diagonal() else _match_rooted(df, dg)
    if match is None:
        if field.p:
            raise AssertionError(f"{f} and {g} share their invariants but no transform matched")
        return False, None
    # act(gf, f) = df, act(m, df) = dg  =>  act(gf*m, f) = dg = act(gg, g)
    total = gf.mul(match).mul(gg.inverse())
    if act_gl2(total, f) != g:
        raise AssertionError(f"the witness {total} does not carry {f} to {g}")
    return True, total


def _match_diagonal(df: BinaryCubicForm, dg: BinaryCubicForm):
    """A monomial matrix m with act(m, df) = dg, or None.

    act(diag(u, v), (p,0,0,r)) = (p*u^3, 0, 0, r*v^3);
    act((0,b;c,0), (p,0,0,r)) = (r*c^3, 0, 0, p*b^3).
    Complete: an equivalence of diagonal forms permutes the roots (1:0)
    and (0:1) of their Hessians, so it is monomial.
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


def _match_rooted(nf: BinaryCubicForm, ng: BinaryCubicForm):
    """A diagonal m with act(m, nf) = ng for two forms (0, a, 0, b), or None.

    act(diag(x, y), (0, a, 0, b)) = (0, a*x^2*y, 0, b*y^3): y is a cube
    root of b'/b and x^2 = a'/(a*y), tried for all three y. Complete: an
    equivalence fixes (1:0), the one rational root, so it is upper
    triangular, and keeping c2 = 0 makes it diagonal.
    """
    field = nf.field
    a1, b1 = nf.coeffs[1], nf.coeffs[3]
    a2, b2 = ng.coeffs[1], ng.coeffs[3]
    y0 = cube_root_in_field(b2 / b1)
    if y0 is None:
        return None
    for w in field.cube_roots_of_unity():
        x = sqrt_in_field(a2 / (a1 * y0 * w))
        if x is not None:
            return GL2Element(field, (x, 0, 0, y0 * w))
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

    delta = f.require_nondegenerate()
    point = curves.point_search(f, point_budget)
    return OrbitInvariants(delta, sixth_power_class_token(delta), point is not None)
