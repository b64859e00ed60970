"""Sparse term maps over an exact scalar field: commutative polynomials here,
and the free algebra k<x, y> in ``freealg``.

Both rings store an element as one map from monomial to raw coefficient and
share the arithmetic and the printer of ``Terms``; they differ only in their
monomials. Coefficients are not boxed ``Scalar``s: over F_p a coefficient is
its residue, and over Q and Q(w) it is an integer pair (a, b) read over one
denominator per element, FLINT's fmpq_poly layout
(https://flintlib.org/doc/fmpq_poly.html). A product accumulates unreduced
integers and normalizes once per output, and the rank-18 fold kernel
(``gca.Rank18Algebra._fold``) sums all its products into an output
coordinate the same way (``Terms._dot``). ``Scalar`` stays the type at the
boundary: constructors and ``scale`` take Scalars, and ``terms`` is a
read-only {monomial: Scalar} view.

``SPolynomial`` is the commutative ring with exponent tuples as monomials.
It hosts the coefficient ring S = k[X3, AL, BE, Y3, GA] of the rank-18
module structure (X3, Y3 are the central generator cubes, AL/BE the two
polarization sums, GA the degree-4 central element), the center variable
S, and the univariate k[GA] coefficients of the specialized algebras.

Canonical printing orders polynomial terms by total degree descending, then
exponent tuple descending (first listed variable most significant).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .errors import FieldMismatch, MissingAssignment, UnknownSymbol, VariableMismatch
from ._parsing import ExprParser
from .fields import RATIONALS, FieldSpec, Scalar, power

GCA_VARS = ("X3", "AL", "BE", "Y3", "GA")
CENTER_VARS = ("X3", "AL", "BE", "Y3", "GA", "S")
GAMMA_VARS = ("GA",)

_ZERO = Fraction(0)


def raw_scalar(c: Scalar):
    """(numerator, denominator) of ``c`` in the raw layout of ``Terms``:
    (residue, 1) over F_p, and ((a, b), den) with c = (a + b*w)/den and
    gcd(a, b, den) = 1 over Q and Q(w) (b = 0 over Q)."""
    v = c.val
    if c.field.p:
        return v, 1
    a, b = (v, _ZERO) if c.field.kind == RATIONALS else v
    den = lcm(a.denominator, b.denominator)
    return (a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)), den


class ScalarView(Mapping):
    """The read-only {monomial: Scalar} view of a term map's coefficients."""

    __slots__ = ("_element",)

    def __init__(self, element):
        self._element = element

    def __getitem__(self, mono):
        return self._element._scalar(self._element.raw[mono])

    def __iter__(self):
        return iter(self._element.raw)

    def __len__(self):
        return len(self._element.raw)


class Terms:
    """A sparse k-linear combination of monomials with raw coefficients.

    Over F_p, ``raw`` maps each monomial to its residue in [1, p) and
    ``den`` is 1. Over Q and Q(w), ``raw`` maps each monomial to an integer
    pair (a, b), not both 0, standing for (a + b*w)/den (b = 0 over Q);
    ``den`` is positive and the gcd of ``den`` and all the a's and b's is 1.
    Both layouts are canonical, so ``==`` and ``hash`` compare ``raw`` and
    ``den``. ``terms`` is the read-only {monomial: Scalar} view.

    A subclass fixes the monomials by supplying ``_mono_mul`` (the product
    of two monomials), ``_unit()`` (the unit monomial), ``_sorted_terms()``
    (the print order) and ``_mono_text`` (the text of a non-unit monomial).
    Operands must share the field and the ``variables`` of the ring.
    """

    __slots__ = ("field", "variables", "raw", "den")

    def __init__(self, field: FieldSpec, variables, terms: dict):
        """``terms`` maps monomials to Scalars of ``field`` (or to values
        that ``field.scalar`` accepts)."""
        scalars = [(m, field.scalar(c)) for m, c in terms.items()]
        self.field = field
        self.variables = variables
        if field.p:
            self.raw, self.den = {m: c.val for m, c in scalars if c.val}, 1
            return
        nums = [(m, raw_scalar(c)) for m, c in scalars if not c.is_zero()]
        den = lcm(*(d for _, (_, d) in nums))
        self.raw = {m: (a * (den // d), b * (den // d)) for m, ((a, b), d) in nums}
        self.den = den

    @classmethod
    def _canonical(cls, field, variables, acc: dict, den: int = 1):
        """The element whose raw coefficients are ``acc`` over ``den``:
        unreduced ints over F_p (where ``den`` is 1), integer pairs over Q
        and Q(w)."""
        p = field.p
        if p:
            raw = {m: r for m, v in acc.items() if (r := v % p)}
        else:
            raw = {m: v for m, v in acc.items() if v[0] or v[1]}
            if den != 1:
                g = den
                for a, b in raw.values():
                    g = gcd(g, a, b)
                    if g == 1:
                        break
                if g != 1:
                    den //= g
                    raw = {m: (a // g, b // g) for m, (a, b) in raw.items()}
        new = object.__new__(cls)
        new.field = field
        new.variables = variables
        new.raw = raw
        new.den = den
        return new

    def _make(self, acc: dict, den: int = 1):
        """An element of the same ring with raw coefficients ``acc`` over ``den``."""
        return self._canonical(self.field, self.variables, acc, den)

    def _scalar(self, v) -> Scalar:
        """The Scalar of the raw coefficient ``v``."""
        field = self.field
        if field.p:
            return Scalar(field, v)
        if field.kind == RATIONALS:
            return Scalar(field, Fraction(v[0], self.den))
        return Scalar(field, (Fraction(v[0], self.den), Fraction(v[1], self.den)))

    @property
    def terms(self) -> ScalarView:
        return ScalarView(self)

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.variables != other.variables:
            raise VariableMismatch(f"{self.variables} vs {other.variables}")

    def is_zero(self):
        return not self.raw

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.field == other.field
            and self.variables == other.variables
            and self.den == other.den
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((self.field, self.variables, frozenset(self.raw.items()), self.den))

    # -- the two kernels ------------------------------------------------------

    def _lincomb(self, items, den: int = 1):
        """Sum of c * t over the (c, t) in ``items``, divided by ``den``, in
        one raw accumulation with one normalization. Each c is a raw scalar
        numerator (see ``raw_scalar``), each t an element of this ring."""
        acc = {}
        get = acc.get
        if self.field.p:
            for c, t in items:
                for m, a in t.raw.items():
                    acc[m] = get(m, 0) + c * a
            return self._make(acc)
        common = lcm(*(t.den for _, t in items))
        for (c, d), t in items:
            f = common // t.den
            c *= f
            d *= f
            for m, (a, b) in t.raw.items():
                bd = b * d
                old = get(m)
                if old is None:
                    acc[m] = (a * c - bd, a * d + b * c - bd)
                else:
                    acc[m] = (old[0] + a * c - bd, old[1] + a * d + b * c - bd)
        return self._make(acc, common * den)

    def _dot(self, pairs):
        """Sum of u * v over the (u, v) in ``pairs``, elements of this ring,
        in one raw accumulation with one normalization."""
        mono_mul = self._mono_mul
        acc = {}
        get = acc.get
        if self.field.p:
            for u, v in pairs:
                vitems = v.raw.items()
                for m1, a in u.raw.items():
                    for m2, c in vitems:
                        m = mono_mul(m1, m2)
                        acc[m] = get(m, 0) + a * c
            return self._make(acc)
        common = lcm(*(u.den * v.den for u, v in pairs))
        for u, v in pairs:
            uitems, vitems = u.raw.items(), v.raw.items()
            f = common // (u.den * v.den)
            if f != 1:  # bring the shorter operand onto the common denominator
                if len(uitems) < len(vitems):
                    uitems = [(m, (f * a, f * b)) for m, (a, b) in uitems]
                else:
                    vitems = [(m, (f * a, f * b)) for m, (a, b) in vitems]
            for m1, (a, b) in uitems:
                for m2, (c, d) in vitems:
                    m = mono_mul(m1, m2)
                    bd = b * d
                    old = get(m)
                    if old is None:
                        acc[m] = (a * c - bd, a * d + b * c - bd)
                    else:
                        acc[m] = (old[0] + a * c - bd, old[1] + a * d + b * c - bd)
        return self._make(acc, common)

    def _units(self):
        """The raw numerators of 1 and -1."""
        return (1, -1) if self.field.p else ((1, 0), (-1, 0))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        one = self._units()[0]
        return self._lincomb(((one, self), (one, other)))

    def __neg__(self):
        return self._lincomb(((self._units()[1], self),))

    def __sub__(self, other):
        self._check(other)
        one, minus = self._units()
        return self._lincomb(((one, self), (minus, other)))

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        self._check(other)
        return self._dot(((self, other),))

    def scale(self, c: Scalar):
        if c.field != self.field:
            raise FieldMismatch("scalar from a different field")
        num, den = raw_scalar(c)
        return self._lincomb(((num, self),), den)

    def __pow__(self, n: int):
        return power(self, n, self._make({self._unit(): self._units()[0]}))

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if not self.raw:
            return "0"
        unit = self._unit()
        parts = []
        for mono, coeff in self._sorted_terms():
            cs = str(coeff)
            if coeff.is_composite_text():
                cs = f"({cs})"
            if mono == unit:
                text = cs
            elif cs == "1":
                text = self._mono_text(mono)
            elif cs == "-1":
                text = f"-{self._mono_text(mono)}"
            else:
                text = f"{cs}*{self._mono_text(mono)}"
            if not parts:
                parts.append(text)
            elif text.startswith("-"):
                parts.append(f" - {text[1:]}")
            else:
                parts.append(f" + {text}")
        return "".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class SPolynomial(Terms):
    """A commutative polynomial in ``variables``; monomials are exponent
    tuples in the order of ``variables``."""

    __slots__ = ()

    # bound in this class's own namespace, where per-class instrumentation
    # (bench/tracer.py) replaces them
    __add__, __sub__, __neg__ = Terms.__add__, Terms.__sub__, Terms.__neg__
    __mul__, __pow__, scale = Terms.__mul__, Terms.__pow__, Terms.scale

    # -- monomials -----------------------------------------------------------

    @staticmethod
    def _mono_mul(e1, e2):
        return tuple(map(add, e1, e2))

    def _unit(self):
        return (0,) * len(self.variables)

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def _mono_text(self, expo):
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(self.variables, expo) if e)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(field, variables=GCA_VARS):
        return SPolynomial(field, variables, {})

    @staticmethod
    def const(field, value, variables=GCA_VARS):
        c = field.scalar(value)
        return SPolynomial(field, variables, {(0,) * len(variables): c})

    @staticmethod
    def variable(field, name, variables=GCA_VARS):
        if name not in variables:
            raise VariableMismatch(f"{name!r} not among {variables}")
        expo = tuple(1 if v == name else 0 for v in variables)
        return SPolynomial(field, variables, {expo: field.one()})

    @staticmethod
    def monomial(field, exponents, coeff, variables=GCA_VARS):
        return SPolynomial(field, variables, {tuple(exponents): field.scalar(coeff)})

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, assignment: dict) -> Scalar:
        """Full evaluation; every variable must be assigned."""
        for v in self.variables:
            if v in assignment and assignment[v].field != self.field:
                raise FieldMismatch(f"assignment for {v!r} is in {assignment[v].field}")
        return self.substitute(assignment, ()).terms.get((), self.field.zero())

    def substitute(self, assignment: dict, keep: tuple[str, ...]) -> "SPolynomial":
        """Evaluate some variables, keeping ``keep`` formal (in their order).

        Over F_p the residues are multiplied unreduced and each output
        coefficient is reduced once."""
        p = self.field.p
        positions = []
        for v in self.variables:
            if v in keep:
                positions.append(("keep", keep.index(v)))
            elif v in assignment:
                positions.append(("eval", assignment[v].val if p else assignment[v]))
            else:
                raise MissingAssignment(f"no value for {v!r}")
        out = {}
        for expo, c in self.raw.items() if p else self.terms.items():
            new_expo = [0] * len(keep)
            for (what, info), e in zip(positions, expo):
                if what == "keep":
                    new_expo[info] += e
                elif e:
                    c = c * info**e
            key = tuple(new_expo)
            acc = out.get(key)
            out[key] = c if acc is None else acc + c
        if p:
            return SPolynomial._canonical(self.field, keep, out)
        return SPolynomial(self.field, keep, out)

    # -- printing / parsing ---------------------------------------------------

    def to_json(self):
        return str(self)

    @staticmethod
    def parse(text: str, field: FieldSpec, variables=GCA_VARS) -> "SPolynomial":
        def symbol(name, pos):
            if name == "w":
                return SPolynomial.const(field, field.omega(), variables)
            if name in variables:
                return SPolynomial.variable(field, name, variables)
            raise UnknownSymbol(f"unknown symbol {name!r}", pos)

        return ExprParser(text, lambda q: SPolynomial.const(field, q, variables), symbol).parse()


def discriminant_polynomial(field: FieldSpec, variables=GCA_VARS) -> SPolynomial:
    """Delta = 18*X3*AL*BE*Y3 - 4*AL^3*Y3 + AL^2*BE^2 - 4*X3*BE^3 - 27*X3^2*Y3^2,
    the expansion the center equation uses."""
    return SPolynomial.parse(
        "18*X3*AL*BE*Y3 - 4*AL^3*Y3 + AL^2*BE^2 - 4*X3*BE^3 - 27*X3^2*Y3^2",
        field,
        variables,
    )
