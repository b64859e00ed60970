"""Sparse term maps over an exact scalar field: commutative polynomials here,
and the free algebra k<x, y> in ``freealg``.

Both rings store an element as one map from monomial to nonzero Scalar and
share the arithmetic and the printer of ``Terms``; they differ only in their
monomials. ``SPolynomial`` is the commutative ring with exponent tuples as
monomials. It hosts the coefficient ring S = k[X3, AL, BE, Y3, GA] of the
rank-18 module structure (X3, Y3 are the central generator cubes, AL/BE the
two polarization sums, GA the degree-4 central element), the center variable
S, and the univariate k[GA] coefficients of the specialized algebras.

Canonical printing orders polynomial terms by total degree descending, then
exponent tuple descending (first listed variable most significant).
"""

from __future__ import annotations

from operator import add

from .errors import FieldMismatch, MissingAssignment, UnknownSymbol, VariableMismatch
from ._parsing import ExprParser
from .fields import FieldSpec, Scalar

GCA_VARS = ("X3", "AL", "BE", "Y3", "GA")
CENTER_VARS = ("X3", "AL", "BE", "Y3", "GA", "S")
GAMMA_VARS = ("GA",)


class Terms:
    """A sparse k-linear combination of monomials: ``terms`` maps each
    monomial to a nonzero Scalar of ``field``.

    A subclass fixes the monomials by supplying ``_mono_mul`` (the product
    of two monomials), ``_unit()`` (the unit monomial), ``_sorted_terms()``
    (the print order) and ``_mono_text`` (the text of a non-unit monomial).
    Operands must share the field and the ``variables`` of the ring.
    """

    __slots__ = ("field", "variables", "terms")

    def __init__(self, field: FieldSpec, variables, terms: dict):
        self.field = field
        self.variables = variables
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    def _like(self, terms: dict):
        """An element of the same ring with these terms, zeros dropped."""
        new = object.__new__(type(self))
        new.field = self.field
        new.variables = self.variables
        new.terms = {m: c for m, c in terms.items() if not c.is_zero()}
        return new

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.variables != other.variables:
            raise VariableMismatch(f"{self.variables} vs {other.variables}")

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.field == other.field
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.variables, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m)
            terms[m] = c if acc is None else acc + c
        return self._like(terms)

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        self._check(other)
        mono_mul = self._mono_mul
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = c1 * c2
                acc = terms.get(m)
                terms[m] = c if acc is None else acc + c
        return self._like(terms)

    def scale(self, c: Scalar):
        if c.field != self.field:
            raise FieldMismatch("scalar from a different field")
        if c.is_zero():
            return self._like({})
        return self._like({m: k * c for m, k in self.terms.items()})

    def __pow__(self, n: int):
        result = self._like({self._unit(): self.field.one()})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
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

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, assignment: dict) -> Scalar:
        """Full evaluation; every variable must be assigned."""
        point = []
        for v in self.variables:
            if v not in assignment:
                raise MissingAssignment(f"no value for {v!r}")
            s = assignment[v]
            if s.field != self.field:
                raise FieldMismatch(f"assignment for {v!r} is in {s.field}")
            point.append(s)
        total = self.field.zero()
        for expo, coeff in self.terms.items():
            term = coeff
            for val, e in zip(point, expo):
                if e:
                    term = term * val**e
            total = total + term
        return total

    def substitute(self, assignment: dict, keep: tuple[str, ...]) -> "SPolynomial":
        """Evaluate some variables, keeping ``keep`` formal (in their order)."""
        positions = []
        for v in self.variables:
            if v in keep:
                positions.append(("keep", keep.index(v)))
            elif v in assignment:
                positions.append(("eval", assignment[v]))
            else:
                raise MissingAssignment(f"no value for {v!r}")
        out = {}
        for expo, coeff in self.terms.items():
            new_expo = [0] * len(keep)
            c = coeff
            for (what, info), e in zip(positions, expo):
                if what == "keep":
                    new_expo[info] += e
                elif e:
                    c = c * info**e
            key = tuple(new_expo)
            acc = out.get(key)
            out[key] = c if acc is None else acc + c
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


def poly_arithmetic(p: SPolynomial, q: SPolynomial, op: str) -> SPolynomial:
    if op == "add":
        return p + q
    if op == "sub":
        return p - q
    if op == "mul":
        return p * q
    raise VariableMismatch(f"unknown op {op!r}")


def discriminant_polynomial(field: FieldSpec, variables=GCA_VARS) -> SPolynomial:
    """Delta = 18*X3*AL*BE*Y3 - 4*AL^3*Y3 + AL^2*BE^2 - 4*X3*BE^3 - 27*X3^2*Y3^2.

    This is the expansion the center equation uses; the variant missing the
    AL^2*BE^2 term that appears once elsewhere fails the s^2 identity.
    """
    return SPolynomial.parse(
        "18*X3*AL*BE*Y3 - 4*AL^3*Y3 + AL^2*BE^2 - 4*X3*BE^3 - 27*X3^2*Y3^2",
        field,
        variables,
    )
