"""Sparse term maps over an exact scalar field: commutative polynomials here,
and the free algebra k<x, y> in ``freealg``.

Both rings store an element as one map from monomial to raw coefficient and
share the class ``Terms``; they differ only in their monomials. In both a
monomial product is ``+``: a word is a ``str`` and a product concatenates,
and a commutative monomial is one packed ``int`` (``pack``) and a product
adds. The unit monomial is falsy in both ("" and 0), and a monomial to the
power n is ``m * n``. Coefficients are not boxed ``Scalar``s: over F_p a
coefficient is its residue, and over Q and Q(w) it is an integer pair
(a, b) read over one denominator per element, FLINT's fmpq_poly layout
(https://flintlib.org/doc/fmpq_poly.html).
A ``Scalar`` holds the same layout, so ``raw_scalar`` only reads it.
``accumulate``, the one multiply-add loop of each layout, sums unreduced
integers into raw maps for ``RawTerms`` and the rank-18 kernel
(``gca.Rank18Algebra``), and ``canonical`` normalizes them once per output.
A third layout, plain integers over den 1 (``p`` = 0), holds the generic
algebra's structure columns and word vectors for every field, as its
structure constants are integers; over Q and Q(w) such an integer map
meets an element's pairs in ``accumulate``'s integer-times-pair case.
``Scalar`` stays the type at the boundary: constructors and ``scale`` take
Scalars, and ``terms`` returns a new {monomial: Scalar} dict.

``Terms`` stores, compares and prints. ``RawTerms`` is the one arithmetic:
a raw map and one denominator, left unnormalized (zeros kept, no common
factor removed) between operations. A sum accumulates into the larger
operand's map, a product with a lone monomial of coefficient 1 only
multiplies monomials, and a product with a constant multiplies none. The
operators of ``Terms`` wrap their operands' maps in ``RawTerms`` values
(a sum copies the map it accumulates into) and normalize the result once,
by ``RawTerms.normalize``; a power is ``RawTerms.__pow__``. Both term-map
parsers (``SPolynomial.parse`` and ``freealg.parse_free_expression``) are
``RawRing.parse``: a text that is a plain sum of monomial terms, as
``Terms.__str__`` prints one, is read in one flat pass (``scan_sum``)
straight into one raw map; any other text runs the shared ``ExprParser``
over ``RawTerms`` values. Either way the finished map is normalized once,
and the work is bounded by ``DEFAULT_SCAN_BUDGET``.

``SPolynomial`` is the commutative ring whose monomials are packed
exponent vectors, one int per monomial with a fixed-width slot per variable
and the first variable most significant, the layout of Monagan and Pearce
("Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007) and of FLINT's fmpz_mpoly. Its constructors take
exponent tuples and ``terms`` returns them, so only ``raw`` sees the ints.
It hosts the coefficient ring S = k[X3, AL, BE, Y3, GA] of the rank-18
module structure (X3, Y3 are the central generator cubes, AL/BE the two
polarization sums, GA the degree-4 central element), the center variable
S, and the univariate k[GA] coefficients of the specialized algebras.

Canonical printing orders polynomial terms by total degree descending, then
exponent tuple descending (first listed variable most significant).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import gcd, lcm
from operator import or_

from .errors import (
    FieldMismatch,
    MissingAssignment,
    NumberTooLarge,
    UnknownSymbol,
    VariableMismatch,
)
from ._parsing import ExprParser, WorkBudget, scan_sum, tokenize
from .fields import DEFAULT_SCAN_BUDGET, FieldSpec, Scalar, pair_scalar, power

GCA_VARS = ("X3", "AL", "BE", "Y3", "GA")
GAMMA_VARS = ("GA",)

SLOT = 32
MAX_EXPONENT = (1 << SLOT - 2) - 1
_SLOT_MASK = (1 << SLOT) - 1
_GUARD = 3 << SLOT - 2


def pack(exponents, n: int) -> int:
    """The packed monomial of an exponent tuple of n variables: exponent k
    in bits [SLOT*(n-1-k), SLOT*(n-k)), so the first variable is most
    significant and packed monomials order as their tuples do.

    The bound. Every packed monomial that a ring value holds has each
    exponent at most MAX_EXPONENT = 2^30 - 1: this function, ``canonical``,
    ``raw_product`` and the monomial power ``RawTerms.__pow__`` raise
    ``NumberTooLarge`` rather than make one above it, and nothing else makes
    monomials. A sum of at most four such monomials has each slot at most
    4*(2^30 - 1) < 2^32 = 2^SLOT, so no slot carries into the next one: the
    sum is the packed tuple of the exponent sums, and an exponent sum is
    above MAX_EXPONENT exactly when one of the two top bits of its slot (the
    guard bits) is set. The package adds at most three before a guard looks:
    two in ``raw_product`` and a fold, three in ``Rank18Algebra.mul``.
    A key of the rank-18 kernel carries the coordinate in one more slot
    above the monomial's, and a block's key its row in the slot above that.
    Those slots hold 0..17, so they never set a guard bit; a fold moves a
    coordinate j to i and a product keeps it, and neither adds more
    monomials than above, so no slot carries into the coordinate."""
    if len(exponents) != n:
        raise VariableMismatch(f"{len(exponents)} exponents for {n} variables")
    m = 0
    for e in exponents:
        if not 0 <= e <= MAX_EXPONENT:
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            raise NumberTooLarge(f"exponent {e} above the bound {MAX_EXPONENT}")
        m = m << SLOT | e
    return m


def unpack(m: int, n: int) -> tuple:
    """The exponent tuple of the packed monomial m of n variables."""
    return tuple(m >> SLOT * k & _SLOT_MASK for k in range(n - 1, -1, -1))


@lru_cache(maxsize=None)
def _guard_bits(slots: int) -> int:
    return sum(_GUARD << SLOT * k for k in range(slots))


def in_bound(raw: dict):
    """Raise ``NumberTooLarge`` if a packed key of the map ``raw`` has an
    exponent above MAX_EXPONENT, which sets a guard bit of its slot
    (``pack`` proves it). When the keys sum to at most MAX_EXPONENT, as the
    small monomials of a univariate ring do, each is one slot under the
    bound; else the guard bits of all of them are read. Keys that are not
    ints, such as words (the monomials of ``freealg``, which have no
    bound), are not read."""
    keys = iter(raw)
    first = next(keys, None)
    if type(first) is not int or first <= MAX_EXPONENT and first + sum(keys) <= MAX_EXPONENT:
        return
    bits = reduce(or_, raw)
    if bits & _guard_bits(-(-bits.bit_length() // SLOT)):
        raise NumberTooLarge(f"a monomial exponent above the bound {MAX_EXPONENT}")


def raw_scalar(c: Scalar):
    """(numerator, denominator) of ``c`` in the raw layout of ``Terms``:
    (residue, 1) over F_p, and over Q and Q(w) the value ((a, b), den) that
    ``c`` holds, c = (a + b*w)/den with gcd(a, b, den) = 1 (b = 0 over Q)."""
    return (c.val, 1) if c.field.p else c.val


def scaled(f: int, c):
    """The raw numerator c (a residue or a pair) times the integer f."""
    if f == 1:
        return c
    return (f * c[0], f * c[1]) if type(c) is tuple else f * c


def canonical(p, raw: dict, den: int = 1):
    """The raw map ``raw`` over ``den`` without zeros, residues reduced mod
    ``p``; over Q and Q(w) (``p`` None) den shares no factor with all
    numerators, and is 1 when the map is empty. With ``p`` = 0 the values
    are integers, the word vectors of the generic algebra over Q and Q(w),
    and den is 1. A packed key above the bound raises (``in_bound``)."""
    if p is None:
        out = {m: v for m, v in raw.items() if v != (0, 0)}
    elif p:
        out = {m: x for m, v in raw.items() if (x := v % p)}
    else:
        out = {m: v for m, v in raw.items() if v}
    in_bound(out)
    if p is not None:
        return out, 1
    g = gcd(den, *chain.from_iterable(out.values()))
    if g == 1:
        return out, den
    return {m: (a // g, b // g) for m, (a, b) in out.items()}, den // g


def accumulate(p, acc: dict, items) -> dict:
    """``acc[m1 + m] += a * c`` for each (terms, m, c) in ``items`` and
    (m1, a) in ``terms.items()``, m1 + m being the monomial product (m1 when
    m is None). The a's and c's are raw numerators. With ``p`` None both
    are integer pairs a + b*w (w^2 = -1 - w). Else the a's are integers:
    residues when ``p`` is set, and any integers when ``p`` is 0, the layout
    of the generic algebra's columns and word vectors over Q and Q(w); each
    c is then an integer, or an integer pair, and a * c is one of its kind.
    Returns ``acc``; its keys are unchecked, so the caller bounds them
    (``canonical``)."""
    get = acc.get
    if p is None:
        for terms, m2, (c, d) in items:
            for m1, (a, b) in terms.items():
                m = m1 if m2 is None else m1 + m2
                bd = b * d
                old = get(m)
                if old is None:
                    acc[m] = (a * c - bd, a * d + b * c - bd)
                else:
                    acc[m] = (old[0] + a * c - bd, old[1] + a * d + b * c - bd)
        return acc
    for terms, m2, c in items:
        if type(c) is int:
            for m1, a in terms.items():
                m = m1 if m2 is None else m1 + m2
                acc[m] = get(m, 0) + a * c
            continue
        c, d = c  # integer terms times a pair
        for m1, a in terms.items():
            m = m1 if m2 is None else m1 + m2
            old = get(m)
            if old is None:
                acc[m] = (a * c, a * d)
            else:
                acc[m] = (old[0] + a * c, old[1] + a * d)
    return acc


class Terms:
    """A sparse k-linear combination of monomials with raw coefficients.

    Over F_p, ``raw`` maps each monomial to its residue in [1, p) and
    ``den`` is 1. Over Q and Q(w), ``raw`` maps each monomial to an integer
    pair (a, b), not both 0, standing for (a + b*w)/den (b = 0 over Q);
    ``den`` is positive and the gcd of ``den`` and all the a's and b's is 1.
    Both layouts are canonical, so ``==`` and ``hash`` compare ``raw`` and
    ``den``. ``terms`` returns a new {monomial: Scalar} dict of them.

    A subclass fixes the monomials, whose product is ``+`` and whose unit
    is falsy, by supplying ``_unit()`` (the unit monomial, the one with no
    letter or all exponents 0), ``_sorted_terms()`` (the print order, of
    ``terms``) and ``_mono_text`` (the text of a non-unit monomial of
    ``terms``). Operands must share the field and the ``variables`` of the
    ring. The arithmetic runs on ``RawTerms``.
    """

    __slots__ = ("field", "variables", "raw", "den")

    def __init__(self, field: FieldSpec, variables, terms: dict):
        """``terms`` maps monomials, as ``raw`` keys them, to Scalars of
        ``field`` (or to values that ``field.scalar`` accepts)."""
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
        new = object.__new__(cls)
        new.field = field
        new.variables = variables
        new.raw, new.den = canonical(field.p, acc, den)
        return new

    def _make(self, acc: dict, den: int = 1):
        """An element of the same ring with raw coefficients ``acc`` over ``den``."""
        return self._canonical(self.field, self.variables, acc, den)

    def _scalar(self, v) -> Scalar:
        """The Scalar of the raw coefficient ``v``."""
        return Scalar(self.field, v) if self.field.p else pair_scalar(self.field, *v, self.den)

    @property
    def terms(self) -> dict:
        scalar = self._scalar
        return {m: scalar(v) for m, v in self.raw.items()}

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

    # -- arithmetic: one route, through ``RawTerms`` ----------------------

    def _sum(self, other, sign: int):
        """self + sign*other. ``RawTerms._merge`` accumulates into the map of
        the operand with more terms (self on a tie), so that map is copied."""
        self._check(other)
        a, b = RawTerms(self, self.raw, self.den), RawTerms(self, other.raw, other.den)
        big = a if len(a.raw) >= len(b.raw) else b
        big.raw = dict(big.raw)
        return a._merge(b, sign).normalize()

    def __add__(self, other):
        return self._sum(other, 1)

    def __neg__(self):
        return (-RawTerms(self, self.raw, self.den)).normalize()

    def __sub__(self, other):
        return self._sum(other, -1)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        self._check(other)
        return raw_product(self, self, other.raw, other.den).normalize()

    def scale(self, c: Scalar):
        if c.field != self.field:
            raise FieldMismatch("scalar from a different field")
        num, den = raw_scalar(c)
        return raw_product(self, self, {self._unit(): num}, den).normalize()

    def __pow__(self, n: int):
        return (RawTerms(self, self.raw, self.den) ** n).normalize()

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if not self.raw:
            return "0"
        parts = []
        for mono, coeff in self._sorted_terms():
            cs = str(coeff)
            if coeff.is_composite_text():
                cs = f"({cs})"
            if not any(mono):  # the unit: no letter, or all exponents 0
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


def raw_product(like: Terms, u, raw: dict, den: int) -> "RawTerms":
    """u times the raw map ``raw`` over ``den``, residues unreduced, with u
    a value of ``like``'s ring (a ``Terms`` or a ``RawTerms``). A packed
    monomial above the bound raises (``in_bound``)."""
    # a lone monomial of coefficient 1 moves the other side's monomials
    m = lone_monomial(raw, den)
    if m is not None:
        out, den = {m1 + m: a for m1, a in u.raw.items()}, u.den
    elif (m := lone_monomial(u.raw, u.den)) is not None:
        out = {m + m2: a for m2, a in raw.items()}
    else:
        # the unit monomial is passed as None, so a scalar factor
        # multiplies no monomials
        items = [(u.raw, m2 or None, c) for m2, c in raw.items()]
        out, den = accumulate(like.field.p, {}, items), u.den * den
    in_bound(out)
    return RawTerms(like, out, den)


def lone_monomial(raw: dict, den: int):
    """The monomial m if ``raw`` over ``den`` is 1*m and m is not the unit,
    else None."""
    if den == 1 and len(raw) == 1:
        ((m, c),) = raw.items()
        if c in (1, (1, 0)) and m:
            return m
    return None


class RawRing:
    """A term-map ring as the expression parser sees it: its element
    ``zero`` (which fixes the class, the field and the variables) and
    ``names``, the monomial of each variable name. The name ``w`` is omega;
    any other name is unknown. ``parse`` reads a plain sum of monomial
    terms in one flat pass and any other text through ``ExprParser``, whose
    literals go through ``field.scalar`` and ``w`` through ``field.omega``,
    so they raise as the field does. The rest is read off ``zero`` once,
    for the parser's per-token use."""

    __slots__ = ("zero", "names", "field", "unit", "one")

    def __init__(self, zero: Terms, names: dict):
        self.zero = zero
        self.names = names
        self.field = zero.field
        self.unit = zero._unit()
        self.one = 1 if zero.field.p else (1, 0)

    def scalar(self, c: Scalar) -> "RawTerms":
        num, den = raw_scalar(c)
        return RawTerms(self.zero, {self.unit: num}, den)

    def const(self, q: Fraction) -> "RawTerms":
        return self.scalar(self.field.scalar(q))

    def symbol(self, name: str, pos: int) -> "RawTerms":
        if name == "w":
            return self.scalar(self.field.omega())
        mono = self.names.get(name)
        if mono is None:
            raise UnknownSymbol(f"unknown symbol {name!r}", pos)
        return RawTerms(self.zero, {mono: self.one})

    def parse(self, text: str):
        """The element of the expression ``text``, normalized once.

        A plain sum of monomial terms (``scan_sum``) is read straight into
        one raw map. Every other text, and every one that route refuses,
        runs ``ExprParser`` on the same tokens over ``RawTerms`` values,
        which raises as the text deserves. That route charges
        ``DEFAULT_SCAN_BUDGET`` work units (``_Charged``), and over the
        budget it raises ``BudgetExceeded`` saying how much was used."""
        tokens = tokenize(text)
        terms = scan_sum(tokens)
        element = None if terms is None else self._read(terms, len(tokens))
        if element is not None:
            return element
        budget = WorkBudget("parse", DEFAULT_SCAN_BUDGET)
        value = ExprParser(
            tokens,
            lambda q: _Charged(budget, self.const(q)),
            lambda name, pos: _Charged(budget, self.symbol(name, pos)),
        ).parse()
        return value.terms.normalize()

    def _read(self, terms, tokens: int):
        """The element of the ``terms`` that ``scan_sum`` read from
        ``tokens`` tokens, each coefficient summed as its raw numerator: a
        residue over F_p, an integer pair over one common denominator over
        Q and Q(w). None where the general route must decide: an unknown
        name, ``w`` over Q, a denominator divisible by p, an exponent above
        MAX_EXPONENT in a packed monomial, or more work than the budget.
        The work counted is at least what the general route charges for the
        same text: 2 per token (a product costs 2, every other token at
        most 1), the letters of every word factor, counted before the word
        is built, and the terms of the running sum after each term."""
        field, names, p = self.field, self.names, self.field.p
        omega = field.omega_residue if p else field.has_omega()
        packed = type(self.unit) is int
        if packed:
            guard = _guard_bits(len(self.zero.variables))
        else:
            longest = max(map(len, names.values()), default=0)
        used, rows = 2 * tokens, []
        for a, b, d, w, factors, exponents in terms:
            if w and not omega:
                return None
            if packed:
                mono = 0
                for name, n in factors:
                    m = names.get(name)
                    # no slot is above MAX_EXPONENT, so a sum carries into no other slot
                    if m is None or n > MAX_EXPONENT or (mono := mono + m * n) & guard:
                        return None
            else:
                used += longest * exponents
                if used > DEFAULT_SCAN_BUDGET:
                    return None
                try:
                    mono = "".join([names[name] * n for name, n in factors])
                except KeyError:
                    return None
            rows.append((mono, a, b, d))
        acc = {}
        if p:
            den = 1
            for mono, a, b, d in rows:
                if d % p == 0:
                    return None
                acc[mono] = acc.get(mono, 0) + (a + b * omega) * pow(d, -1, p)
                used += len(acc)
        else:
            den = lcm(*[row[3] for row in rows])
            for mono, a, b, d in rows:
                f = den // d
                old = acc.get(mono)
                acc[mono] = (a * f, b * f) if old is None else (old[0] + a * f, old[1] + b * f)
                used += len(acc)
        if used > DEFAULT_SCAN_BUDGET:
            return None
        return self.zero._canonical(field, self.zero.variables, acc, den)


class _Charged:
    """A value of ``RawRing.parse``'s general route: the ``RawTerms`` value
    ``terms``, charged to ``budget`` as ``gca._Value`` charges
    ``reduce_text``: the terms of each value made, the letters of a word
    power before it is built, and the term products of a product before
    it is made, so a power of a sum is charged per squaring."""

    __slots__ = ("budget", "terms")

    def __init__(self, budget: WorkBudget, terms: "RawTerms"):
        budget.charge(len(terms.raw))
        self.budget = budget
        self.terms = terms

    def __add__(self, other):
        return _Charged(self.budget, self.terms + other.terms)

    def __sub__(self, other):
        return _Charged(self.budget, self.terms - other.terms)

    def __neg__(self):
        return _Charged(self.budget, -self.terms)

    def __mul__(self, other):
        self.budget.charge(len(self.terms.raw) * len(other.terms.raw))
        return _Charged(self.budget, self.terms * other.terms)

    def __pow__(self, n: int):
        terms = self.terms
        if len(terms.raw) != 1:  # square-and-multiply from the unit, terms**0
            return power(self, n, _Charged(self.budget, terms**0))
        (m,) = terms.raw
        if type(m) is str:
            self.budget.charge(len(m) * n)
        return _Charged(self.budget, terms**n)


class RawTerms:
    """A value of the one term-map arithmetic: raw coefficients ``raw``
    over the positive ``den``, in the layout of ``Terms`` but unnormalized
    (zeros kept, no common factor removed, unreduced integers over F_p
    between products). ``like`` is an element of the ring, which fixes the
    class, the field and the variables. A sum consumes its operands: it
    accumulates into the map of the operand with more terms. A negation, a
    product and a power build new maps and leave their operands' alone."""

    __slots__ = ("like", "raw", "den")

    def __init__(self, like: Terms, raw: dict, den: int = 1):
        self.like = like
        self.raw = raw
        self.den = den

    def normalize(self) -> Terms:
        like = self.like
        return like._canonical(like.field, like.variables, self.raw, self.den)

    def __neg__(self):
        p = self.like.field.p
        raw = self.raw
        neg = {m: -a for m, a in raw.items()} if p else {m: (-a, -b) for m, (a, b) in raw.items()}
        return RawTerms(self.like, neg, self.den)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def _merge(self, other, sign: int):
        """self + sign*other over the lcm of the denominators, accumulated
        (``accumulate``) into the map of the operand with more terms (self
        on a tie), or into a new map when that operand must be scaled first."""
        d1, d2 = self.den, other.den
        den = d1 if d1 == d2 else lcm(d1, d2)
        big, f_big, small, f_small = self, den // d1, other, sign * (den // d2)
        if len(big.raw) < len(small.raw):
            big, f_big, small, f_small = small, f_small, big, f_big
        p = self.like.field.p
        items = [(small.raw, None, f_small if p else (f_small, 0))]
        if f_big != 1:
            items.insert(0, (big.raw, None, f_big if p else (f_big, 0)))
            big.raw = {}
        big.raw = accumulate(p, big.raw, items)
        big.den = den
        return big

    def __mul__(self, other):
        """The product, its residues reduced over F_p so that a chain of
        products keeps its integers small."""
        product = raw_product(self.like, self, other.raw, other.den)
        p = self.like.field.p
        if p:
            product.raw = {m: v % p for m, v in product.raw.items()}
        return product

    def __pow__(self, n: int):
        """self^n. A single term c*m is c^n * m^n, with c^n a ``Scalar``
        power, which over Q and Q(w) is charged before it is computed, and
        m^n = m * n, which for a packed monomial is checked against the
        bound first, exponent by exponent, as a product of slots can carry."""
        like = self.like
        one = 1 if like.field.p else (1, 0)
        if len(self.raw) != 1:
            return power(self, n, RawTerms(like, {like._unit(): one}))
        if n < 0:
            raise ValueError("power needs n >= 0")
        ((m, c),) = self.raw.items()
        if type(m) is int and m and n * max(unpack(m, len(like.variables))) > MAX_EXPONENT:
            raise NumberTooLarge(f"a monomial to the power {n}, above the bound {MAX_EXPONENT}")
        mn = m * n if m else m  # the unit is its own power
        if lone_monomial(self.raw, self.den) is not None:
            return RawTerms(like, {mn: one})
        single = like._make({m: c}, self.den)
        coeff = single._scalar(single.raw[m]) if single.raw else like.field.zero()
        num, den = raw_scalar(coeff**n)
        return RawTerms(like, {mn: num}, den)


class SPolynomial(Terms):
    """A commutative polynomial in ``variables``. ``raw`` keys each term by
    its packed monomial (``pack``); the constructors take exponent tuples in
    the order of ``variables``, and ``terms`` returns them."""

    __slots__ = ()

    # bound in this class's own namespace, where per-class instrumentation
    # (bench/tracer.py) replaces them
    __add__, __sub__, __neg__ = Terms.__add__, Terms.__sub__, Terms.__neg__
    __mul__, __pow__, scale = Terms.__mul__, Terms.__pow__, Terms.scale

    def __init__(self, field: FieldSpec, variables, terms: dict):
        """``terms`` maps exponent tuples, one exponent in [0, MAX_EXPONENT]
        per variable, to Scalars of ``field`` (or to values that
        ``field.scalar`` accepts)."""
        n = len(variables)
        super().__init__(field, variables, {pack(e, n): c for e, c in terms.items()})

    @property
    def terms(self) -> dict:
        n, scalar = len(self.variables), self._scalar
        return {unpack(m, n): scalar(v) for m, v in self.raw.items()}

    # -- monomials -----------------------------------------------------------

    def _unit(self):
        return 0

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
        return self.substitute(assignment, ()).terms.get((), self.field.zero())

    def substitute(self, assignment: dict, keep: tuple[str, ...]) -> "SPolynomial":
        """Evaluate some variables, keeping ``keep`` formal (in their order).
        Each value goes through ``field.scalar``, so a value of another
        field raises ``FieldMismatch``.

        Each term's raw coefficient is multiplied by the raw numerator of
        its Scalar factor, all over one common denominator, in one
        ``accumulate``; each output coefficient is normalized once."""
        field, n = self.field, len(keep)
        positions = []  # per variable: (slot shift in the output, None) or (0, value)
        for v in self.variables:
            if v in keep:
                positions.append((SLOT * (n - 1 - keep.index(v)), None))
            elif v in assignment:
                positions.append((0, field.scalar(assignment[v])))
            else:
                raise MissingAssignment(f"no value for {v!r}")
        terms = []
        for m, c in self.raw.items():
            key, factor = 0, field.one()
            for (shift, value), e in zip(positions, unpack(m, len(positions))):
                if value is None:
                    key += e << shift
                elif e:
                    factor = factor * value**e
            terms.append((key, c, raw_scalar(factor)))
        common = lcm(*(d for _, _, (_, d) in terms))
        items = [({key: c}, None, scaled(common // d, num)) for key, c, (num, d) in terms]
        acc = accumulate(field.p, {}, items)
        return SPolynomial._canonical(field, keep, acc, self.den * common)

    # -- printing / parsing ---------------------------------------------------

    def to_json(self):
        return str(self)

    @staticmethod
    def parse(text: str, field: FieldSpec, variables=GCA_VARS) -> "SPolynomial":
        n = len(variables)
        names = {v: 1 << SLOT * (n - 1 - k) for k, v in enumerate(variables)}
        return RawRing(SPolynomial.zero(field, variables), names).parse(text)


def discriminant_polynomial(field: FieldSpec, variables=GCA_VARS) -> SPolynomial:
    """Delta = 18*X3*AL*BE*Y3 - 4*AL^3*Y3 + AL^2*BE^2 - 4*X3*BE^3 - 27*X3^2*Y3^2,
    the expansion the center equation uses."""
    return SPolynomial.parse(
        "18*X3*AL*BE*Y3 - 4*AL^3*Y3 + AL^2*BE^2 - 4*X3*BE^3 - 27*X3^2*Y3^2",
        field,
        variables,
    )
