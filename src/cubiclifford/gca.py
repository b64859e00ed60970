"""The binary cubic generic Clifford algebra as a free rank-18 module.

The algebra k<x, y : x^3 y = y x^3, x y^3 = y^3 x, x^2y^2 + (xy)^2 =
y^2x^2 + (yx)^2> is free of rank 18 over the central subring
S = k[X3, AL, BE, Y3, GA], where X3 = x^3, Y3 = y^3, AL and BE are the two
degree-3 polarization sums, and GA = (yx)^2 - x^2y^2. An element is one
packed vector over the basis words b_0..b_17; its 18 coordinates are a view.

The structure constants, the normal forms of the 36 words b_j x and b_j y,
are 70 terms, each an S-monomial times 1 or -1, the same over every field.
They are one literal table here, read on first use; nothing in the package
derives them. Three reduction routes are cross-checked, and they live
apart:

* in the package, folding a word letter by letter through the structure
  matrices Mx/My (the route of every request, any degree);
* in the package, for the benchmark's ``gca-qw`` checker and the tests, a
  terminating rewriter on the identity rules x^3 -> X3, y^3 -> Y3,
  yx^2 -> AL - x^2y - xyx, y^2x -> BE - xy^2 - yxy, (yx)^2 -> GA + x^2y^2,
  followed by a literal conversion table for the 18 irreducible words (they
  mirror the basis degree profile 1,2,4,4,4,2,1), kept apart from the
  structure table. Every rule replaces a word by strictly deglex-smaller
  words, so taking pending words largest first rewrites each word once.
  The rules are linear, so by Bergman's diamond lemma the result can depend
  only on which redex inside a word is contracted: runs contracting random
  redexes are the confluence evidence suite;
* in ``tests/oracles.py``, the reduction oracle ``oracle_reduce``: exact
  linear algebra expressing an element in the span of {S-monomial x basis
  word} modulo the homogeneous defining ideal (authoritative;
  degree-capped), with the degree systems it eliminates. The tests
  re-derive both literal tables through it and certify the structure table
  over Q (``validate_structure_columns``) on every run.
"""

from __future__ import annotations

import heapq
import random
from functools import lru_cache
from math import lcm

from ._parsing import ExprParser, WorkBudget
from .errors import FieldMismatch, NonTermination
from .fields import DEFAULT_SCAN_BUDGET, FieldSpec, Scalar, power
from .freealg import (
    FreeElement,
    alpha_element,
    beta_element,
    delta_element,
    epsilon_commutators,
    free_ring,
    gamma_element,
    s_element,
)
from .spoly import _SLOT_MASK, GAMMA_VARS, GCA_VARS, SLOT, RawTerms, SPolynomial, accumulate
from .spoly import canonical, discriminant_polynomial, pack, raw_product, raw_scalar, scaled

BASIS_WORDS = (
    "",
    "x", "y",
    "xx", "xy", "yx", "yy",
    "xxy", "xyy", "yyx", "yxx",
    "xxyy", "xyxy", "xyxx", "yyxy",
    "xxyyx", "xyxyy",
    "xxyyxy",
)

# defining relations, all homogeneous of degree 4
RELATIONS = (
    {"xxxy": 1, "yxxx": -1},
    {"xyyy": 1, "yyyx": -1},
    {"xxyy": 1, "xyxy": 1, "yyxx": -1, "yxyx": -1},
)

# word expansions of the five central coefficient generators
CENTRAL_EXPANSIONS = {
    "X3": {"xxx": 1},
    "AL": {"xxy": 1, "xyx": 1, "yxx": 1},
    "BE": {"xyy": 1, "yxy": 1, "yyx": 1},
    "Y3": {"yyy": 1},
    "GA": {"yxyx": 1, "xxyy": -1},
}

# the longest word prefix a word cache stores: a fold of a longer word goes
# on from it without storing more, so a word of n letters costs n folds but
# not n^2/2 cached characters
PREFIX_CACHE_LETTERS = 64


class _Echelon:
    """Row-sparse semi-echelon basis: the one exact elimination, over Python
    ints mod p or over exact field values. No request eliminates: its one
    caller in the package is ``cliffordf._rank``, which nothing calls and
    which stays only as a benchmark target; the oracle and the certificates
    of ``tests/oracles.py`` run it.

    Rows are ``{column: value}`` dicts. With a prime ``p`` the values are
    residues mod p held as Python ints, so any p is exact; with ``p=None``
    they are ``Scalar``s of Q or Q(w). Each stored row is monic at its pivot
    and vanishes at the pivots of the rows stored before it, so one pass in
    insertion order reduces a vector. Every stored row also carries the
    combination of added rows, by key, that it equals.
    """

    def __init__(self, p: int | None = None):
        self.p = p
        self.rows = []  # (pivot, monic row, combination)

    def _axpy(self, v: dict, f, row: dict):
        """v += f * row in place, dropping zeros."""
        p = self.p
        for c, x in row.items():
            old = v.get(c)
            y = f * x if old is None else old + f * x
            if p is not None:
                y %= p
            if y:
                v[c] = y
            else:  # f * x is nonzero, so y vanishes only where v had c
                del v[c]

    def reduce(self, vec: dict):
        """(remainder, combination): vec is the remainder plus the added
        rows weighted by the combination."""
        if self.p is not None:
            vec = {c: x % self.p for c, x in vec.items()}
        v = {c: x for c, x in vec.items() if x}
        combo = {}
        for pivot, row, row_combo in self.rows:
            f = v.get(pivot)
            if f:
                self._axpy(v, -f, row)
                self._axpy(combo, f, row_combo)
        return v, combo

    def add(self, row: dict, key=None) -> bool:
        """Store ``row`` under ``key``; False if it lies in the span already."""
        v, combo = self.reduce(row)
        if not v:
            return False
        pivot = min(v)
        inv = pow(v[pivot], -1, self.p) if self.p is not None else 1 / v[pivot]
        monic, own = {}, {key: inv}
        self._axpy(monic, inv, v)
        self._axpy(own, -inv, combo)
        self.rows.append((pivot, monic, own))
        return True


# -- the structure constants ---------------------------------------------------

# The structure constants, the same over every field: each line writes the
# word b_j + letter as its normal form, a sum of terms +-m*e_i with m an
# S-monomial (no factor for 1). Text, not a tuple literal, so that an
# interpreter that compiles this module from source builds no syntax tree
# for it; it is read on first use.
_STRUCTURE_TABLE = """
x = +e1
y = +e2
xx = +e3
xy = +e4
yx = +e5
yy = +e6
xxx = +X3*e0
xxy = +e7
xyx = +AL*e0 -e7 -e10
xyy = +e8
yxx = +e10
yxy = +BE*e0 -e8 -e9
yyx = +e9
yyy = +Y3*e0
xxyx = +AL*e1 -X3*e2 -e13
xxyy = +e11
xyyx = +BE*e1 -e11 -e12
xyyy = +Y3*e1
yyxx = -GA*e0 +e12
yyxy = +e14
yxxx = +X3*e2
yxxy = +AL*e2 -e11 -e12
xxyyx = +e15
xxyyy = +Y3*e3
xyxyx = +GA*e1 +X3*e6
xyxyy = +e16
xyxxx = +X3*e4
xyxxy = -BE*e3 +AL*e4 +e15
yyxyx = +GA*e2 -Y3*e3 +AL*e6 -e16
yyxyy = -Y3*e4 -Y3*e5 +BE*e6
xxyyxx = +X3*BE*e0 -GA*e3 -X3*e8 -X3*e9
xxyyxy = +e17
xyxyyx = +AL*BE*e0 -X3*Y3*e0 -GA*e4 -AL*e8 -BE*e10 -e17
xyxyyy = +AL*Y3*e0 -Y3*e7 -Y3*e10
xxyyxyx = -X3*BE*e2 +GA*e7 +AL*e11 +X3*e14
xxyyxyy = -AL*Y3*e1 +BE*e11 +Y3*e13
"""

_BASIS_INDEX = {w: i for i, w in enumerate(BASIS_WORDS)}


def _read_table(table: str):
    """(word, i, S-exponent, n) of each term n*m*e_i of each line of a
    literal table, n = +-1."""
    for line in table.strip().splitlines():
        word, terms = line.split(" = ")
        for term in terms.split():
            *names, unit = term[1:].split("*")
            yield word, int(unit[1:]), tuple(map(names.count, GCA_VARS)), int(term[0] + "1")


def _structure_terms() -> list:
    """The ((letter, j, i), S-exponent, n) terms of the coordinates i of
    BASIS_WORDS[j] * letter."""
    return [
        ((word[-1], _BASIS_INDEX[word[:-1]], i), e, n)
        for word, i, e, n in _read_table(_STRUCTURE_TABLE)
    ]


# -- rewriting route ----------------------------------------------------------

_REWRITE_RULES = (
    # lhs, [(replacement fragment, S-variable pulled out or None, sign)]
    ("xxx", (("", "X3", 1),)),
    ("yyy", (("", "Y3", 1),)),
    ("yxx", (("", "AL", 1), ("xxy", None, -1), ("xyx", None, -1))),
    ("yyx", (("", "BE", 1), ("xyy", None, -1), ("yxy", None, -1))),
    ("yxyx", (("", "GA", 1), ("xxyy", None, 1))),
)
# Each rule rewrites a word into strictly deglex-smaller words (shorter, or
# equal length with an x where the y was), so rewriting terminates under
# any application order.

REWRITE_STEP_BUDGET = 4000

_SWAP_LETTERS = str.maketrans("xy", "yx")


def _deglex_desc(w: str) -> tuple:
    """Heap key of w that pops the deglex-largest word first: longer words,
    then at equal length the word whose letter-swapped text is smallest."""
    return (-len(w), w.translate(_SWAP_LETTERS), w)


def irreducible_words():
    """All words with no rule left-hand side as a factor (there are 18,
    none longer than 6 letters; their degree profile matches the basis)."""
    lhs = [rule[0] for rule in _REWRITE_RULES]
    words = []
    frontier = [""]
    while frontier:
        nxt = []
        for w in frontier:
            words.append(w)
            for letter in "xy":
                cand = w + letter
                if not any(cand.endswith(l) for l in lhs):
                    nxt.append(cand)
        frontier = nxt
    return words


# The rewriter's normal forms of the six irreducible words that are not
# basis words, in the same layout; the twelve others are basis words b_i,
# each e_i. Kept apart from the structure table, which would give some of
# them, so that the rewriter and the fold stay independent routes.
_CONVERSION_TABLE = """
xyx = +AL*e0 -e7 -e10
yxy = +BE*e0 -e8 -e9
xxyx = +AL*e1 -X3*e2 -e13
yxyy = -Y3*e1 +BE*e2 -e14
xxyxy = +BE*e3 -X3*e6 -e15
xxyxyy = -X3*Y3*e0 +BE*e7 -e17
"""


@lru_cache(maxsize=None)
def _conversion_terms() -> dict:
    """Irreducible word -> the (i, packed S-monomial, n) terms of its normal
    form: e_i for the basis word b_i, the literal table for the others."""
    table = {w: [(i, 0, 1)] for w, i in _BASIS_INDEX.items()}
    for word, i, e, n in _read_table(_CONVERSION_TABLE):
        table.setdefault(word, []).append((i, pack(e, 5), n))
    return table


# -- the algebra over a coefficient ring -------------------------------------------


class Rank18Element:
    """The kernel's canonical vector (``Rank18Algebra``), ``raw`` over
    ``den`` in the layout of ``field``; ``coords``, its 18 ``SPolynomial``s,
    is a view computed on each read. ``base`` fixes the coefficient ring:
    S = k[X3, AL, BE, Y3, GA] for a field k, k[GA] for a form f (the algebra
    specialized at f). The constructor packs 18 coordinates of that ring and
    refuses others, whose packed monomials would mean other terms. Elements
    combine only with an equal base, else the class's ``MISMATCH`` raises."""

    __slots__ = ("base", "field", "variables", "raw", "den")
    MISMATCH = FieldMismatch

    def __init__(self, base, coords):
        coords = tuple(coords)
        if len(coords) != 18:
            raise ValueError(f"{len(coords)} coordinates, not 18")
        ring = (base, GCA_VARS) if isinstance(base, FieldSpec) else (base.field, GAMMA_VARS)
        self.base, (self.field, self.variables) = base, ring
        zero = SPolynomial.zero(self.field, self.variables)
        for c in coords:
            zero._check(c)  # FieldMismatch or VariableMismatch
        self.den, shift = lcm(*(c.den for c in coords)), SLOT * len(self.variables)
        self.raw = {
            i << shift | m: scaled(self.den // c.den, a)
            for i, c in enumerate(coords) for m, a in c.raw.items()
        }

    @classmethod
    def _of(cls, base, field, variables, vector):
        """The element of the canonical vector (raw, den)."""
        new = object.__new__(cls)
        new.base, new.field, new.variables = base, field, variables
        new.raw, new.den = vector
        return new

    def _rows(self) -> list:
        """The raw maps {m: numerator over den} of the 18 coordinates."""
        shift = SLOT * len(self.variables)
        rows, mask = [{} for _ in range(18)], (1 << shift) - 1
        for key, c in self.raw.items():
            rows[key >> shift][key & mask] = c
        return rows

    @property
    def coords(self) -> tuple:
        field, variables, den = self.field, self.variables, self.den
        return tuple(SPolynomial._canonical(field, variables, r, den) for r in self._rows())

    def _combined(self, items, den: int):
        """Sum raw * c over den, c a raw numerator, for the (raw, c) items."""
        p = self.field.p
        vector = canonical(p, accumulate(p, {}, [(raw, None, c) for raw, c in items]), den)
        return self._of(self.base, self.field, self.variables, vector)

    def _sum(self, other, sign: int):
        if self.base != other.base:
            raise self.MISMATCH(f"{self.base} vs {other.base}")
        den, unit = lcm(self.den, other.den), 1 if self.field.p else (1, 0)
        items = ((self.raw, den // self.den), (other.raw, sign * (den // other.den)))
        return self._combined([(raw, scaled(f, unit)) for raw, f in items], den)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return self.scale(-self.field.one())

    def scale(self, c: Scalar):
        if c.field != self.field:
            raise FieldMismatch("scalar from a different field")
        num, den = raw_scalar(c)
        return self._combined(((self.raw, num),), self.den * den)

    def is_zero(self):
        return not self.raw

    def __eq__(self, other):
        same = isinstance(other, type(self))
        return same and (self.base, self.den, self.raw) == (other.base, other.den, other.raw)

    def __hash__(self):
        return hash((self.base, frozenset(self.raw.items()), self.den))

    def __str__(self):
        parts = [f"[{i}] {c}" for i, c in enumerate(self.coords) if not c.is_zero()]
        return "0" if not parts else "; ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class GCAElement(Rank18Element):
    """An element in normal form: an 18-vector over S = k[X3,AL,BE,Y3,GA]."""

    __slots__ = ()

    def to_json(self):
        return {"coords": [str(c) for c in self.coords]}

    @staticmethod
    def from_json(field, obj):
        return GCAElement(field, [SPolynomial.parse(t, field, GCA_VARS) for t in obj["coords"]])


def _gathered(p, terms: dict, den: int):
    """({letter: columns}, den) of the canonical ``terms`` (``spoly.canonical``
    with ``p``), keyed (letter, j, delta): column j of a letter maps each
    delta = ((i - j) << shift) + m to the raw numerator over den of the term
    m e_i of b_j * letter, shift being the algebra's ``shift``, so that the
    term of b_j at the key j << shift | m1 of a vector lands at key + delta."""
    terms, den = canonical(p, terms, den)
    columns = {letter: [{} for _ in range(18)] for letter in "xy"}
    for (letter, j, delta), c in terms.items():
        columns[letter][j][delta] = c
    return columns, den


@lru_cache(maxsize=None)
def generic_columns():
    """(columns, 1): the columns of right multiplication by x and y on the
    basis, each S-monomial of the integer columns its own monomial and each
    value the integer itself (``_gathered`` over Z, ``p`` = 0). The structure
    constants are integers, so this one table serves every field: a fold
    over F_p reduces its sums mod p."""
    shift = SLOT * len(GCA_VARS)
    terms = {
        (letter, j, ((i - j) << shift) + pack(e, 5)): n
        for (letter, j, i), e, n in _structure_terms()
    }
    return _gathered(0, terms, 1)


class Rank18Algebra:
    """The rank-18 algebra over a coefficient ring, given by the ``columns``
    of right multiplication by x and y over ``den`` (``_gathered``). Its
    kernel works on sparse raw vectors (raw, den): raw is one map, in
    ``spoly.Terms``'s layout, from the key i << shift | m of each term m e_i
    to its numerator over the one den, with shift = SLOT * (number of
    variables), so the coordinate i is one more packed slot above the
    monomial's; canonical (``spoly.canonical``) so that equal vectors
    compare equal. An element (``Rank18Element``) is one. A monomial
    product in the kernel is one integer addition, and so is the move of a
    term to another coordinate: a fold adds a column's delta to each key,
    and a product adds the monomials of u_i and v_j to the keys of
    1.b_i b_j. A fold, a reduction and a product are each one
    ``accumulate``, normalized once; a product reads its structure
    constants 1.b_i b_j from the word cache, as a reduction its words.

    ``ring`` is the layout of the columns and so of the word cache, as
    ``spoly.canonical`` reads it: p over F_p; over Q and Q(w), 0 (integers
    over den 1) when the columns are the integer generic table
    (``generic_columns``), else None (integer pairs), as the specialized
    columns are; an element's vector is in the field's layout. Over Z a word
    vector meets an element's coefficients only in a reduction (word vector
    times coefficient), a product (1.b_i b_j times the term products of u_i
    and v_j) and a fold of an element's vector (column times coordinate),
    each an ``accumulate`` of integer maps times pairs.

    One cache rule holds for every algebra, generic, specialized or moved:
    the columns are fixed at construction; the word cache (each folded word
    w, as 1.w, rooted at the unit e_0) is derived from them and lives as
    long as the algebra; nothing keeps an algebra after the call that built
    it."""

    ELEMENT = Rank18Element

    def __init__(self, base, field: FieldSpec, variables, columns, den: int):
        self.base = base
        self.field, self.variables = field, variables
        self.columns, self.den = columns, den
        c = next(iter(columns["x"][0].values()))  # of b_0 * x, never 0
        self.ring = 0 if field.p is None and type(c) is int else field.p
        self.shift = SLOT * len(variables)
        self._zero = SPolynomial.zero(field, variables)
        self._word_cache = {"": ({0: (1, 0) if self.ring is None else 1}, 1)}

    def _element(self, vector):
        """The element of the canonical vector (raw, den)."""
        return self.ELEMENT._of(self.base, self.field, self.variables, vector)

    def zero(self):
        return self._element(({}, 1))

    def one(self):
        return self.basis_element(0)

    def basis_element(self, i: int):
        return self._element(({i << self.shift: raw_scalar(self.field.one())[0]}, 1))

    def scalar_element(self, poly: SPolynomial):
        self._zero._check(poly)  # poly must be in the coefficient ring
        return self._element((poly.raw, poly.den))

    def _fold(self, items, p):
        """The canonical sum of vector times letter over the (vector,
        letter) items, the vectors in the layout ``p``: the word cache's
        (``ring``) or an element's (the field's ``p``). The term a at the key
        k of coordinate j = k >> shift & _SLOT_MASK adds a*c at k + delta
        for each (delta, c) of column j. A slot above the coordinate, as a
        block's row, is left as it is."""
        common = lcm(*(den for (_, den), _ in items))
        shift = self.shift
        entries = [
            (cols[key >> shift & _SLOT_MASK], key, scaled(f, a))
            for (raw, den), letter in items
            for cols, f in ((self.columns[letter], common // den),)
            for key, a in raw.items()
        ]
        return canonical(p, accumulate(self.ring, {}, entries), common * self.den)

    def _central_relations(self, coeffs, cache: dict) -> list:
        """[B r == c B] for the four central relations r = c: r the word sum
        of X3, AL, BE or Y3 (three letters, coefficient 1), c its entry of
        ``coeffs`` and B the block cache[""], in the field's layout (the
        columns of a specialized or moved algebra are). A block is a vector
        whose keys may carry a slot above the coordinate, such as the row of
        a stack of vectors: the fold leaves that slot as it is and is
        linear, so it moves every row at once. B r is one ``_fold`` of the
        blocks B w[:2] (from ``cache``) by w[2]."""
        p, (raw, den) = self.field.p, cache[""]
        out = []
        for var, c in zip(GCA_VARS, coeffs):
            words = CENTRAL_EXPANSIONS[var]
            lhs = self._fold([(self._word_vector(w[:2], cache), w[2]) for w in words], p)
            num, c_den = raw_scalar(c)
            out.append(lhs == canonical(p, accumulate(p, {}, [(raw, None, num)]), den * c_den))
        return out

    def _word_vector(self, w: str, cache: dict, budget=None):
        """The vector of the word w, in the layout ``ring``, folded on from
        its longest prefix in ``cache`` (which holds the empty word); every
        prefix of at most ``PREFIX_CACHE_LETTERS`` letters folded on the way
        is stored in ``cache``. ``budget.charge`` is told the letters folded
        first."""
        cached = cache.get(w)
        if cached is not None:
            return cached
        k = len(w) - 1
        if k > PREFIX_CACHE_LETTERS:
            k = PREFIX_CACHE_LETTERS
        while w[:k] not in cache:
            k -= 1
        if budget is not None:
            budget.charge(len(w) - k)
        vector = cache[w[:k]]
        for pos in range(k, len(w)):
            vector = self._fold(((vector, w[pos]),), self.ring)
            if pos < PREFIX_CACHE_LETTERS:
                cache[w[: pos + 1]] = vector
        return vector

    def _reduce(self, e: FreeElement, cache: dict, budget=None):
        """The canonical vector of a free element: the sum of its word
        vectors times their coefficients."""
        if e.field != self.field:
            raise FieldMismatch(f"{e.field} vs {self.field}")
        vectors = [(c, self._word_vector(w, cache, budget)) for w, c in e.raw.items()]
        common = lcm(*(den for _, (_, den) in vectors))
        items = [(raw, None, scaled(common // den, c)) for c, (raw, den) in vectors]
        return canonical(self.field.p, accumulate(self.ring, {}, items), common * e.den)

    def reduce(self, e: FreeElement):
        """Normal form of a free element; folded words stay in the word cache."""
        return self._element(self._reduce(e, self._word_cache))

    def mul(self, u, v):
        """Product of normal forms, both with the algebra's base, from the
        structure constants: the sum over i, j of u_i v_j (1.b_i b_j) in one
        ``accumulate``, u and v split by coordinate once (``_rows``) and
        1.b_i b_j the vector of the word b_i b_j read from the word cache
        (``_word_vector``, which folds and stores a missing one). Each term
        product of u_i and v_j, in the field's layout, weights 1.b_i b_j,
        in the layout ``ring``.

        It is the product: u = sum u_i b_i and v = sum v_j b_j with the u_i
        and v_j in the central coefficient ring, so uv = sum u_i v_j b_i b_j.
        The normal form of a word w is its fold 1.w, and the normal form is
        linear over the coefficients, so the normal form of uv is
        sum u_i v_j (1.b_i b_j)."""
        if u.base != self.base or v.base != self.base:
            raise self.ELEMENT.MISMATCH(f"{u.base} and {v.base} in an algebra over {self.base}")
        cache, v_rows = self._word_cache, [(j, r) for j, r in enumerate(v._rows()) if r]
        pairs = [
            (ui, vj, self._word_vector(BASIS_WORDS[i] + BASIS_WORDS[j], cache))
            for i, ui in enumerate(u._rows()) if ui
            for j, vj in v_rows
        ]
        common = lcm(*(den for _, _, (_, den) in pairs))
        blocks = [(raw, common // den, ui.items(), vj.items()) for ui, vj, (raw, den) in pairs]
        # the inner loop of accumulate runs over the terms of 1.b_i b_j; its
        # items are generated, not listed, so a product holds only its sums
        if self.field.p:
            items = (
                (raw, ma + mb, f * a * c)
                for raw, f, us, vs in blocks for ma, a in us for mb, c in vs
            )
        else:
            items = (
                (raw, ma + mb, (f * (a * c - bd), f * (a * d + b * c - bd)))
                for raw, f, us, vs in blocks
                for ma, (a, b) in us for mb, (c, d) in vs for bd in (b * d,)
            )
        acc = accumulate(self.ring, {}, items)
        return self._element(canonical(self.field.p, acc, common * u.den * v.den))


class GenericCliffordAlgebra(Rank18Algebra):
    ELEMENT = GCAElement

    # bound in this class's own namespace, where per-class instrumentation
    # (bench/tracer.py) replaces them
    reduce, mul = Rank18Algebra.reduce, Rank18Algebra.mul

    def __init__(self, field: FieldSpec):
        super().__init__(field, field, GCA_VARS, *generic_columns())

    def reduce_text(self, text: str, budget: int | None = None) -> GCAElement:
        """Normal form of the expression ``text``, evaluated in the algebra
        where that pays. A value stays raw free terms (``spoly.RawTerms``)
        until a product of two values that both have more than one term, or
        a power n >= 2 of such a value, makes it a normal form by ``mul``
        and ``fields.power``; a raw operand met by a normal form is reduced
        through the word cache first. So (x+y)^k costs about log k products
        instead of 2^k words. Reduction is a homomorphism onto canonical
        normal forms, so the result is ``reduce`` of the expanded element.

        The work is charged against ``budget`` (default
        ``DEFAULT_SCAN_BUDGET``): the raw terms of every free value and the
        S-monomials of every normal form made and every letter folded; and
        before it is made, the letters of a power of one word and the
        product of the S-monomial counts of two normal forms multiplied.
        The structure constants that ``mul`` folds into the word cache, at
        most 18^2 words of at most 12 letters in the algebra's lifetime, are
        not charged. Over the budget, ``BudgetExceeded`` says how much was
        used. A monomial exponent above ``spoly.MAX_EXPONENT`` raises
        ``NumberTooLarge``.

        Every text takes this general route, sums of monomials too: the
        flat scanner of the term-map parsers (``spoly.RawRing.parse``) is
        not used here, so the work counted and reported stays the same."""
        run = _Evaluation(self, DEFAULT_SCAN_BUDGET if budget is None else budget)
        ring = free_ring(self.field)
        value = ExprParser(
            text,
            lambda q: run.free(ring.const(q)),
            lambda name, pos: run.free(ring.symbol(name, pos)),
        ).parse()
        return value.normal()

    # -- rewriter route -------------------------------------------------------

    def rewrite_reduce(
        self,
        e: FreeElement,
        rng: random.Random | None = None,
        budget: int = REWRITE_STEP_BUDGET,
    ):
        """Reduce by the terminating rule set, then convert irreducible words.

        Pending words are taken largest first in deglex order. Every rule
        yields strictly smaller words, so the largest pending word already
        has its final coefficient and each word is rewritten at most once.
        A word's leftmost redex is contracted, or with ``rng`` a random one
        (confluence evidence). Each output coordinate accumulates raw
        (``spoly.RawTerms``) and is normalized once. Returns (element,
        steps_used).
        """
        if e.field != self.field:
            raise FieldMismatch(f"{e.field} vs {self.field}")
        state = {w: SPolynomial.const(self.field, c, GCA_VARS) for w, c in e.terms.items()}
        heap = [_deglex_desc(w) for w in state]
        heapq.heapify(heap)
        rows = [RawTerms(self._zero, {}) for _ in range(18)]
        steps = 0
        while heap:
            w = heapq.heappop(heap)[2]
            coeff = state.pop(w)
            if coeff.is_zero():
                continue
            redexes = [
                (k, lhs, rule)
                for k in range(len(w))
                for lhs, rule in _REWRITE_RULES
                if w.startswith(lhs, k)
            ]
            if not redexes:
                for i, m, n in _conversion_terms()[w]:
                    raw = {m: n if self.field.p else (n, 0)}
                    rows[i] = rows[i] + raw_product(self._zero, coeff, raw, 1)
                continue
            if steps >= budget:
                raise NonTermination(f"rewrite budget {budget} exhausted")
            steps += 1
            k, lhs, rule = redexes[0] if rng is None else rng.choice(redexes)
            for fragment, var, sign in rule:
                new_word = w[:k] + fragment + w[k + len(lhs):]
                c = coeff if sign == 1 else -coeff
                if var is not None:
                    c = c * SPolynomial.variable(self.field, var, GCA_VARS)
                if new_word not in state:
                    heapq.heappush(heap, _deglex_desc(new_word))
                state[new_word] = state.get(new_word, self._zero) + c
        return GCAElement(self.field, [r.normalize() for r in rows]), steps

    # -- identity suite ---------------------------------------------------------

    def verify_center_identities(self) -> dict:
        """The four center/symbol identity groups, each reduced to zero."""
        commutators, delta_six, s, s_target, eps_commutators = _identity_elements(self.field)
        report = {}

        def check(name, *differences):
            witnesses = [v for v in differences if not v.is_zero()]
            report[name] = {"pass": not witnesses}
            if witnesses:
                report[name]["witness"] = witnesses[0].to_json()

        check("delta-commutation", *map(self.reduce, commutators))
        check("delta-six", self.reduce(delta_six))
        s_red = self.reduce(s)
        check("s-squared", self.mul(s_red, s_red) - self.scalar_element(s_target))
        check("epsilon-commutation", *map(self.reduce, eps_commutators))
        return report


@lru_cache(maxsize=16)
def _identity_elements(field: FieldSpec) -> tuple:
    """What ``verify_center_identities`` reduces, which depends on the field
    alone, built once per field: the two delta-commutators, delta^6 minus
    its right side, s and the polynomial s^2 must equal, and the two
    epsilon-commutators."""
    w = field.omega()
    one = field.one()
    x = FreeElement.generator(field, "x")
    y = FreeElement.generator(field, "y")
    d = delta_element(field)
    al, be, ga = alpha_element(field), beta_element(field), gamma_element(field)
    x3 = FreeElement.word(field, "xxx")
    y3 = FreeElement.word(field, "yyy")
    w2 = w * w
    # (i) delta*x = w^2*x*delta + alpha and y*delta = w^2*delta*y + beta
    commutators = (d * x - (x * d).scale(w2) - al, y * d - (d * y).scale(w2) - be)
    # (ii) delta^6 = 3w(1-w) x^3y^3 delta^3 + (1+2w^2) ab delta^3
    #      + gamma^3 - x^3 b^3 - y^3 a^3 + a^2 b^2
    d3 = d**3
    rhs = (
        (x3 * y3 * d3).scale(field.scalar(3) * w * (one - w))
        + (al * be * d3).scale(one + field.scalar(2) * w2)
        + ga**3
        - x3 * be**3
        - y3 * al**3
        + al**2 * be**2
    )
    # (iii) s^2 = gamma^3 + Delta/4
    quarter = one / field.scalar(4)
    s_target = SPolynomial.variable(field, "GA", GCA_VARS) ** 3 + discriminant_polynomial(
        field
    ).scale(quarter)
    # (iv) eps*x = w*x*eps and eps*y = w*y*eps + (1-w)*gamma
    return commutators, d**6 - rhs, s_element(field), s_target, epsilon_commutators(field)


class _Evaluation(WorkBudget):
    """One ``reduce_text``: the algebra, and the work charged so far."""

    __slots__ = ("alg",)

    def __init__(self, alg: GenericCliffordAlgebra, limit: int):
        super().__init__("reduce", limit)
        self.alg = alg

    def counted(self, nf: GCAElement) -> GCAElement:
        self.charge(len(nf.raw))
        return nf

    def free(self, terms) -> "_Value":
        self.charge(len(terms.raw))
        return _Value(self, terms, None)

    def held(self, nf: GCAElement) -> "_Value":
        return _Value(self, None, self.counted(nf))

    def reduce(self, terms) -> GCAElement:
        alg = self.alg
        return self.counted(alg._element(alg._reduce(terms.normalize(), alg._word_cache, self)))

    def mul(self, u: GCAElement, v: GCAElement) -> GCAElement:
        """u*v, charged its S-monomial products before it is made."""
        self.charge(len(u.raw) * len(v.raw))
        return self.counted(self.alg.mul(u, v))


class _Value:
    """A value of ``reduce_text``: raw free terms ``terms`` or a normal form
    ``nf``. Each operator consumes its operands, as ``RawTerms`` does."""

    __slots__ = ("run", "terms", "nf")

    def __init__(self, run: _Evaluation, terms, nf):
        self.run = run
        self.terms = terms
        self.nf = nf

    def normal(self) -> GCAElement:
        return self.nf if self.terms is None else self.run.reduce(self.terms)

    def _both_raw(self, other) -> bool:
        return self.terms is not None and other.terms is not None

    def __add__(self, other):
        if self._both_raw(other):
            return self.run.free(self.terms + other.terms)
        return self.run.held(self.normal() + other.normal())

    def __sub__(self, other):
        if self._both_raw(other):
            return self.run.free(self.terms - other.terms)
        return self.run.held(self.normal() - other.normal())

    def __neg__(self):
        return self.run.free(-self.terms) if self.terms is not None else self.run.held(-self.nf)

    def __mul__(self, other):
        if self._both_raw(other) and min(len(self.terms.raw), len(other.terms.raw)) < 2:
            return self.run.free(self.terms * other.terms)
        return _Value(self.run, None, self.run.mul(self.normal(), other.normal()))

    def __pow__(self, n: int):
        run, terms = self.run, self.terms
        letters = 0 if terms is None else max(map(len, terms.raw), default=0) * n
        # a word power longer than a prefix cache holds would fold a letter at a time
        if terms is not None and (n < 2 or len(terms.raw) < 2 and letters <= PREFIX_CACHE_LETTERS):
            run.charge(letters)  # the letters it builds
            return run.free(terms**n)
        return _Value(run, None, power(self.normal(), n, run.alg.one(), run.mul))
