"""The binary cubic generic Clifford algebra as a free rank-18 module.

The algebra k<x, y : x^3 y = y x^3, x y^3 = y^3 x, x^2y^2 + (xy)^2 =
y^2x^2 + (yx)^2> is free of rank 18 over the central subring
S = k[X3, AL, BE, Y3, GA], where X3 = x^3, Y3 = y^3, AL and BE are the two
degree-3 polarization sums, and GA = (yx)^2 - x^2y^2. Elements are stored
as 18-vectors of S-polynomials over the fixed basis words b_0..b_17.

Three reduction routes exist and are cross-checked:

* folding a word letter by letter through the structure matrices Mx/My
  (the production route, any degree);
* the reduction oracle: exact linear algebra expressing an element in the
  span of {S-monomial x basis word} modulo the homogeneous defining ideal
  (authoritative; degree-capped). The structure matrices themselves are
  derived through it, with every solution verified exactly over Z;
* a terminating rewriter on the identity rules x^3 -> X3, y^3 -> Y3,
  yx^2 -> AL - x^2y - xyx, y^2x -> BE - xy^2 - yxy, (yx)^2 -> GA + x^2y^2,
  followed by a fixed conversion table for the 18 irreducible words (they
  mirror the basis degree profile 1,2,4,4,4,2,1). Every rule replaces a
  word by strictly deglex-smaller words, so taking pending words largest
  first rewrites each word once. The rules are linear, so by Bergman's
  diamond lemma the result can depend only on which redex inside a word is
  contracted: runs contracting random redexes are the confluence evidence
  suite.

All exact linear algebra of the package runs through one row-sparse
elimination kernel, ``_Echelon``, either mod p on Python ints or over exact
field values. Its callers and their exact checks:

* ``_DegreeSystem.solve_int`` (structure columns, conversion table):
  eliminates mod a fixed prime, lifts symmetrically and verifies every
  solution over Z;
* ``GenericCliffordAlgebra.oracle_reduce``: one echelon per field and
  degree; a target outside the span is reported as an inconsistent system;
* ``cliffordf._rank``, which nothing in the package calls.

The certificate of the structure columns, which decides over Q that each
column re-expands into its word modulo the defining ideal, is a test:
``ideal_membership`` and ``validate_structure_columns`` in
``tests/oracles.py`` run the same kernel on every test run.
"""

from __future__ import annotations

import heapq
import random
from functools import lru_cache
from itertools import product
from math import lcm

from ._parsing import ExprParser
from .errors import BudgetExceeded, FieldMismatch, NonTermination, UnsupportedField
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
from .spoly import GCA_VARS, RawTerms, SPolynomial, accumulate, canonical, pack
from .spoly import discriminant_polynomial, raw_product, raw_scalar, scaled, times

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

MAX_ORACLE_DEGREE = 9

# the longest word prefix a word cache stores: a fold of a longer word goes
# on from it without storing more, so a word of n letters costs n folds but
# not n^2/2 cached characters
PREFIX_CACHE_LETTERS = 64


def _dict_mul(a: dict, b: dict) -> dict:
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            out[w] = out.get(w, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


@lru_cache(maxsize=None)
def _monomial_expansion(expo: tuple) -> tuple:
    """Word expansion (with integer coefficients) of an S-monomial."""
    out = {"": 1}
    for var, e in zip(GCA_VARS, expo):
        for _ in range(e):
            out = _dict_mul(out, CENTRAL_EXPANSIONS[var])
    return tuple(sorted(out.items()))


def _monomials_of_degree(d: int):
    """Exponent tuples (X3, AL, BE, Y3, GA) of total word degree d."""
    for e in range(d // 4 + 1):
        rem = d - 4 * e
        if rem % 3:
            continue
        k = rem // 3
        for a in range(k + 1):
            for b in range(k - a + 1):
                for c in range(k - a - b + 1):
                    yield (a, b, c, k - a - b - c, e)


def words_of_degree(n: int):
    return ["".join(p) for p in product("xy", repeat=n)]


def _ideal_columns(n: int):
    """Spanning vectors of the degree-n component of the defining ideal."""
    cols = []
    for rel in RELATIONS:
        for left_len in range(n - 3):
            right_len = n - 4 - left_len
            for u in words_of_degree(left_len):
                for v in words_of_degree(right_len):
                    cols.append({u + w + v: c for w, c in rel.items()})
    return cols


def _candidate_columns(n: int):
    """(monomial expo, basis index, word expansion) triples of degree n."""
    out = []
    for i, bword in enumerate(BASIS_WORDS):
        d = n - len(bword)
        if d < 0:
            continue
        for expo in _monomials_of_degree(d):
            expansion = {w + bword: c for w, c in _monomial_expansion(expo)}
            out.append((expo, i, expansion))
    return out


class _Echelon:
    """Row-sparse semi-echelon basis: the package's one exact elimination.

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


def _verify_over_z(target: dict, columns, coeffs: dict, what: str):
    """Raise unless sum of coeffs[j] * columns[j] equals target over Z."""
    acc = dict(target)
    for j, v in coeffs.items():
        for w, k in columns[j].items():
            acc[w] = acc.get(w, 0) - v * k
    if any(acc.values()):
        raise AssertionError(f"{what} failed exact verification")


class _DegreeSystem:
    """Candidate and ideal columns of one homogeneous degree: a target
    word-vector is solved over the candidate columns modulo the ideal.

    ``solve_int`` eliminates once mod a fixed prime, lifts each solution
    symmetrically to Z and verifies it exactly over Z before returning it;
    ``echelon`` eliminates the same columns in any field for the oracle.
    """

    PRIME = 9973

    def __init__(self, n: int):
        if n > MAX_ORACLE_DEGREE:
            raise NonTermination(f"oracle capped at degree {MAX_ORACLE_DEGREE}")
        self.n = n
        self.words = words_of_degree(n)
        self.index = {w: k for k, w in enumerate(self.words)}
        self.candidates = _candidate_columns(n)
        self.ideal = _ideal_columns(n)
        self.columns = [c for (_, _, c) in self.candidates] + self.ideal
        self.mod_prime = self.echelon(self.PRIME)

    def echelon(self, p: int | None, value=int) -> _Echelon:
        """The columns eliminated mod p, or with ``p=None`` over the field
        whose elements ``value`` makes of the integer entries."""
        ech = _Echelon(p)
        pivoted = [
            ech.add({self.index[w]: value(c) for w, c in col.items()}, j)
            for j, col in enumerate(self.columns)
        ]
        # candidates are linearly independent (freeness), so adding them
        # first makes every candidate column a pivot
        if not all(pivoted[: len(self.candidates)]):
            raise AssertionError("candidate columns failed to pivot")
        return ech

    def solve(self, ech: _Echelon, target: dict) -> dict:
        """{column: coefficient} with the columns so weighted equal to target."""
        rem, combo = ech.reduce({self.index[w]: c for w, c in target.items()})
        if rem:
            raise AssertionError("element not reducible: inconsistent system")
        return combo

    def solve_int(self, target: dict) -> dict:
        """{(monomial expo, basis index): int} with exact verification."""
        p = self.PRIME
        lifted = {}
        for c, v in self.solve(self.mod_prime, target).items():
            lifted[c] = v - p if v > p // 2 else v
        _verify_over_z(target, self.columns, lifted, "integer lift")
        sol = {}
        for c, v in lifted.items():
            if c < len(self.candidates):
                expo, i, _ = self.candidates[c]
                sol[(expo, i)] = v
        return sol


@lru_cache(maxsize=None)
def _degree_system(n: int) -> _DegreeSystem:
    return _DegreeSystem(n)


@lru_cache(maxsize=None)
def _oracle_echelon(field: FieldSpec, n: int):
    """The degree-n columns eliminated over ``field`` (residues mod p)."""
    sysd = _degree_system(n)
    return sysd, sysd.echelon(field.p, int if field.p else field.scalar)


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


def _word_coords_int(w: str) -> tuple:
    """The 18 coordinate polynomials of the word w, integer coefficients,
    each a sorted tuple of (exponent, coefficient)."""
    coords = [{} for _ in range(18)]
    for (expo, i), c in _degree_system(len(w)).solve_int({w: 1}).items():
        coords[i][expo] = c
    return tuple(tuple(sorted(col.items())) for col in coords)


@lru_cache(maxsize=None)
def _conversion_table_int():
    """Irreducible word -> its integer coordinate polynomials."""
    return {w: _word_coords_int(w) for w in irreducible_words()}


@lru_cache(maxsize=None)
def _structure_columns_int():
    """The ((letter, j, i), S-exponent, integer) terms of the coordinates
    i of BASIS_WORDS[j] * letter."""
    return [
        ((letter, j, i), e, c)
        for j, bword in enumerate(BASIS_WORDS)
        for letter in "xy"
        for i, col in enumerate(_word_coords_int(bword + letter))
        for e, c in col
    ]


# -- the algebra over a coefficient ring -------------------------------------------


class Rank18Element:
    """An 18-vector over the basis words with polynomial coefficients.

    ``base`` fixes the coefficient ring: a field k for the generic algebra
    over S = k[X3, AL, BE, Y3, GA], or a form f for the algebra over k[GA]
    specialized at f. Elements combine only with elements of an equal base;
    otherwise the subclass's ``MISMATCH`` error is raised.
    """

    __slots__ = ("base", "coords")
    MISMATCH = FieldMismatch

    def __init__(self, base, coords):
        self.base = base
        self.coords = tuple(coords)
        assert len(self.coords) == 18

    def _check(self, other):
        if self.base != other.base:
            raise self.MISMATCH(f"{self.base} vs {other.base}")

    def _like(self, coords):
        return type(self)(self.base, coords)

    def __add__(self, other):
        self._check(other)
        return self._like([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return self._like([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return self._like([-a for a in self.coords])

    def scale(self, c: Scalar):
        return self._like([a.scale(c) for a in self.coords])

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.base == other.base
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.base, self.coords))

    def __str__(self):
        parts = [f"[{i}] {c}" for i, c in enumerate(self.coords) if not c.is_zero()]
        return "0" if not parts else "; ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class GCAElement(Rank18Element):
    """An element in normal form: an 18-vector over S = k[X3,AL,BE,Y3,GA]."""

    __slots__ = ()

    @property
    def field(self) -> FieldSpec:
        return self.base

    def to_json(self):
        return {"coords": [str(c) for c in self.coords]}

    @staticmethod
    def from_json(field, obj):
        return GCAElement(
            field, [SPolynomial.parse(t, field, GCA_VARS) for t in obj["coords"]]
        )


def _gathered(p, rows: dict, den: int):
    """({letter: columns}, den) of the canonical ``rows``, the map of each
    letter keyed (j, i, monomial): column j lists the (i, monomial, raw
    numerator) triples of b_j * letter over den, the monomial None when it
    is the unit."""
    rows, den = canonical(p, rows, den)
    columns = {letter: [[] for _ in range(18)] for letter in "xy"}
    for letter, row in rows.items():
        cols = columns[letter]
        for (j, i, m), c in row.items():
            cols[j].append((i, m, c))
    return columns, den


@lru_cache(maxsize=16)
def generic_columns(field: FieldSpec):
    """(columns, 1): the columns of right multiplication by x and y on the
    basis over ``field``, each S-monomial of the integer columns its own
    monomial, derived once per field."""
    one = raw_scalar(field.one())[0]
    rows = {"x": {}, "y": {}}
    for (letter, j, i), e, n in _structure_columns_int():
        rows[letter][j, i, pack(e, 5) or None] = scaled(n, one)
    return _gathered(field.p, rows, 1)


class Rank18Algebra:
    """The rank-18 algebra over a coefficient ring, given by the flat
    ``columns`` of right multiplication by x and y over ``den``. Its kernel
    works on sparse raw vectors (rows, den): rows maps each nonzero
    coordinate i to its raw map (``spoly.Terms``'s layout) over the one den,
    canonical (``spoly.canonical``) so that equal vectors compare equal.
    Monomials are packed ints (``spoly.pack``), so a monomial product in the
    kernel is one integer addition. A fold, a reduction and a product are
    each one ``accumulate``, normalized once; a product reads its structure
    constants 1.b_i b_j from the word cache, as a reduction reads its words.
    ``_element`` alone makes ``SPolynomial``s, for results.

    One cache rule holds for every algebra, generic, specialized or moved:
    the columns are fixed at construction; the word cache (each folded word
    w, as 1.w, rooted at the unit e_0) is derived from them and lives as
    long as the algebra; nothing keeps an algebra after the call that built
    it."""

    ELEMENT = Rank18Element

    def __init__(self, base, field: FieldSpec, variables, columns, den: int):
        self.base = base
        self.field = field
        self.columns, self.den = columns, den
        self._zero = SPolynomial.zero(field, variables)
        self._unit = SPolynomial.const(field, 1, variables)
        self._word_cache = {"": self._scalar_vector(0, field.one())}

    def _element(self, vector):
        rows, den = vector
        zero = self._zero
        coords = [zero._make(rows[i], den) if i in rows else zero for i in range(18)]
        return self.ELEMENT(self.base, coords)

    def _vector(self, coords):
        """The canonical vector of 18 coordinates."""
        den = lcm(*(c.den for c in coords))
        return {
            i: {m: scaled(den // c.den, a) for m, a in c.raw.items()} if c.den != den else c.raw
            for i, c in enumerate(coords) if c.raw
        }, den

    def _scalar_vector(self, i: int, c: Scalar):
        """The canonical vector of c * e_i."""
        num, den = raw_scalar(c)
        return ({i: {self._zero._unit(): num}}, den) if not c.is_zero() else ({}, 1)

    def zero(self):
        return self._element(({}, 1))

    def one(self):
        return self.basis_element(0)

    def basis_element(self, i: int):
        coords = [self._zero] * 18
        coords[i] = self._unit
        return self.ELEMENT(self.base, coords)

    def scalar_element(self, poly: SPolynomial):
        coords = [self._zero] * 18
        coords[0] = poly
        return self.ELEMENT(self.base, coords)

    def _fold(self, items):
        """The canonical sum of vector times letter over the (vector,
        letter) items: row j of a vector times the triple (i, m, c) of
        column j adds its map times c*m to row i."""
        common = lcm(*(vec[1] for vec, _ in items))
        acc = {}
        for (rows, den), letter in items:
            cols, f = self.columns[letter], common // den
            entries = [
                (i, terms, m, c if f == 1 else scaled(f, c))
                for j, terms in rows.items()
                for i, m, c in cols[j]
            ]
            accumulate(self.field.p, acc, entries)
        return canonical(self.field.p, acc, common * self.den)

    def _central_relations(self, coeffs, cache: dict) -> list:
        """[B r == c B] for the four central relations r = c: r the word sum
        of X3, AL, BE or Y3 (three letters, coefficient 1), c its entry of
        ``coeffs`` and B the block cache[""]. A block is a vector whose
        monomials may carry exponents that the columns leave at 0, such as
        the row of a stack of vectors: the fold is linear over them, so it
        moves every row at once. B r is one ``_fold`` of the blocks B w[:2]
        (from ``cache``) by w[2]."""
        p, (rows, den) = self.field.p, cache[""]
        out = []
        for var, c in zip(GCA_VARS, coeffs):
            words = CENTRAL_EXPANSIONS[var]
            lhs = self._fold([(self._word_vector(w[:2], cache), w[2]) for w in words])
            num, c_den = raw_scalar(c)
            items = [(k, terms, None, num) for k, terms in rows.items()]
            out.append(lhs == canonical(p, accumulate(p, {}, items), den * c_den))
        return out

    def _word_vector(self, w: str, cache: dict, budget=None):
        """The vector of the word w, folded on from its longest prefix in
        ``cache`` (which holds the empty word); every prefix of at most
        ``PREFIX_CACHE_LETTERS`` letters folded on the way is stored in
        ``cache``. ``budget.charge`` is told the letters folded first."""
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
            vector = self._fold(((vector, w[pos]),))
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
        items = [
            (i, terms, None, scaled(common // den, c))
            for c, (rows, den) in vectors for i, terms in rows.items()
        ]
        return canonical(self.field.p, accumulate(self.field.p, {}, items), common * e.den)

    def reduce(self, e: FreeElement):
        """Normal form of a free element; folded words stay in the word cache."""
        return self._element(self._reduce(e, self._word_cache))

    def mul(self, u, v):
        """Product of normal forms, both with the algebra's base, from the
        structure constants: the sum over i, j of u_i v_j (1.b_i b_j) in one
        ``accumulate``, with 1.b_i b_j the vector of the word b_i b_j read
        from the word cache (``_word_vector``, which folds and stores a
        missing one).

        It is the product: u = sum u_i b_i and v = sum v_j b_j with the u_i
        and v_j in the central coefficient ring, so uv = sum u_i v_j b_i b_j.
        The normal form of a word w is its fold 1.w, and the normal form is
        linear over the coefficients, so the normal form of uv is
        sum u_i v_j (1.b_i b_j)."""
        if u.base != self.base or v.base != self.base:
            raise self.ELEMENT.MISMATCH(f"{u.base} and {v.base} in an algebra over {self.base}")
        p, cache = self.field.p, self._word_cache
        pairs = [
            (ui, vj, self._word_vector(bi + bj, cache))
            for bi, ui in zip(BASIS_WORDS, u.coords) if ui.raw
            for bj, vj in zip(BASIS_WORDS, v.coords) if vj.raw
        ]
        common = lcm(*(ui.den * vj.den * den for ui, vj, (_, den) in pairs))
        # the coefficients commute, so the inner loop of accumulate runs
        # over the larger of u_i and v_j
        items = [
            (k, a, mb + m or None, times(p, scaled(f, cb), c))
            for ui, vj, (rows, den) in pairs
            for f in (common // (ui.den * vj.den * den),)
            for a, b in ((ui.raw, vj.raw) if len(ui.raw) >= len(vj.raw) else (vj.raw, ui.raw),)
            for mb, cb in b.items()
            for k, terms in rows.items()
            for m, c in terms.items()
        ]
        return self._element((accumulate(p, {}, items), common))


class GenericCliffordAlgebra(Rank18Algebra):
    ELEMENT = GCAElement

    # bound in this class's own namespace, where per-class instrumentation
    # (bench/tracer.py) replaces them
    reduce, mul = Rank18Algebra.reduce, Rank18Algebra.mul

    def __init__(self, field: FieldSpec):
        if not field.has_omega():
            raise UnsupportedField("the algebra needs a field containing omega")
        super().__init__(field, field, GCA_VARS, *generic_columns(field))

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
        ``NumberTooLarge``."""
        run = _Evaluation(self, DEFAULT_SCAN_BUDGET if budget is None else budget)
        ring = free_ring(self.field)
        value = ExprParser(
            text,
            lambda q: run.free(ring.const(q)),
            lambda name, pos: run.free(ring.symbol(name, pos)),
        ).parse()
        return value.normal()

    # -- oracle route ------------------------------------------------------

    def oracle_reduce(self, e: FreeElement) -> GCAElement:
        """Authoritative reduction by exact linear algebra (degree-capped)."""
        if e.field != self.field:
            raise FieldMismatch(f"{e.field} vs {self.field}")
        total = self.zero()
        for n, part in e.homogeneous_parts().items():
            sysd, ech = _oracle_echelon(self.field, n)
            target = {w: c.val if self.field.p else c for w, c in part.terms.items()}
            coords = [self._zero] * 18
            for j, c in sysd.solve(ech, target).items():
                if j < len(sysd.candidates):
                    expo, i, _ = sysd.candidates[j]
                    term = SPolynomial.monomial(self.field, expo, self.field.scalar(c))
                    coords[i] = coords[i] + term
            total = total + GCAElement(self.field, coords)
        return total

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
                for i, col in enumerate(_conversion_table_int()[w]):
                    if col:
                        raw = {pack(e, 5): c if self.field.p else (c, 0) for e, c in col}
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


def _size(nf: GCAElement) -> int:
    """The number of S-monomials of a normal form."""
    return sum(len(c.raw) for c in nf.coords)


class _Evaluation:
    """One ``reduce_text``: the algebra, and the work charged so far."""

    __slots__ = ("alg", "limit", "used")

    def __init__(self, alg: GenericCliffordAlgebra, limit: int):
        self.alg = alg
        self.limit = limit
        self.used = 0

    def charge(self, n: int):
        self.used += n
        if self.used > self.limit:
            raise BudgetExceeded(
                f"reduce needs more than its budget of {self.limit} work units "
                f"({self.used} used)"
            )

    def counted(self, nf: GCAElement) -> GCAElement:
        self.charge(_size(nf))
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
        self.charge(_size(u) * _size(v))
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
