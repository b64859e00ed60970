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
* ``ideal_membership``: over Q, and a "member" answer is certified by
  verifying its combination of ideal columns over Z.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

from .errors import FieldMismatch, NonTermination, UnsupportedField
from .fields import FieldSpec, Scalar
from .freealg import (
    FreeElement,
    alpha_element,
    beta_element,
    delta_element,
    epsilon_commutators,
    gamma_element,
    gamma_element_alt,
    s_element,
)
from .spoly import GCA_VARS, SPolynomial, discriminant_polynomial, raw_scalar

BASIS_WORDS = (
    "",
    "x", "y",
    "xx", "xy", "yx", "yy",
    "xxy", "xyy", "yyx", "yxx",
    "xxyy", "xyxy", "xyxx", "yyxy",
    "xxyyx", "xyxyy",
    "xxyyxy",
)
BASIS_INDEX = {w: i for i, w in enumerate(BASIS_WORDS)}

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
    they are exact field values (``Fraction``, or ``Scalar`` over Q(w)).
    Each stored row is monic at its pivot and vanishes at the pivots of the
    rows stored before it, so one pass in insertion order reduces a vector.
    Every stored row also carries the combination of added rows, by key,
    that it equals.
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


def _int_poly(field: FieldSpec, col) -> SPolynomial:
    """The S-polynomial over ``field`` of (exponent, integer) pairs."""
    return SPolynomial._canonical(field, GCA_VARS, {e: c if field.p else (c, 0) for e, c in col})


@lru_cache(maxsize=None)
def _conversion_table_int():
    """Irreducible word -> its integer coordinate polynomials."""
    return {w: _word_coords_int(w) for w in irreducible_words()}


@lru_cache(maxsize=None)
def _structure_columns_int():
    """(letter, j) -> integer coordinate polys of BASIS_WORDS[j] * letter."""
    return {
        (letter, j): _word_coords_int(bword + letter)
        for j, bword in enumerate(BASIS_WORDS)
        for letter in "xy"
    }


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

    def scale_poly(self, s: SPolynomial):
        return self._like([a * s for a in self.coords])

    def scale(self, c: Scalar):
        """Every coordinate times ``c``, converted to raw form once."""
        if c.field != self.coords[0].field:
            raise FieldMismatch("scalar from a different field")
        num, den = raw_scalar(c)
        return self._like([a._lincomb(((num, a),), den) for a in self.coords])

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


class StructureMatrices:
    """Sparse columns of right multiplication by x and y on the basis."""

    __slots__ = ("field", "mx", "my")

    def __init__(self, field: FieldSpec):
        if not field.has_omega():
            raise UnsupportedField("the algebra needs a field containing omega")
        self.field = field
        cols = _structure_columns_int()
        self.mx = []
        self.my = []
        for j in range(18):
            for letter, store in (("x", self.mx), ("y", self.my)):
                polys = (_int_poly(field, col) for col in cols[(letter, j)])
                store.append([(i, p) for i, p in enumerate(polys) if not p.is_zero()])

    def column(self, letter: str, j: int) -> GCAElement:
        source = self.mx if letter == "x" else self.my
        coords = [SPolynomial.zero(self.field, GCA_VARS) for _ in range(18)]
        for i, p in source[j]:
            coords[i] = p
        return GCAElement(self.field, coords)


@lru_cache(maxsize=16)
def structure_matrices(field: FieldSpec) -> StructureMatrices:
    """The structure matrices over ``field``, derived once per field."""
    return StructureMatrices(field)


class Rank18Algebra:
    """The rank-18 algebra over a coefficient ring, given by the sparse
    columns ``mx``/``my`` of right multiplication by x and y (column j lists
    the nonzero ``(i, coefficient)`` of b_j * letter). Products fold words
    through the columns by ``_fold``, the one fold kernel; each output
    coordinate of a fold, a reduction or a product is one raw sum of
    products (``Terms._dot`` / ``Terms._lincomb``) with one normalization."""

    ELEMENT = Rank18Element

    def __init__(self, base, field: FieldSpec, variables, mx, my):
        self.base = base
        self.field = field
        self.mx, self.my = mx, my
        self._zero = SPolynomial.zero(field, variables)
        self._unit = SPolynomial.const(field, 1, variables)

    def _element(self, coords):
        return self.ELEMENT(self.base, coords)

    def zero(self):
        return self._element([self._zero] * 18)

    def one(self):
        return self.basis_element(0)

    def basis_element(self, i: int):
        coords = [self._zero] * 18
        coords[i] = self._unit
        return self._element(coords)

    def scalar_element(self, poly: SPolynomial):
        coords = [self._zero] * 18
        coords[0] = poly
        return self._element(coords)

    def _fold(self, items):
        """Sum of coords times letter over the (coords, letter) items: output
        i sums coords[j] * column_j[i], accumulated raw and normalized once."""
        rows = [[] for _ in range(18)]
        for coords, letter in items:
            for v, col in zip(coords, self.mx if letter == "x" else self.my):
                if v.raw:
                    for i, p in col:
                        rows[i].append((v, p))
        zero = self._zero
        return tuple(zero._dot(r) if r else zero for r in rows)

    def _mul_letter(self, coords, letter):
        """Coordinates times the letter: the one-item ``_fold``."""
        return self._fold(((coords, letter),))

    def _word_vector(self, w: str, cache: dict):
        """Coordinates of the word w, folded on from its longest prefix in
        ``cache`` (which holds the empty word); every prefix folded on the
        way is stored in ``cache``."""
        cached = cache.get(w)
        if cached is not None:
            return cached
        k = len(w) - 1
        while w[:k] not in cache:
            k -= 1
        coords = cache[w[:k]]
        for pos in range(k, len(w)):
            coords = self._mul_letter(coords, w[pos])
            cache[w[: pos + 1]] = coords
        return coords

    def _reduce(self, e: FreeElement, cache: dict):
        """Normal form of a free element: each word folded through mx/my."""
        if e.field != self.field:
            raise FieldMismatch(f"{e.field} vs {self.field}")
        vectors = [(c, self._word_vector(w, cache)) for w, c in e.raw.items()]
        zero = self._zero
        return self._element(
            [zero._lincomb([(c, v[i]) for c, v in vectors if v[i].raw], e.den) for i in range(18)]
        )

    def _mul(self, u, v):
        """Product of normal forms: u folded through the basis words of v
        (sharing prefixes), times v's coordinates."""
        cache = {"": u.coords}
        folds = [
            (self._word_vector(BASIS_WORDS[j], cache), vj) for j, vj in enumerate(v.coords) if vj.raw
        ]
        zero = self._zero
        return self._element(
            [zero._dot([(u_j[i], vj) for u_j, vj in folds if u_j[i].raw]) for i in range(18)]
        )


class GenericCliffordAlgebra(Rank18Algebra):
    ELEMENT = GCAElement

    def __init__(self, field: FieldSpec):
        self.matrices = structure_matrices(field)
        super().__init__(field, field, GCA_VARS, self.matrices.mx, self.matrices.my)
        self._word_cache = {"": self.one().coords}

    def reduce(self, e: FreeElement) -> GCAElement:
        """Normal form of a free element; folded words stay cached."""
        return self._reduce(e, self._word_cache)

    def reduce_text(self, text: str) -> GCAElement:
        from .freealg import parse_free_expression

        return self.reduce(parse_free_expression(text, self.field))

    def mul(self, u: GCAElement, v: GCAElement) -> GCAElement:
        u._check(v)
        return self._mul(u, v)

    def is_central(self, u: GCAElement) -> bool:
        x_el, y_el = self.basis_element(1), self.basis_element(2)
        return self.mul(u, x_el) == self.mul(x_el, u) and self.mul(u, y_el) == self.mul(
            y_el, u
        )

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
        (confluence evidence). Returns (element, steps_used).
        """
        if e.field != self.field:
            raise FieldMismatch(f"{e.field} vs {self.field}")
        state = {w: SPolynomial.const(self.field, c, GCA_VARS) for w, c in e.terms.items()}
        heap = [_deglex_desc(w) for w in state]
        heapq.heapify(heap)
        rows = [[] for _ in range(18)]
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
                        rows[i].append((coeff, _int_poly(self.field, col)))
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
        return GCAElement(self.field, [self._zero._dot(r) for r in rows]), steps

    # -- identity suite ---------------------------------------------------------

    def verify_center_identities(self) -> dict:
        """The four center/symbol identity groups, each reduced to zero."""
        field = self.field
        w = field.omega()
        one = field.one()
        x = FreeElement.generator(field, "x")
        y = FreeElement.generator(field, "y")
        d = delta_element(field)
        al, be, ga = alpha_element(field), beta_element(field), gamma_element(field)
        x3 = FreeElement.word(field, "xxx")
        y3 = FreeElement.word(field, "yyy")
        w2 = w * w

        report = {}

        def check(name, *differences):
            witnesses = [v for v in differences if not v.is_zero()]
            report[name] = {"pass": not witnesses}
            if witnesses:
                report[name]["witness"] = witnesses[0].to_json()

        # (i) delta*x = w^2*x*delta + alpha and y*delta = w^2*delta*y + beta
        check(
            "delta-commutation",
            self.reduce(d * x - (x * d).scale(w2) - al),
            self.reduce(y * d - (d * y).scale(w2) - be),
        )
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
        check("delta-six", self.reduce(d**6 - rhs))
        # (iii) s^2 = gamma^3 + Delta/4
        s_red = self.reduce(s_element(field))
        quarter = one / field.scalar(4)
        target = SPolynomial.variable(field, "GA", GCA_VARS) ** 3 + discriminant_polynomial(
            field
        ).scale(quarter)
        check("s-squared", self.mul(s_red, s_red) - self.scalar_element(target))
        # (iv) eps*x = w*x*eps and eps*y = w*y*eps + (1-w)*gamma
        check("epsilon-commutation", *map(self.reduce, epsilon_commutators(field)))
        return report


def validate_structure_columns() -> bool:
    """Re-expand every structure column back into the free algebra and check
    membership of the difference in the defining ideal over Q (independent
    of the mod-p pivoting that produced the columns)."""
    cols = _structure_columns_int()
    for (letter, j), coords in cols.items():
        target = BASIS_WORDS[j] + letter
        diff = {target: -1}
        for i, col in enumerate(coords):
            for expo, c in col:
                for w, k in _monomial_expansion(expo):
                    key = w + BASIS_WORDS[i]
                    diff[key] = diff.get(key, 0) + c * k
        diff = {w: c for w, c in diff.items() if c}
        if diff and not ideal_membership(diff, len(target)):
            return False
    return True


def gamma_expansions_agree(field: FieldSpec) -> bool:
    """(yx)^2 - x^2y^2 and (xy)^2 - y^2x^2 reduce to the same element GA*1."""
    alg = GenericCliffordAlgebra(field)
    lhs = alg.reduce(gamma_element(field))
    rhs = alg.reduce(gamma_element_alt(field))
    ga = alg.scalar_element(SPolynomial.variable(field, "GA", GCA_VARS))
    return lhs == rhs == ga
