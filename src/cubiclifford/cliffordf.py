"""Specialized Clifford algebras: the generic rank-18 module evaluated at a
binary cubic form, leaving the degree-4 central generator formal.

Elements are 18-vectors over k[GA] (``gca.Rank18Element``). The
specialized algebra is the generic algebra with its structure columns
pushed through the specialization map S -> k[GA], (X3, AL, BE, Y3) -> the
form's coefficients, the same map that ``specialize`` applies to elements
(each monomial of the integer columns is evaluated at the coefficients
once, on raw numerators).
So the specialization map is an algebra homomorphism by construction; the
tests cross-check it as one. The freeness, symbol and GL2-isomorphism checks
fold sparse raw vectors (each one packed-key map, ``Rank18Algebra``)
through factors, not expanded words: whatever the columns, folding is a
right action of k<x, y>, v.(ab) = (v.a).b, linear in the columns, so the
answers are the same. The freeness and isomorphism checks test the four
central relations r = c by one block routine,
``Rank18Algebra._central_relations``, as B r = c B for a block B of rows:
the freeness check at the 18 unit rows at once, one vector with each row
in the slot above its coordinate, so as the matrix identity M_r = c*I, and
the isomorphism check at the one row of the unit of the moved algebra.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm, prod

from .errors import (
    FieldMismatch,
    FormMismatch,
    HypothesisNotMet,
    SingularMatrix,
)
from .fields import sqrt_in_field
from .forms import BinaryCubicForm, GL2Element, act_gl2
from .freealg import (
    epsilon_commutators,
    epsilon_element,
    gamma_element,
    linear_substitute,
)
from .gca import BASIS_WORDS, GCAElement, Rank18Algebra, Rank18Element
from .gca import _Echelon, _gathered, _structure_terms
from .spoly import GAMMA_VARS, SLOT, SPolynomial, accumulate, raw_scalar, scaled


class CliffordFElement(Rank18Element):
    """An element of the algebra at a fixed form: a vector over k[GA]."""

    __slots__ = ()
    MISMATCH = FormMismatch

    @property
    def form(self) -> BinaryCubicForm:
        return self.base

    def to_json(self):
        return {"form": self.form.to_json(), "coords": [str(c) for c in self.coords]}


def _specialization(f: BinaryCubicForm):
    """The ring map S -> k[GA] at f: (X3, AL, BE, Y3) -> f's coefficients."""
    c0, c1, c2, c3 = f.coeffs
    assign = {"X3": c0, "AL": c1, "BE": c2, "Y3": c3}
    return lambda p: p.substitute(assign, GAMMA_VARS)


@lru_cache(maxsize=None)
def _grouped_integer_columns():
    """The integer generic columns laid out for ``specialized_columns``: the
    keys (letter, j, delta) of the terms in column order, delta =
    ((i - j) << SLOT) + e for the term's GA^e (``_gathered``, the shift of
    k[GA] being SLOT), the monomials X3^a AL^b BE^c Y3^d of the terms outside
    GA as (a, b, c, d), and the keys of the terms n * X3^a AL^b BE^c Y3^d GA^e
    grouped by ((a, b, c, d), n)."""
    keys, groups = [], {}
    for (letter, j, i), e, n in _structure_terms():
        key = (letter, j, ((i - j) << SLOT) + e[4])
        keys.append(key)
        groups.setdefault((e[:4], n), []).append(key)
    monomials = tuple(dict.fromkeys(e for e, _ in groups))
    return tuple(keys), monomials, tuple((g, tuple(ks)) for g, ks in groups.items())


def specialized_columns(f: BinaryCubicForm):
    """(columns, den): the integer generic columns with each S-monomial
    X3^a AL^b BE^c Y3^d GA^e evaluated at f, as c0^a c1^b c2^c c3^d GA^e.
    Each monomial outside GA is evaluated once, and its raw numerator weights
    every term that has it in one ``accumulate``."""
    keys, monomials, groups = _grouped_integer_columns()
    field = f.field
    one = raw_scalar(field.one())[0]
    values = {}
    for e in monomials:
        factors = [c for c, k in zip(f.coeffs, e) for _ in range(k)]
        values[e] = raw_scalar(prod(factors[1:], start=factors[0]) if factors else field.one())
    den = lcm(*(d for _, d in values.values()))
    items = [
        (dict.fromkeys(ks, scaled(den // d, num)), None, scaled(n, one))
        for (e, n), ks in groups
        for num, d in (values[e],)
    ]
    return _gathered(field.p, accumulate(field.p, dict.fromkeys(keys, scaled(0, one)), items), den)


class SpecializedAlgebra(Rank18Algebra):
    """The rank-18 module over k[GA] at one nondegenerate form: the generic
    algebra with its structure columns pushed through the specialization
    map."""

    ELEMENT = CliffordFElement

    # bound in this class's own namespace, where per-class instrumentation
    # (bench/tracer.py) replaces them
    reduce_free, mul = Rank18Algebra.reduce, Rank18Algebra.mul

    def __init__(self, form: BinaryCubicForm):
        form.require_nondegenerate()
        self.form = form
        super().__init__(form, form.field, GAMMA_VARS, *specialized_columns(form))

    def gamma(self) -> CliffordFElement:
        return self.scalar_element(SPolynomial.variable(self.field, "GA", GAMMA_VARS))

    def relations_hold(self) -> bool:
        """Whether the pushed columns give k[GA]^18 a right action of A_f
        with 1.b_i = e_i and 1.GA = GA*1, where 1 is e_0 and v.a folds the
        free element a from v. The basis words and GA are folded from 1.

        Each central relation r = c (r the word sum of X3, AL, BE or Y3, c
        the form's coefficient) is checked as one matrix identity M_r = c*I
        on the block I of the 18 unit rows, by ``_central_relations``. Row i
        of M_r - c*I is e_i.(r - c), so the identity is exactly the 72 row
        checks e_i.(r - c) = 0; as v -> v.(r - c) is k[GA]-linear and the
        e_i span k[GA]^18, they make r - c act as 0. The block is one vector
        whose unit row i is the key (i << SLOT | i) << shift, its row i in
        the slot above the coordinate, which the fold leaves as it is, so
        each fold moves all 18 rows at once."""
        unit, cache = raw_scalar(self.field.one())[0], self._word_cache
        for i, word in enumerate(BASIS_WORDS):
            if self._word_vector(word, cache) != ({i << self.shift: unit}, 1):
                return False
        if self._reduce(gamma_element(self.field), cache) != ({1: unit}, 1):  # GA e_0
            return False
        block = ({(i << SLOT | i) << self.shift: unit for i in range(18)}, 1)
        return all(self._central_relations(self.form.coeffs, {"": block}))


specialized_algebra = SpecializedAlgebra


def specialize(u: GCAElement, f: BinaryCubicForm) -> CliffordFElement:
    """Evaluate the S-coefficients at the form, GA left formal."""
    if u.field != f.field:
        raise FieldMismatch(f"{u.field} vs {f.field}")
    f.require_nondegenerate()
    return CliffordFElement(f, map(_specialization(f), u.coords))


def mul_af(u: CliffordFElement, v: CliffordFElement) -> CliffordFElement:
    return SpecializedAlgebra(u.form).mul(u, v)


class IsoReport:
    __slots__ = ("relations", "gamma_factor", "gamma_expected")

    def __init__(self, relations, gamma_factor, gamma_expected):
        self.relations = relations
        self.gamma_factor = gamma_factor
        self.gamma_expected = gamma_expected

    @property
    def passed(self):
        return all(self.relations.values()) and self.gamma_factor == self.gamma_expected

    def to_json(self):
        return {
            "relations": self.relations,
            "gamma_factor": None if self.gamma_factor is None else self.gamma_factor.to_json(),
            "gamma_expected": self.gamma_expected.to_json(),
            "pass": self.passed,
        }


def _substituted_columns(alg: SpecializedAlgebra, g: GL2Element):
    """(columns, den) of M_{g.x} = a*M_x + c*M_y and M_{g.y} = b*M_x + d*M_y."""
    den = lcm(*(raw_scalar(e)[1] for e in g.entries()))
    a, b, c, d = (raw_scalar(e * g.field.scalar(den))[0] for e in g.entries())
    items = [
        ({(moved, j, delta): x for j, col in enumerate(cols) for delta, x in col.items()}, None, k)
        for moved, ks in (("x", (a, c)), ("y", (b, d)))
        for k, cols in zip(ks, (alg.columns["x"], alg.columns["y"]))
    ]
    return _gathered(g.field.p, accumulate(g.field.p, {}, items), alg.den * den)


def check_clifford_iso(g: GL2Element, f: BinaryCubicForm) -> IsoReport:
    """Verify that x -> g.x, y -> g.y carries the defining relations of the
    transformed form's algebra into identities at f, and report the induced
    scaling of the degree-4 central generator (must be det(g)^2). The fold
    is linear in the columns, so folding over the columns of g.x and g.y
    equals reducing the ``linear_substitute`` images over M_x and M_y. The
    four relations (word sum) = c are ``_central_relations`` at the block
    of one row, the unit e_0 of the moved algebra: 1.(r - c) = 0."""
    if g.field != f.field:
        raise FieldMismatch("matrix and form fields differ")
    f.require_nondegenerate()
    if g.det.is_zero():
        raise SingularMatrix("g must be invertible")
    field = f.field
    target = act_gl2(g, f)
    moved = Rank18Algebra(f, field, GAMMA_VARS, *_substituted_columns(SpecializedAlgebra(f), g))
    names = ("cube-x", "polarization-u2v", "polarization-uv2", "cube-y")
    relations = dict(zip(names, moved._central_relations(target.coeffs, moved._word_cache)))
    raw, den = moved._reduce(gamma_element(field), moved._word_cache)
    factor = None
    if raw.keys() <= {1}:  # GA^1 e_0 packed, the key of the monomial GA
        factor = SPolynomial._canonical(field, GAMMA_VARS, raw, den).terms.get((1,), field.zero())
    return IsoReport(relations, factor, g.det**2)


@lru_cache(maxsize=16)
def _symbol_elements(field) -> tuple:
    """epsilon and its two commutators (``epsilon_commutators``), built once
    per field for ``symbol_relations_check``."""
    return epsilon_element(field), epsilon_commutators(field)


class SymbolReport:
    __slots__ = ("checks", "first_failure")

    def __init__(self, checks, first_failure):
        self.checks = checks
        self.first_failure = first_failure

    @property
    def passed(self):
        return self.first_failure is None

    def to_json(self):
        out = {"checks": {k: v["pass"] for k, v in self.checks.items()}, "pass": self.passed}
        if self.first_failure is not None:
            out["first_failure"] = self.first_failure
            out["witness"] = self.checks[self.first_failure]["witness"]
        return out


def symbol_relations_check(f: BinaryCubicForm) -> SymbolReport:
    """The cyclic-algebra relations at f: eps*x = w*x*eps,
    eps*y = w*y*eps + (1-w)*gamma, and eps^3 central. As v.(ab) = (v.a).b,
    the reduction of eps^3*z - z*eps^3 is (1.eps^3).z - (1.z).eps.eps.eps."""
    f.require_nondegenerate()
    field = f.field
    alg = SpecializedAlgebra(f)
    eps, commutators = _symbol_elements(field)

    def times_eps3(v):
        for _ in range(3):
            v = alg._reduce(eps, {"": v})
        return v

    cache = alg._word_cache
    unit = cache[""]
    eps3 = times_eps3(unit)
    sides = [(alg._reduce(e, cache), ({}, 1)) for e in commutators] + [
        (alg._fold(((eps3, z),), field.p), times_eps3(alg._fold(((unit, z),), field.p)))
        for z in "xy"
    ]
    names = ("eps-x-commutation", "eps-y-commutation", "eps-cube-central-x", "eps-cube-central-y")
    checks, first_failure = {}, None
    for name, (lhs, rhs) in zip(names, sides):
        checks[name] = {"pass": lhs == rhs}
        if lhs != rhs:
            checks[name]["witness"] = (alg._element(lhs) - alg._element(rhs)).to_json()["coords"]
            first_failure = first_failure or name
    return SymbolReport(checks, first_failure)


class BrauerProbe:
    __slots__ = ("status", "witness")

    def __init__(self, status, witness):
        self.status = status
        self.witness = witness

    def to_json(self):
        out = {"status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def brauer_triviality_probe(f: BinaryCubicForm, budget: int | None = None) -> BrauerProbe:
    """A rational point on w^3 = f(u, v) certifies that the class of the
    specialized algebra is trivial; absence within budget proves nothing."""
    from . import curves  # the only use of curves: the algebra layers load without it

    f.require_nondegenerate()
    point = curves.point_search(f, budget)
    if point is None:
        return BrauerProbe("unknown-within-budget", None)
    return BrauerProbe("trivial", point)


def gamma_independence_check(f: BinaryCubicForm, degree_bound: int) -> bool:
    """Whether A_f is free over k[GA] on the 18 basis words b_i.

    psi(p) = sum p_i(GA) b_i maps k[GA]^18 onto A_f: the generic columns
    write each b_j * letter as an S-combination of basis words modulo the
    defining ideal (the literal ``gca._STRUCTURE_TABLE``, certified over Q
    by ``validate_structure_columns`` and re-derived at p = 31 by
    ``structure_terms_agree_at`` in ``tests/oracles.py``, on every test
    run), and specializing at f keeps that. ``relations_hold`` (1.b_i =
    e_i, and M_r = c*I for each central relation r = c, one block identity
    on all 18 unit rows) makes
    phi(a) = 1.a a map A_f -> k[GA]^18 with phi(psi(p)) = sum p_i(GA) e_i
    = p, so psi is also injective and a -> 1.a is an isomorphism A_f ->
    k[GA]^18. Freeness holds in every degree at once, so ``degree_bound``
    (echoed by the CLI) cannot change the answer.
    """
    delta = f.require_nondegenerate()
    if sqrt_in_field(f.field.scalar(-108) * delta) is None:
        raise HypothesisNotMet("sqrt(-108*Delta) is not in the field")
    return SpecializedAlgebra(f).relations_hold()


# ``linear_substitute`` stays imported, uncalled, as ``_rank`` stays: ``bench/tracer.py``
# wraps ``cliffordf:linear_substitute``, and ``bench/test_bench.py`` requires it to resolve.
def _rank(vectors, field) -> int:
    """Rank of dense rows, residues over F_p and Scalars otherwise, by the
    sparse exact kernel. Nothing calls it; it stays only as the target that
    ``bench/tracer.py`` and ``bench/worker.py`` name."""
    ech = _Echelon(field.p)
    return sum(ech.add(dict(enumerate(v))) for v in vectors)
