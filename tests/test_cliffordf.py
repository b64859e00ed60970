"""Specialized algebras at a form: products, isomorphisms, probes."""

import gc
import random
from fractions import Fraction

import pytest

from conftest import F7, F13, Q, QW, rand_form, rand_free_element, rand_gl2, rand_scalar
from oracles import (
    clifford_iso_by_substitution,
    hessian_coefficients,
    relations_hold_by_reductions,
    symbol_check_by_expansion,
)

from cubiclifford import cliffordf
from cubiclifford.cliffordf import (
    CliffordFElement,
    SpecializedAlgebra,
    SymbolReport,
    brauer_triviality_probe,
    check_clifford_iso,
    gamma_independence_check,
    mul_af,
    specialize,
    specialized_algebra,
    specialized_columns,
    symbol_relations_check,
)
from cubiclifford.curves import jacobian_constant
from cubiclifford.errors import (
    DegenerateForm,
    FormMismatch,
    HypothesisNotMet,
    SingularMatrix,
)
from cubiclifford.fields import FieldSpec, sqrt_in_field
from cubiclifford.forms import BinaryCubicForm, GL2Element, act_gl2, diagonalize
from cubiclifford.freealg import FreeElement, delta_element, parse_free_expression, s_element
from cubiclifford.gca import BASIS_WORDS, GenericCliffordAlgebra, Rank18Algebra
from cubiclifford.spoly import GAMMA_VARS, SLOT, SPolynomial, scaled

ALG7 = GenericCliffordAlgebra(F7)
ALG13 = GenericCliffordAlgebra(F13)


def test_specialize_defining_scalars():
    f = BinaryCubicForm(F7, (2, 3, 4, 5))
    alg = specialized_algebra(f)
    for text, coeff in (("x^3", 2), ("x^2*y + x*y*x + y*x^2", 3),
                        ("x*y^2 + y*x*y + y^2*x", 4), ("y^3", 5)):
        got = specialize(ALG7.reduce_text(text), f)
        assert got == alg.scalar_element(SPolynomial.const(F7, coeff, GAMMA_VARS))


def test_specialize_delta_cubed_at_fermat_form():
    # gamma*(e5 + 2 e4) + 3 e17 - 3 w^2 e0 at (1,0,0,1) over F_7
    f = BinaryCubicForm(F7, (1, 0, 0, 1))
    got = specialize(ALG7.reduce(delta_element(F7) ** 3), f)
    w = F7.omega()
    ga = SPolynomial.variable(F7, "GA", GAMMA_VARS)
    zero = SPolynomial.zero(F7, GAMMA_VARS)
    expected = [zero] * 18
    expected[0] = SPolynomial.const(F7, -F7.scalar(3) * w * w, GAMMA_VARS)
    expected[4] = ga.scale(F7.scalar(2))
    expected[5] = ga
    expected[17] = SPolynomial.const(F7, 3, GAMMA_VARS)
    assert list(got.coords) == expected


def test_mul_af_examples():
    f = BinaryCubicForm(F7, (3, 0, 0, 5))
    alg = specialized_algebra(f)
    x = alg.basis_element(1)
    assert alg.mul(alg.mul(x, x), x) == alg.scalar_element(
        SPolynomial.const(F7, 3, GAMMA_VARS)
    )
    u = alg.reduce_free(parse_free_expression("x*y - 2*y + 1", F7))
    assert alg.mul(u, alg.one()) == u
    assert alg.mul(alg.one(), u) == u
    ga = alg.gamma()
    y = alg.basis_element(2)
    assert alg.mul(ga, x) == alg.mul(x, ga)
    assert alg.mul(ga, y) == alg.mul(y, ga)
    with pytest.raises(FormMismatch):
        mul_af(u, specialized_algebra(BinaryCubicForm(F7, (1, 0, 0, 1))).one())
    v = specialized_algebra(BinaryCubicForm(F7, (1, 0, 0, 1))).basis_element(3)
    for a, b in ((v, v), (x, v), (v, x)):
        with pytest.raises(FormMismatch):
            alg.mul(a, b)


def test_specialization_is_algebra_map():
    rng = random.Random(60)
    from conftest import rand_free_element

    for field, alg in ((F7, ALG7), (F13, ALG13)):
        for _ in range(15):
            f = rand_form(field, rng)
            u = alg.reduce(rand_free_element(field, rng, max_len=5, max_terms=2))
            v = alg.reduce(rand_free_element(field, rng, max_len=5, max_terms=2))
            lhs = specialize(alg.mul(u, v), f)
            rhs = mul_af(specialize(u, f), specialize(v, f))
            assert lhs == rhs


def test_linear_cube_equals_form_value():
    # (p x + q y)^3 = f(p, q) * 1 in the specialized algebra
    rng = random.Random(61)
    for field in (F7, F13):
        for _ in range(100):
            f = rand_form(field, rng)
            alg = specialized_algebra(f)
            p, q = rand_scalar(field, rng), rand_scalar(field, rng)
            v = FreeElement.generator(field, "x").scale(p) + FreeElement.generator(
                field, "y"
            ).scale(q)
            got = alg.reduce_free(v**3)
            assert got == alg.scalar_element(
                SPolynomial.const(field, f.evaluate(p, q), GAMMA_VARS)
            )


def test_center_specialization_identity():
    # s_f^2 = GA^3 + Delta(f)/4 as a univariate identity, 50 random forms
    rng = random.Random(62)
    for field, alg in ((F7, ALG7), (F13, ALG13)):
        s_red = alg.reduce(s_element(field))
        for _ in range(25):
            f = rand_form(field, rng)
            saf = specialized_algebra(f)
            s_f = specialize(s_red, f)
            ga = SPolynomial.variable(field, "GA", GAMMA_VARS)
            target = ga**3 + SPolynomial.const(field, jacobian_constant(f), GAMMA_VARS)
            assert saf.mul(s_f, s_f) == saf.scalar_element(target)


def test_clifford_iso_identity():
    f = BinaryCubicForm(F7, (1, 2, 3, 1))
    report = check_clifford_iso(GL2Element.identity(F7), f)
    assert report.passed
    assert report.gamma_factor == F7.one()


def test_clifford_iso_random():
    rng = random.Random(63)
    for field in (F7, F13):
        for _ in range(100):
            f = rand_form(field, rng)
            g = rand_gl2(field, rng)
            report = check_clifford_iso(g, f)
            assert report.passed
            assert report.gamma_factor == g.det**2


def test_clifford_iso_diagonalize_transform_factor():
    # the diagonalizing transform has det = 2r*sqrt(D), so the reported
    # factor equals det^2 = 4 r^2 D
    rng = random.Random(64)
    from cubiclifford.errors import SquareRootAbsent

    done = 0
    while done < 25:
        f = rand_form(F13, rng)
        try:
            g, d = diagonalize(f)
        except SquareRootAbsent:
            continue
        if g == GL2Element.identity(F13):
            continue
        done += 1
        r, s, t = hessian_coefficients(f)
        if r.is_zero():
            continue  # swap fallback path: det identity below differs
        big_d = s * s - r * t
        report = check_clifford_iso(g, f)
        assert report.passed
        assert report.gamma_factor == g.det**2 == F13.scalar(4) * r**2 * big_d


def test_symbol_relations():
    assert symbol_relations_check(BinaryCubicForm(QW, (1, 0, 0, 1))).passed
    assert symbol_relations_check(BinaryCubicForm(F7, (1, 0, 0, 3))).passed
    rng = random.Random(65)
    for _ in range(10):
        assert symbol_relations_check(rand_form(F7, rng)).passed


def test_symbol_report_failure_contract():
    report = SymbolReport(
        {
            "eps-x-commutation": {"pass": True},
            "eps-y-commutation": {"pass": False, "witness": ["1"] + ["0"] * 17},
        },
        "eps-y-commutation",
    )
    blob = report.to_json()
    assert blob["pass"] is False
    assert blob["first_failure"] == "eps-y-commutation"
    assert blob["witness"][0] == "1"


def test_brauer_probe():
    probe = brauer_triviality_probe(BinaryCubicForm(Q, (1, 0, 0, 1)))
    assert probe.status == "trivial"
    assert [c.to_json() for c in probe.witness.coords] == [1, 0, 1]
    rng = random.Random(66)
    for _ in range(10):
        assert brauer_triviality_probe(rand_form(F7, rng)).status == "trivial"
    probe = brauer_triviality_probe(BinaryCubicForm(Q, (-75, 0, 0, -100)), budget=5)
    assert probe.status == "unknown-within-budget"
    assert probe.witness is None


def test_gamma_independence():
    assert gamma_independence_check(BinaryCubicForm(F7, (1, 0, 0, 1)), 2)
    assert gamma_independence_check(BinaryCubicForm(F7, (0, 1, 1, 0)), 2)
    for p in (2**61 - 1, 18446744073709551427):
        assert gamma_independence_check(BinaryCubicForm(FieldSpec.prime(p), (1, 0, 0, 1)), 2)
    with pytest.raises(DegenerateForm):
        gamma_independence_check(BinaryCubicForm(F7, (1, 0, 0, 0)), 2)
    # (0,1,0,1) has Delta = 3 and -108*Delta = 4*3 = 5, a nonsquare mod 7
    with pytest.raises(HypothesisNotMet):
        gamma_independence_check(BinaryCubicForm(F7, (0, 1, 0, 1)), 2)


P64 = FieldSpec.prime(18446744073709551427)

CORRUPTED = (
    (BinaryCubicForm(F13, (1, 0, 0, 3)), GL2Element(F13, (2, 5, 1, 3))),
    # beyond 2^63, and not diagonal, so every column has its AL and BE terms
    (BinaryCubicForm(P64, (2, 5, 1, 3)), GL2Element(P64, (3, 1, 4, 2))),
    (
        BinaryCubicForm(QW, (Fraction(1, 2), 0, 0, (3, 1))),
        GL2Element(QW, ((1, 1), Fraction(1, 3), 2, (0, -1))),
    ),
)


def doubled_entries(monkeypatch, f, first_only):
    """Yield (letter, j, delta) for each entry (delta, c) of column j of the
    pushed columns at f, or only the first of each column with
    ``first_only``. While it is yielded, ``cliffordf.specialized_columns``
    answers f with a copy of the columns that has that entry doubled, so
    every algebra built at f meanwhile has it: an algebra's columns are
    fixed at construction."""
    columns, den = specialized_columns(f)
    clean = cliffordf.specialized_columns
    for letter, cols in columns.items():
        for j, col in enumerate(cols):
            for delta, c in list(col.items())[:1] if first_only else col.items():
                broken_col = {**col, delta: scaled(2, c)}
                broken = {**columns, letter: [*cols[:j], broken_col, *cols[j + 1:]]}
                monkeypatch.setattr(
                    cliffordf,
                    "specialized_columns",
                    lambda form, broken=broken: (broken, den) if form == f else clean(form),
                )
                yield letter, j, delta
    monkeypatch.setattr(cliffordf, "specialized_columns", clean)


def test_freeness_check_answers_no_on_a_corrupted_column(monkeypatch):
    # doubling one entry of any pushed column breaks a relation as
    # an operator identity; the columns of words of length >= 3 need the
    # relations applied beyond the unit vector to show it. On each broken
    # column the factored checks report what the word expansions report.
    for f, g in CORRUPTED:
        for letter, j, _ in doubled_entries(monkeypatch, f, first_only=True):
            assert gamma_independence_check(f, 1) is False, (f, letter, j)
            assert relations_hold_by_reductions(SpecializedAlgebra(f)) is False, (f, letter, j)
            iso = check_clifford_iso(g, f).to_json()
            assert iso == clifford_iso_by_substitution(g, f).to_json(), (f, letter, j)
            symbol = symbol_relations_check(f).to_json()
            assert symbol == symbol_check_by_expansion(f).to_json(), (f, letter, j)


def test_block_identity_equals_the_72_row_reductions_at_every_entry(monkeypatch):
    # doubling any single entry of the pushed columns, the block identities
    # M_r = c*I answer what the 72 reductions of b_i (r - c) answer
    for f, _ in CORRUPTED:
        for _, _, entry in doubled_entries(monkeypatch, f, first_only=False):
            alg = SpecializedAlgebra(f)
            assert alg.relations_hold() is relations_hold_by_reductions(alg), (f, entry)


def test_freeness_check_folds_each_relation_once_for_all_rows(monkeypatch):
    # the 72 row checks e_i.(r - c) = 0 are one block identity per relation:
    # 18 folds reach the basis words from 1, 2 more reach GA, 6 fold the
    # 18-row block by xx, xy, yx, yy, and 4 fold it by the relations; a check
    # row by row takes 150
    folds = []
    fold = Rank18Algebra._fold

    def counted(self, items, p):
        folds.append(len(items))
        return fold(self, items, p)

    monkeypatch.setattr(Rank18Algebra, "_fold", counted)
    for f, _ in CORRUPTED:
        folds.clear()
        assert SpecializedAlgebra(f).relations_hold()
        assert len(folds) == 30, f


@pytest.mark.parametrize("field", (F7, P64, QW), ids=("7", "64bit", "Qw"))
def test_word_vectors_and_the_freeness_block_are_one_int_keyed_map(field, monkeypatch):
    # a vector is one map from i << shift | m to a raw numerator, and the
    # 18-row block carries its row in the slot above the coordinate, so one
    # fold of the block is the 18 folds of its rows
    rng = random.Random(f"flat:{field}")
    alg = SpecializedAlgebra(rand_form(field, rng))
    alg.reduce_free(rand_free_element(field, rng, max_len=7))
    blocks = []
    central_relations = Rank18Algebra._central_relations

    def spy(self, coeffs, cache):
        blocks.append(cache[""])
        return central_relations(self, coeffs, cache)

    monkeypatch.setattr(Rank18Algebra, "_central_relations", spy)
    alg.relations_hold()
    for raw, _ in [*alg._word_cache.values(), *blocks]:
        assert all(type(key) is int and type(c) in (int, tuple) for key, c in raw.items())
    unit = 1 if field.p else (1, 0)
    high = alg.shift + SLOT
    for w in ("x", "y", "yx", "xxy", "yyxy"):
        raw, den = alg._word_vector(w, {"": blocks[0]})
        for r in range(18):
            row = {key & ((1 << high) - 1): c for key, c in raw.items() if key >> high == r}
            alone = alg._word_vector(w, {"": ({r << alg.shift: unit}, 1)})
            assert alg._element((row, den)) == alg._element(alone), (w, r)


def _cached_and_fresh_reports(g, f):
    """The iso and symbol reports of a call that reuses the field's free
    elements, and of one that builds them afresh."""

    def reports():
        return check_clifford_iso(g, f).to_json(), symbol_relations_check(f).to_json()

    reports()
    cached = reports()
    assert cliffordf._symbol_elements(f.field) is cliffordf._symbol_elements(f.field)
    cliffordf._symbol_elements.cache_clear()
    return cached, reports()


def test_field_elements_of_the_checks_are_built_once_per_field():
    rng = random.Random(52)
    for field in (F7, FieldSpec.prime(18446744073709551427), QW):
        for _ in range(3):
            cached, fresh = _cached_and_fresh_reports(rand_gl2(field, rng), rand_form(field, rng))
            assert cached == fresh
            assert cached[0]["pass"] and cached[1]["pass"]


def test_field_elements_of_the_checks_on_corrupted_columns(monkeypatch):
    f, g = CORRUPTED[0]
    for _, j, _ in doubled_entries(monkeypatch, f, first_only=True):
        cached, fresh = _cached_and_fresh_reports(g, f)
        assert cached == fresh, j


def test_no_algebra_outlives_the_call_that_built_it():
    # the checks and mul_af build their algebra and keep none: no cache
    # keyed on the form holds one after the call
    rng = random.Random(72)
    forms = []
    for field in (F7, P64, QW):
        generic = GenericCliffordAlgebra(field)
        # g.(c0, 0, 0, c3) has -108*Delta a square, as the freeness check needs
        diagonal = BinaryCubicForm(field, (rand_scalar(field, rng, nonzero=True), 0, 0, 2))
        f, g = act_gl2(rand_gl2(field, rng), diagonal), rand_gl2(field, rng)
        forms.append(f)
        u, v = generic.reduce_text("x*y - 2*y + 1"), generic.reduce_text("y*x*x + x")
        assert mul_af(specialize(u, f), specialize(v, f)) == specialize(generic.mul(u, v), f)
        assert gamma_independence_check(f, 1)
        assert check_clifford_iso(g, f).passed
        assert symbol_relations_check(f).passed
    gc.collect()
    kept = [o for o in gc.get_objects() if isinstance(o, SpecializedAlgebra) and o.form in forms]
    assert kept == []


@pytest.mark.parametrize("field", (F7, P64, QW), ids=("7", "64bit", "Qw"))
def test_answers_do_not_depend_on_the_warmth_of_the_word_cache(field):
    # an algebra answers relations_hold, reduce_free and mul the same with
    # its word cache holding only the unit and after a product of two dense
    # elements has folded every word b_i b_j into it, and as a fresh one
    rng = random.Random(f"warm:{field}")
    f = rand_form(field, rng)
    free = [rand_free_element(field, rng, max_len=7, max_terms=3) for _ in range(4)]

    def answers(alg):
        u, v = alg.reduce_free(free[0]), alg.reduce_free(free[1])
        return alg.relations_hold(), [alg.reduce_free(e) for e in free], alg.mul(u, v)

    alg = SpecializedAlgebra(f)
    assert list(alg._word_cache) == [""]
    cold = answers(alg)
    dense = [
        CliffordFElement(f, [
            SPolynomial(field, GAMMA_VARS, {(0,): rand_scalar(field, rng, nonzero=True),
                                            (1,): rand_scalar(field, rng)})
            for _ in range(18)
        ])
        for _ in range(2)
    ]
    alg.mul(*dense)
    assert all(a + b in alg._word_cache for a in BASIS_WORDS for b in BASIS_WORDS)
    assert answers(alg) == cold == answers(SpecializedAlgebra(f))
    assert cold[0] is True


def _fractional(field, rng):
    """A random scalar, divided by a small integer so that Q(w) gets
    denominators."""
    return rand_scalar(field, rng) / field.scalar(rng.randint(1, 5))


@pytest.mark.parametrize(
    "field,count",
    (
        (F7, 25),
        (F13, 25),
        (FieldSpec.prime(2**61 - 1), 15),
        (FieldSpec.prime(18446744073709551427), 15),
        (QW, 6),
    ),
    ids=("7", "13", "2^61-1", "64bit", "Qw"),
)
def test_factored_checks_equal_the_word_expansions(field, count):
    rng = random.Random(f"factored:{field}")
    for _ in range(count):
        while True:
            f = BinaryCubicForm(field, [_fractional(field, rng) for _ in range(4)])
            if f.is_nondegenerate():
                break
        while True:
            try:
                g = GL2Element(field, [_fractional(field, rng) for _ in range(4)])
                break
            except SingularMatrix:
                continue
        iso = check_clifford_iso(g, f)
        assert iso.to_json() == clifford_iso_by_substitution(g, f).to_json()
        assert iso.passed
        assert symbol_relations_check(f).to_json() == symbol_check_by_expansion(f).to_json()
        alg = specialized_algebra(f)
        assert alg.relations_hold() is relations_hold_by_reductions(alg) is True


@pytest.mark.parametrize("p", (7, 13, 18446744073709551427))
def test_freeness_on_random_forms_meeting_the_hypothesis(p):
    field = FieldSpec.prime(p)
    rng = random.Random(68)
    checked = 0
    while checked < 30:
        f = rand_form(field, rng)
        if sqrt_in_field(field.scalar(-108) * f.discriminant()) is not None:
            assert gamma_independence_check(f, rng.randint(0, 3))
            checked += 1


def test_freeness_at_diagonal_specializations():
    # diagonal forms always satisfy the hypothesis (-108*Delta = (54ad)^2),
    # and the basis stays independent over k[GA] up to degree 3
    rng = random.Random(67)
    for _ in range(20):
        a, d = rng.randint(1, 12), rng.randint(1, 12)
        f = BinaryCubicForm(F13, (a, 0, 0, d))
        assert gamma_independence_check(f, 3)
