"""Specialized algebras at a form: products, isomorphisms, probes."""

import random

import pytest

from conftest import F7, F13, Q, QW, rand_form, rand_gl2, rand_scalar
from oracles import (
    clifford_iso_by_substitution,
    relations_hold_by_reductions,
    symbol_check_by_expansion,
)

from cubiclifford.cliffordf import (
    SymbolReport,
    brauer_triviality_probe,
    check_clifford_iso,
    gamma_independence_check,
    mul_af,
    specialize,
    specialized_algebra,
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
from cubiclifford.forms import BinaryCubicForm, GL2Element, diagonalize, _hessian_coefficients
from cubiclifford.freealg import FreeElement, delta_element, parse_free_expression, s_element
from cubiclifford.gca import GenericCliffordAlgebra
from cubiclifford.spoly import GAMMA_VARS, SPolynomial

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
        r, s, t = _hessian_coefficients(f)
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


def test_freeness_check_answers_no_on_a_corrupted_column():
    # doubling one entry of any pushed mx or my column breaks a relation as
    # an operator identity; the columns of words of length >= 3 need the
    # relations applied beyond the unit vector to show it. On each broken
    # column the factored checks report what the word expansions report.
    f = BinaryCubicForm(F13, (1, 0, 0, 3))
    g = GL2Element(F13, (2, 5, 1, 3))
    alg = specialized_algebra(f)
    try:
        for name, cols in (("mx", alg.mx), ("my", alg.my)):
            for j, col in enumerate(cols):
                (i, q), *rest = col
                cols[j] = [(i, q + q), *rest]
                try:
                    assert gamma_independence_check(f, 1) is False, (name, j)
                    assert relations_hold_by_reductions(alg) is False, (name, j)
                    iso = check_clifford_iso(g, f).to_json()
                    assert iso == clifford_iso_by_substitution(g, f).to_json(), (name, j)
                    symbol = symbol_relations_check(f).to_json()
                    assert symbol == symbol_check_by_expansion(f).to_json(), (name, j)
                finally:
                    cols[j] = col
    finally:
        specialized_algebra.cache_clear()


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
