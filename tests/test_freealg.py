"""Free algebra k<x, y>: multiplication, substitution, parsing."""

import random

import pytest

from cubiclifford.errors import ParseError, SingularMatrix, UnknownSymbol, UnsupportedField
from cubiclifford.fields import FieldSpec
from cubiclifford.freealg import (
    FreeElement,
    alpha_element,
    beta_element,
    delta_element,
    epsilon_element,
    linear_substitute,
    parse_free_expression,
    word_text,
)
from cubiclifford.forms import GL2Element

Q = FieldSpec.rationals()
QW = FieldSpec.cyclotomic()
F7 = FieldSpec.prime(7)


def gen(field, letter):
    return FreeElement.generator(field, letter)


@pytest.mark.parametrize(
    "field,terms",
    [(F7, {"xz": 1}), (F7, {"q": 2}), (QW, {"xQ": 1}), (QW, {"xy": 1, 3: 1})],
    ids=("7-xz", "7-q", "Qw-xQ", "Qw-int"),
)
def test_an_element_has_words_in_x_and_y_only(field, terms):
    # a key with another letter is refused where the element is made, as
    # FreeElement.word refuses it, so no reduction or product meets it
    with pytest.raises(ValueError, match="is not a word in the letters xy"):
        FreeElement(field, terms)
    with pytest.raises(ValueError, match="is not a word in the letters xy"):
        FreeElement.word(field, "xz")
    two = FreeElement.one(field).scale(field.scalar(2))
    assert FreeElement(field, {"xy": 1, "": 2}) == gen(field, "x") * gen(field, "y") + two


def test_word_product():
    x, y = gen(Q, "x"), gen(Q, "y")
    assert (x * y).terms == {"xy": Q.one()}


def test_square_of_sum_noncommutative():
    x, y = gen(Q, "x"), gen(Q, "y")
    sq = (x + y) ** 2
    assert sq.terms == {w: Q.one() for w in ("xx", "xy", "yx", "yy")}


def test_cube_of_sum_has_all_eight_words():
    x, y = gen(Q, "x"), gen(Q, "y")
    cube = (x + y) ** 3
    assert len(cube.terms) == 8
    assert all(c == Q.one() for c in cube.terms.values())
    # the mixed words regroup into the two polarization sums
    mixed_1 = FreeElement(Q, {w: Q.one() for w in ("xxy", "xyx", "yxx")})
    assert mixed_1 == alpha_element(Q)
    mixed_2 = FreeElement(Q, {w: Q.one() for w in ("xyy", "yxy", "yyx")})
    assert mixed_2 == beta_element(Q)


def test_linear_substitute_identity_and_swap():
    e = parse_free_expression("x^2*y - 3*y*x + 1/2", Q)
    assert linear_substitute(GL2Element.identity(Q), e) == e
    swap = GL2Element.swap(Q)
    assert linear_substitute(swap, gen(Q, "x")) == gen(Q, "y")
    assert linear_substitute(swap, e) == parse_free_expression("y^2*x - 3*x*y + 1/2", Q)


def test_linear_substitute_unipotent_fixes_x_cube():
    g = GL2Element(Q, (1, 1, 0, 1))
    x3 = parse_free_expression("x^3", Q)
    assert linear_substitute(g, x3) == x3  # x -> a*x + c*y = x here


def test_linear_substitute_composition_law():
    rng = random.Random(8)
    for _ in range(30):
        entries = [rng.randint(-3, 3) for _ in range(8)]
        try:
            g = GL2Element(F7, entries[:4])
            h = GL2Element(F7, entries[4:])
        except SingularMatrix:
            continue
        e = FreeElement(
            F7,
            {
                "".join(rng.choice("xy") for _ in range(rng.randint(0, 4))): F7.scalar(
                    rng.randint(1, 6)
                )
                for _ in range(3)
            },
        )
        lhs = linear_substitute(g, linear_substitute(h, e))
        rhs = linear_substitute(g.mul(h), e)
        assert lhs == rhs


def test_singular_substitution_rejected():
    with pytest.raises(SingularMatrix):
        GL2Element(Q, (1, 2, 2, 4))


def test_parse_examples():
    e = parse_free_expression("x*y - w*y*x", QW)
    assert e.terms == {"xy": QW.one(), "yx": -QW.omega()}
    rel = parse_free_expression("x^3*y - y*x^3", Q)
    assert rel.terms == {"xxxy": Q.one(), "yxxx": -Q.one()}
    cube = parse_free_expression("(x+y)^3", Q)
    assert len(cube.terms) == 8


def test_parse_errors():
    with pytest.raises(UnknownSymbol):
        parse_free_expression("x + z", Q)
    with pytest.raises(ParseError) as err:
        parse_free_expression("x + ", Q)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_free_expression("x ** y", Q)
    with pytest.raises(UnsupportedField):
        parse_free_expression("w*x", Q)  # no omega over Q


def test_parse_print_round_trip():
    samples = [
        "0",
        "1",
        "x",
        "x^3*y - y*x^3",
        "2 - x*y + 3*y^2*x^2",
        "1/2 + 5/3*x",
    ]
    for text in samples:
        e = parse_free_expression(text, Q)
        assert str(e) == text
        assert parse_free_expression(str(e), Q) == e
    e = parse_free_expression("x*y - w*y*x + (1+w)*x", QW)
    assert parse_free_expression(str(e), QW) == e


def test_word_text():
    assert word_text("") == "1"
    assert word_text("xxyyx") == "x^2*y^2*x"
    assert word_text("xy") == "x*y"


def test_distributivity_random():
    rng = random.Random(9)

    def rand_elem():
        return FreeElement(
            F7,
            {
                "".join(rng.choice("xy") for _ in range(rng.randint(0, 3))): F7.scalar(
                    rng.randint(0, 6)
                )
                for _ in range(rng.randint(1, 4))
            },
        )

    for _ in range(30):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_distinguished_elements():
    d = delta_element(QW)
    assert d.terms["yx"] == QW.one() and d.terms["xy"] == -QW.omega()
    eps = epsilon_element(QW)
    w = QW.omega()
    assert eps.terms == {"xyx": QW.one(), "xxy": w, "yxx": w * w}


def test_json_export():
    e = parse_free_expression("x*y - 2*y", Q)
    assert e.to_json() == [{"word": "y", "coeff": -2}, {"word": "xy", "coeff": 1}]
