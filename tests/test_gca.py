"""The rank-18 algebra: structure matrices, reduction, center identities."""

import random
import subprocess
import sys
from fractions import Fraction

import pytest

import oracles
from conftest import F7, F7B, F13, Q, QW, rand_form, rand_free_element, rand_gl2, rand_scalar

from cubiclifford.cliffordf import (
    CliffordFElement,
    SpecializedAlgebra,
    check_clifford_iso,
    specialized_algebra,
    symbol_relations_check,
)
from cubiclifford.errors import (
    FieldMismatch,
    NonTermination,
    NumberTooLarge,
    UnsupportedField,
    VariableMismatch,
)
from cubiclifford.fields import FieldSpec
from cubiclifford.forms import BinaryCubicForm, GL2Element
from cubiclifford.freealg import (
    FreeElement,
    delta_element,
    epsilon_element,
    gamma_element,
    linear_substitute,
    parse_free_expression,
    s_element,
)
from cubiclifford.gca import (
    _conversion_terms,
    _identity_elements,
    _structure_terms,
    BASIS_WORDS,
    GCAElement,
    GenericCliffordAlgebra,
    Rank18Algebra,
    Rank18Element,
    generic_columns,
    irreducible_words,
)
from cubiclifford.spoly import GAMMA_VARS, GCA_VARS, MAX_EXPONENT, SPolynomial, canonical
from oracles import oracle_reduce, words_of_degree

F103 = FieldSpec.prime(103)
P64 = FieldSpec.prime(18446744073709551427)

ALG = {f: GenericCliffordAlgebra(f) for f in (QW, F7, F7B, F13)}


def poly(text, field):
    return SPolynomial.parse(text, field, GCA_VARS)


def test_basis_words_match_fixed_list():
    assert BASIS_WORDS == (
        "", "x", "y", "xx", "xy", "yx", "yy", "xxy", "xyy", "yyx", "yxx",
        "xxyy", "xyxy", "xyxx", "yyxy", "xxyyx", "xyxyy", "xxyyxy",
    )
    assert len(BASIS_WORDS) == 18


def column(alg, letter, j):
    """Column j of right multiplication by ``letter``: b_j times x or y."""
    return alg.mul(alg.basis_element(j), alg.basis_element({"x": 1, "y": 2}[letter]))


def test_structure_column_regressions():
    alg = ALG[QW]
    # b17 * x = GA*e7 + AL*e11 - X3*BE*e2 + X3*e14
    col = column(alg, "x", 17)
    assert col.coords[7] == poly("GA", QW)
    assert col.coords[11] == poly("AL", QW)
    assert col.coords[2] == poly("-X3*BE", QW)
    assert col.coords[14] == poly("X3", QW)
    assert sum(0 if c.is_zero() else 1 for c in col.coords) == 4
    # b17 * y = BE*e11 - AL*Y3*e1 + Y3*e13 (hand-derived independently)
    col = column(alg, "y", 17)
    assert col.coords[11] == poly("BE", QW)
    assert col.coords[1] == poly("-AL*Y3", QW)
    assert col.coords[13] == poly("Y3", QW)
    assert sum(0 if c.is_zero() else 1 for c in col.coords) == 3
    # b0 * x = e1 and b3 * x = X3 * e0
    assert column(alg, "x", 0) == alg.basis_element(1)
    assert column(alg, "x", 3) == alg.scalar_element(poly("X3", QW))


@pytest.mark.parametrize("n", (17, 19))
def test_an_element_needs_18_coordinates_also_under_python_O(n):
    # a raise, which python -O keeps: an assert let SpecializedAlgebra.mul
    # answer from 17 coordinates under -O
    f = BinaryCubicForm(F7, (1, 0, 0, 2))
    with pytest.raises(ValueError):
        GCAElement(F7, [SPolynomial.zero(F7)] * n)
    with pytest.raises(ValueError):
        CliffordFElement(f, [SPolynomial.zero(F7, GAMMA_VARS)] * n)
    with pytest.raises(ValueError):
        FreeElement.word(F7, "xyz")
    code = "\n".join((
        "from cubiclifford.cliffordf import CliffordFElement, SpecializedAlgebra",
        "from cubiclifford.fields import FieldSpec",
        "from cubiclifford.forms import BinaryCubicForm",
        "alg = SpecializedAlgebra(BinaryCubicForm(FieldSpec.prime(7), (1, 0, 0, 2)))",
        "try:",
        f"    print(alg.mul(alg.one(), CliffordFElement(alg.form, (alg.one().coords * 2)[:{n}])))",
        "except ValueError as err:",
        "    print('ValueError', err)",
    ))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"ValueError {n} coordinates, not 18"


def test_import_builds_no_structure_tables():
    # the literal tables are read into columns on first use, never at
    # import: every interpreter compiles and imports the package before its
    # first call
    code = (
        "from cubiclifford import cli, cliffordf, curves, fields, forms, freealg, gca, spoly; "
        "print([f.cache_info().currsize for f in "
        "(gca.generic_columns, gca._conversion_terms, cliffordf._grouped_integer_columns)])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0]"


def test_no_request_eliminates():
    # every algebra, the three cliffordf checks and the CLI read the literal
    # tables: with the elimination kernel refusing to start, they all answer
    code = "\n".join((
        "from cubiclifford import cli, cliffordf, fields, forms, freealg, gca",
        "def refuse(self, p=None):",
        "    raise AssertionError('eliminated')",
        "gca._Echelon.__init__ = refuse",
        "for field in (fields.FieldSpec.cyclotomic(), fields.FieldSpec.prime(7)):",
        "    alg = gca.GenericCliffordAlgebra(field)",
        "    u = alg.reduce(freealg.parse_free_expression('x*y*x - 2*y^2*x + 1', field))",
        "    assert alg.mul(u, u) == alg.reduce_text('(x*y*x - 2*y^2*x + 1)^2')",
        "    assert all(v['pass'] for v in alg.verify_center_identities().values())",
        "    f = forms.BinaryCubicForm(field, (1, 0, 0, 2))",
        "    assert cliffordf.gamma_independence_check(f, 2)",
        "    assert cliffordf.check_clifford_iso(forms.GL2Element(field, (1, 2, 3, 5)), f).passed",
        "    assert cliffordf.symbol_relations_check(f).passed",
        "print(cli.main(['reduce', '--field', 'Qw', '--expr', 'x^3*y - w*y*x^3']))",
    ))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0"


@pytest.mark.parametrize("field", (F7, P64, QW), ids=("7", "64bit", "Qw"))
def test_no_request_path_builds_coordinates(field, monkeypatch):
    # an element is its kernel vector: with the coordinate view refusing to
    # be read, the arithmetic and the algebra's checks all answer
    def refuse(self):
        raise AssertionError("coordinates built")

    monkeypatch.setattr(Rank18Element, "coords", property(refuse))
    rng = random.Random(f"no-coords:{field}")
    alg = GenericCliffordAlgebra(field)
    u, v = (alg.reduce(rand_free_element(field, rng, max_len=7)) for _ in range(2))
    w = alg.mul(u, v) + u - v.scale(field.scalar(3)) + -u
    assert w == alg.mul(u, v) - v.scale(field.scalar(3))
    assert hash(w) == hash(alg.mul(u, v) - v.scale(field.scalar(3)))
    assert alg.reduce_text("(x*y + 2*y^2*x)^3 - x") == alg.reduce(
        parse_free_expression("(x*y + 2*y^2*x)^3 - x", field)
    )
    assert all(group["pass"] for group in alg.verify_center_identities().values())
    f = BinaryCubicForm(field, (1, 0, 0, 2))
    sp = SpecializedAlgebra(f)
    a, b = (sp.reduce_free(rand_free_element(field, rng, max_len=5)) for _ in range(2))
    assert sp.mul(a + b, a) == sp.mul(a, a) + sp.mul(b, a)
    assert sp.relations_hold()
    assert check_clifford_iso(GL2Element(field, (1, 2, 3, 5)), f).passed
    assert symbol_relations_check(f).passed


@pytest.mark.parametrize("field", (Q, QW, F7, P64), ids=("Q", "Qw", "7", "64bit"))
def test_an_element_rebuilt_from_its_coordinates_is_equal(field):
    # coords is a view of the vector, and the constructor packs it back
    rng = random.Random(f"round-trip:{field}")
    for generic in (True, False):
        alg = _kernel_algebra(field, generic, rng)
        made = alg.reduce if generic else alg.reduce_free
        for _ in range(4):
            u, v = (made(rand_free_element(field, rng, max_len=7)) for _ in range(2))
            for e in (u, alg.mul(u, v), u + v, u - v.scale(field.scalar(2)), alg.zero()):
                rebuilt = type(e)(e.base, e.coords)
                assert rebuilt == e and hash(rebuilt) == hash(e)
                assert str(rebuilt) == str(e) and rebuilt.to_json() == e.to_json()


def test_elements_refuse_coefficients_of_another_ring():
    # a packed monomial means a term of its own ring only: X3 over the
    # variables (X3,) is the key of GA over S, so such a coordinate would be
    # read as another term, and a Q(w) pair as an F_7 residue
    alg = ALG[F7]
    zeros = [SPolynomial.zero(F7)] * 17
    for poly, error in (
        (SPolynomial.variable(F7, "X3", ("X3",)), VariableMismatch),
        (SPolynomial.variable(QW, "X3"), FieldMismatch),
        (SPolynomial.variable(F13, "X3"), FieldMismatch),
    ):
        with pytest.raises(error):
            GCAElement(F7, [poly] + zeros)
        with pytest.raises(error):
            GCAElement(F7, zeros + [poly])
        with pytest.raises(error):
            alg.scalar_element(poly)
    f = BinaryCubicForm(F7, (1, 0, 0, 2))
    sp = SpecializedAlgebra(f)
    for poly, error in (
        (SPolynomial.variable(F7, "GA"), VariableMismatch),
        (SPolynomial.variable(F13, "GA", GAMMA_VARS), FieldMismatch),
    ):
        with pytest.raises(error):
            CliffordFElement(f, [poly] + [SPolynomial.zero(F7, GAMMA_VARS)] * 17)
        with pytest.raises(error):
            sp.scalar_element(poly)
    # the elements of the ring itself are accepted
    x3 = SPolynomial.variable(F7, "X3")
    assert GCAElement(F7, [x3] + zeros) == alg.scalar_element(x3)
    assert alg.mul(alg.one(), alg.scalar_element(x3)) == alg.reduce(FreeElement.word(F7, "xxx"))


def test_structure_columns_ideal_membership():
    # every column of the literal table re-expands into the free algebra
    # modulo the defining ideal (exact membership over Q)
    assert oracles.validate_structure_columns()


def test_structure_columns_cross_derived_at_independent_prime():
    # re-derive every column with the oracle pivoting over p = 31 and
    # compare; every constant is below 31/2 in size, so agreement mod 31
    # pins each one over Z
    terms = _structure_terms()
    assert len(terms) == 70 and all(0 < abs(n) < 31 / 2 for _, _, n in terms)
    assert oracles.structure_terms_agree_at(31, terms)


def test_a_corrupted_structure_table_fails_both_certificates():
    # control: one constant with its sign flipped fails the Q certificate
    # and the p = 31 re-derivation
    terms = _structure_terms()
    key, e, n = terms[-1]
    corrupted = terms[:-1] + [(key, e, -n)]
    assert not oracles.validate_structure_columns(corrupted)
    assert not oracles.structure_terms_agree_at(31, corrupted)


def test_defining_relations_as_operator_identities():
    # right multiplication by x^3 (resp. y^3) is X3 (resp. Y3) times the
    # identity, and the two sides of the degree-4 relation act identically
    alg = ALG[QW]
    x3 = SPolynomial.variable(QW, "X3", GCA_VARS)
    y3 = SPolynomial.variable(QW, "Y3", GCA_VARS)
    for j in range(18):
        e = alg.basis_element(j)

        def fold(word, start=e):
            vector = start.raw, start.den
            for letter in word:
                vector = alg._fold(((vector, letter),), QW.p)
            return alg._element(vector)

        assert fold("xxx") == oracles.scale_poly(e, x3)
        assert fold("yyy") == oracles.scale_poly(e, y3)
        assert fold("xxxy") == fold("yxxx")
        assert fold("xyyy") == fold("yyyx")
        assert fold("xxyy") + fold("xyxy") == fold("yyxx") + fold("yxyx")


def _random_coords(alg, rng):
    """18 random coordinates in the algebra's coefficient ring, some zero."""
    field, variables = alg.field, alg._zero.variables
    coords = []
    for _ in range(18):
        terms = {
            tuple(rng.randint(0, 2) for _ in variables): rand_scalar(field, rng)
            / field.scalar(rng.randint(1, 6))
            for _ in range(rng.randint(0, 3))
        }
        coords.append(SPolynomial(field, variables, terms))
    return coords


@pytest.mark.parametrize("where", ("generic-Qw", "specialized-7", "specialized-64bit"))
def test_fold_is_the_sum_of_one_letter_folds(where):
    rng = random.Random(f"fold:{where}")
    if where == "generic-Qw":
        algebras = [ALG[QW]] * 3
    else:
        field = F7 if where == "specialized-7" else FieldSpec.prime(18446744073709551427)
        algebras = [specialized_algebra(rand_form(field, rng)) for _ in range(3)]
    for alg in algebras:
        for _ in range(10):
            items = [
                (oracles.vector_of(alg, _random_coords(alg, rng)), rng.choice("xy"))
                for _ in range(rng.randint(1, 4))
            ]
            expected = alg.zero()
            for vector, letter in items:
                expected = expected + alg._element(alg._fold(((vector, letter),), alg.field.p))
            assert alg._element(alg._fold(items, alg.field.p)) == expected


def _kernel_algebra(field, generic, rng):
    """A generic or specialized algebra over ``field``."""
    if generic:
        return GenericCliffordAlgebra(field)
    while True:  # coefficients with denominators over Q and Q(w)
        coeffs = [rand_scalar(field, rng) / field.scalar(rng.randint(1, 4)) for _ in range(4)]
        f = BinaryCubicForm(field, coeffs)
        if f.is_nondegenerate():
            return SpecializedAlgebra(f)


KERNEL_FIELDS = (F7, FieldSpec.prime(2**61 - 1), FieldSpec.prime(18446744073709551427), Q, QW)


@pytest.mark.parametrize("generic", (True, False), ids=("generic", "specialized"))
@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=("7", "2^61-1", "64bit", "Q", "Qw"))
def test_sparse_kernel_equals_the_dense_kernel(field, generic):
    # random vectors with zero coordinates and, over Q and Q(w), with
    # denominators other than 1: the sparse fold, reduction and product
    # give the dense answers, and every vector they return is canonical
    rng = random.Random(f"kernel:{field}:{generic}")
    for _ in range(2):
        alg = _kernel_algebra(field, generic, rng)
        for _ in range(6):
            items = [(_random_coords(alg, rng), rng.choice("xy")) for _ in range(rng.randint(1, 3))]
            vectors = [(oracles.vector_of(alg, coords), letter) for coords, letter in items]
            got = alg._fold(vectors, field.p)
            assert alg._element(got).coords == oracles.dense_fold(alg, items)
            assert got == oracles.vector_of(alg, oracles.dense_fold(alg, items))
            e = rand_free_element(field, rng, max_len=7) * FreeElement(
                field, {"": field.one() / field.scalar(rng.randint(1, 6))}
            )
            got = alg._reduce(e, {"": alg._word_cache[""]})
            assert alg._element(got) == oracles.dense_reduce(alg, e)
            assert got == oracles.vector_of(alg, alg._element(got).coords)
            u, v = (alg.ELEMENT(alg.base, _random_coords(alg, rng)) for _ in range(2))
            assert alg.mul(u, v) == oracles.dense_mul(alg, u, v)


def _word_vectors(alg, n: int) -> dict:
    """The word vector of every word of at most n letters, each folded
    through the algebra's word cache."""
    cache = alg._word_cache
    return {w: alg._word_vector(w, cache) for k in range(n + 1) for w in words_of_degree(k)}


def test_generic_columns_and_word_vectors_are_integers_over_q_and_q_w():
    # the structure constants are integers, so one integer table serves
    # every field, and over Q and Q(w) the word cache holds int maps over 1
    columns, den = generic_columns()
    values = [c for cols in columns.values() for col in cols for c in col.values()]
    assert den == 1 and len(values) == 70
    assert all(type(c) is int and c for c in values)
    rng = random.Random("integral")
    for alg in (GenericCliffordAlgebra(QW), GenericCliffordAlgebra(Q)):
        assert alg.columns is columns and alg.ring == 0
        _word_vectors(alg, 8)
        u, v = (alg.reduce(rand_free_element(alg.field, rng, max_len=12)) for _ in range(2))
        alg.mul(u, v)
        for raw, den in alg._word_cache.values():
            assert den == 1 and all(type(c) is int and c for c in raw.values()), raw


@pytest.mark.parametrize("p", (7, 18446744073709551427), ids=("7", "64bit"))
def test_word_vectors_over_q_w_reduce_mod_p_to_the_f_p_word_vectors(p):
    fp = GenericCliffordAlgebra(FieldSpec.prime(p))
    want = _word_vectors(fp, 8)

    def agrees(alg):
        return all(canonical(p, *vector) == want[w] for w, vector in _word_vectors(alg, 8).items())

    assert len(want) == 511 and agrees(GenericCliffordAlgebra(QW))
    # control: one column entry shifted by 1 breaks the agreement
    columns = {letter: [dict(col) for col in cols] for letter, cols in generic_columns()[0].items()}
    delta, c = next(iter(columns["y"][17].items()))
    columns["y"][17][delta] = c + 1
    assert not agrees(Rank18Algebra(QW, QW, GCA_VARS, columns, 1))


def test_defining_relations_reduce_to_zero():
    rels = (
        "x^3*y - y*x^3",
        "x*y^3 - y^3*x",
        "x^2*y^2 + x*y*x*y - y^2*x^2 - y*x*y*x",
    )
    for field in (QW, F7, F7B):
        alg = ALG[field]
        for rel in rels:
            assert alg.reduce_text(rel).is_zero()


def test_basis_words_reduce_to_unit_vectors():
    alg = ALG[F7]
    for i, w in enumerate(BASIS_WORDS):
        assert alg.reduce(FreeElement.word(F7, w)) == alg.basis_element(i)


def test_gamma_expansions_agree():
    # (yx)^2 - x^2y^2 and (xy)^2 - y^2x^2 both reduce to GA*1
    for field in (QW, F7):
        alg = ALG[field]
        ga = alg.scalar_element(poly("GA", field))
        assert alg.reduce(gamma_element(field)) == alg.reduce(oracles.gamma_element_alt(field)) == ga


def test_delta_cubed_normal_form():
    # gamma*(e5 + 2 e4) - BE e7 + 2 AL e8 + AL e9 + BE e10 + 3 e17
    #   + ((w + 2w^2) AL BE - 3 w^2 X3 Y3) e0, checked against the oracle
    alg = ALG[QW]
    got = alg.reduce(delta_element(QW) ** 3)
    w = QW.omega()
    e0 = (
        poly("AL*BE", QW).scale(w + w * w * 2)
        + poly("X3*Y3", QW).scale(-(w * w) * 3)
    )
    expected = {0: e0, 4: poly("2*GA", QW), 5: poly("GA", QW), 7: poly("-BE", QW),
                8: poly("2*AL", QW), 9: poly("AL", QW), 10: poly("BE", QW),
                17: poly("3", QW)}
    for i in range(18):
        assert got.coords[i] == expected.get(i, SPolynomial.zero(QW, GCA_VARS))
    assert oracle_reduce(alg, delta_element(QW) ** 3) == got


def test_mul_examples():
    alg = ALG[QW]
    x, y = alg.basis_element(1), alg.basis_element(2)
    assert alg.mul(x, y) == alg.basis_element(4)  # xy
    u = alg.reduce(parse_free_expression("x*y - 2*y*x*y + 3", QW))
    assert alg.mul(u, alg.one()) == u
    assert alg.mul(alg.one(), u) == u
    ga = alg.reduce(gamma_element(QW))
    assert alg.mul(ga, x) == alg.mul(x, ga)


def test_mul_rejects_operands_from_another_field():
    # u*u over the algebra's own field would be xx*xx = x^4; it must not
    # come back labelled with another field, nor fail untyped over Q(w)
    for home, alg in ALG.items():
        mine = alg.basis_element(3)
        for other in ALG:
            if other is home:
                continue
            u = ALG[other].basis_element(3)
            for a, b in ((u, u), (mine, u), (u, mine)):
                with pytest.raises(FieldMismatch):
                    alg.mul(a, b)


def test_centrality():
    alg = ALG[QW]
    central = [
        gamma_element(QW),
        delta_element(QW) ** 3,
        epsilon_element(QW) ** 3,
        s_element(QW),
    ]
    noncentral = [
        FreeElement.generator(QW, "x"),
        FreeElement.generator(QW, "y"),
        FreeElement.word(QW, "xy"),
        delta_element(QW),
        epsilon_element(QW),
    ]
    for e in central:
        assert oracles.is_central(alg, alg.reduce(e))
    for e in noncentral:
        assert not oracles.is_central(alg, alg.reduce(e))


def test_identity_elements_are_built_once_per_field():
    # a second call reuses the field's elements, and reports what a call
    # that builds them afresh reports
    for field in (F7, FieldSpec.prime(18446744073709551427), QW):
        alg = GenericCliffordAlgebra(field)
        _identity_elements.cache_clear()
        fresh = alg.verify_center_identities()
        assert _identity_elements(field) is _identity_elements(field)
        assert alg.verify_center_identities() == fresh
        assert all(entry["pass"] for entry in fresh.values())


def test_center_identities_all_fields():
    for field in (QW, F7, F7B, F13):
        report = ALG[field].verify_center_identities()
        assert len(report) == 4
        assert all(entry["pass"] for entry in report.values()), (field, report)


def test_confluence_evidence_three_routes():
    # matrices-fold vs randomized-order rewriting vs linear-algebra oracle
    alg = GenericCliffordAlgebra(F103)
    rng = random.Random(10)
    for _ in range(200):
        e = rand_free_element(F103, rng, max_len=8)
        via_matrices = alg.reduce(e)
        via_rewriter, _ = alg.rewrite_reduce(e, rng=rng)
        via_oracle = oracle_reduce(alg, e)
        assert via_matrices == via_rewriter == via_oracle


def test_confluence_evidence_over_qw():
    alg = ALG[QW]
    rng = random.Random(11)
    for _ in range(8):
        e = rand_free_element(QW, rng, max_len=6, max_terms=3)
        assert alg.reduce(e) == alg.rewrite_reduce(e, rng=rng)[0] == oracle_reduce(alg, e)


def test_confluence_evidence_over_qw_with_fractional_coefficients():
    # the shape of the requests a Q(w) client sends: words up to degree 8
    # and coefficients a + b*w with denominators 1-6 in both a and b
    alg = GenericCliffordAlgebra(QW)
    rng = random.Random(14)

    def fraction():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    forms = []
    for _ in range(12):
        terms = {}
        for _ in range(rng.randint(2, 4)):
            word = "".join(rng.choice("xy") for _ in range(rng.randint(0, 8)))
            terms[word] = QW.scalar((fraction(), fraction()))
        e = FreeElement(QW, terms)
        via_matrices = alg.reduce(e)
        assert via_matrices == alg.rewrite_reduce(e, rng=rng)[0] == oracle_reduce(alg, e)
        forms.append((e, via_matrices))
    for (e1, u), (e2, v) in zip(forms, forms[1:]):
        assert alg.mul(u, v) == alg.reduce(e1 * e2)


def test_oracle_handles_degree_nine():
    # epsilon^3 has 512 words of degree 9, the oracle's cap; both routes
    # agree and the result is central
    alg = GenericCliffordAlgebra(F103)
    e3 = epsilon_element(F103) ** 3
    via_oracle = oracle_reduce(alg, e3)
    assert via_oracle == alg.reduce(e3)
    assert oracles.is_central(alg, via_oracle)
    # dense degree-9 elements at primes whose residues overflow 64-bit
    # products: oracle, fold and rewriter still agree
    rng = random.Random(9)
    for p in (1073741719, 2**61 - 1, 18446744073709551427):
        field = FieldSpec.prime(p)
        alg = GenericCliffordAlgebra(field)
        e = FreeElement(field, {w: rand_scalar(field, rng, nonzero=True) for w in words_of_degree(9)})
        via_rewriter, _ = alg.rewrite_reduce(e, budget=100_000)
        assert oracle_reduce(alg, e) == alg.reduce(e) == via_rewriter


def test_rewriter_rewrites_each_word_once():
    # largest word first, each word at most once: a dense degree-9 element
    # takes at most one step per word of length <= 9 under the default budget
    alg = GenericCliffordAlgebra(F103)
    rng = random.Random(19)
    e = FreeElement(F103, {w: rand_scalar(F103, rng, nonzero=True) for w in words_of_degree(9)})
    via_rewriter, steps = alg.rewrite_reduce(e)
    assert steps <= 2**10 - 1
    assert via_rewriter == alg.reduce(e) == oracle_reduce(alg, e)


@pytest.mark.parametrize("field", [F103, QW], ids=str)
def test_rewriter_redex_choice_does_not_change_the_result(field):
    # deterministic (leftmost redex) and five random-redex runs agree with
    # the fold on every basis product and on seeded random elements
    alg = GenericCliffordAlgebra(field)
    rngs = [None] + [random.Random(seed) for seed in range(5)]
    products = [FreeElement.word(field, w + letter) for w in BASIS_WORDS for letter in "xy"]
    elements_rng = random.Random(23)
    elements = [rand_free_element(field, elements_rng, max_len=8) for _ in range(30)]
    for e in products + elements:
        via_matrices = alg.reduce(e)
        for rng in rngs:
            assert alg.rewrite_reduce(e, rng=rng)[0] == via_matrices


def test_rewrite_step_budget_on_basis_products():
    alg = ALG[QW]
    for w in BASIS_WORDS:
        for letter in "xy":
            _, steps = alg.rewrite_reduce(FreeElement.word(QW, w + letter))
            assert steps <= 64


def test_rewrite_budget_error():
    alg = ALG[QW]
    with pytest.raises(NonTermination):
        alg.rewrite_reduce(FreeElement.word(QW, "yxyxyxyx"), budget=1)


def test_irreducible_words_mirror_basis_profile():
    words = irreducible_words()
    assert len(words) == 18
    assert max(len(w) for w in words) == 6
    # same degree profile as the basis words: 1, 2, 4, 4, 4, 2, 1
    profile = [sum(1 for w in words if len(w) == n) for n in range(7)]
    basis_profile = [sum(1 for w in BASIS_WORDS if len(w) == n) for n in range(7)]
    assert profile == basis_profile == [1, 2, 4, 4, 4, 2, 1]
    assert set(BASIS_WORDS) - set(words) == {
        "yyx", "yxx", "xyxx", "yyxy", "xxyyx", "xxyyxy",
    }


def test_conversion_table_hand_checks():
    # the six entries of the irreducible-word conversion table that are not
    # basis words, derived by hand from the alpha/beta identities alone;
    # every irreducible word converts as the oracle reduces it, at p = 31
    # and over Q(w)
    others = set(_conversion_terms()) - set(BASIS_WORDS)
    assert others | (set(BASIS_WORDS) & set(irreducible_words())) == set(irreducible_words())

    def vec(**coords):
        out = [SPolynomial.zero(QW, GCA_VARS)] * 18
        for key, text in coords.items():
            out[int(key[1:])] = poly(text, QW)
        return GCAElement(QW, out)

    by_hand = {
        "xyx": vec(e0="AL", e7="-1", e10="-1"),
        "yxy": vec(e0="BE", e8="-1", e9="-1"),
        "xxyx": vec(e1="AL", e2="-X3", e13="-1"),
        "yxyy": vec(e1="-Y3", e2="BE", e14="-1"),
        "xxyxy": vec(e3="BE", e6="-X3", e15="-1"),
        "xxyxyy": vec(e0="-X3*Y3", e7="BE", e17="-1"),
    }
    assert set(by_hand) == others
    for w, want in by_hand.items():
        assert ALG[QW].rewrite_reduce(FreeElement.word(QW, w))[0] == want
    for field in (FieldSpec.prime(31), QW):
        alg = GenericCliffordAlgebra(field)
        for w in irreducible_words():
            e = FreeElement.word(field, w)
            assert alg.rewrite_reduce(e) == (oracle_reduce(alg, e), 0)


def test_algebra_over_q_raises_only_where_omega_is_needed():
    # every structure constant is an integer, so the algebra over Q reduces
    # and multiplies; the identities name omega, which Q lacks
    alg = GenericCliffordAlgebra(Q)
    assert str(alg.reduce_text("(x + y)^3 - 1/2*x*y")) == "[0] X3 + AL + BE + Y3; [4] -1/2"
    with pytest.raises(UnsupportedField, match="Q has no primitive cube root of unity"):
        alg.verify_center_identities()


def test_q_answers_equal_q_w_answers_on_rational_inputs():
    # reduce, mul, relations_hold and check_clifford_iso print over Q what
    # they print over Q(w) on the same rational inputs
    rng = random.Random("q-vs-qw")

    def lift(c):
        return QW.scalar(str(c))

    over_q, over_qw = GenericCliffordAlgebra(Q), GenericCliffordAlgebra(QW)
    for _ in range(20):
        es = [rand_free_element(Q, rng, max_len=7, max_terms=3) for _ in range(2)]
        ews = [FreeElement(QW, {w: lift(c) for w, c in e.terms.items()}) for e in es]
        (u, v), (uw, vw) = map(over_q.reduce, es), map(over_qw.reduce, ews)
        assert (str(u), str(v)) == (str(uw), str(vw))
        assert str(over_q.mul(u, v)) == str(over_qw.mul(uw, vw))
    for _ in range(10):
        f, g = rand_form(Q, rng), rand_gl2(Q, rng)
        fw = BinaryCubicForm(QW, [lift(c) for c in f.coeffs])
        gw = GL2Element(QW, [lift(c) for c in g.entries()])
        assert SpecializedAlgebra(f).relations_hold() is SpecializedAlgebra(fw).relations_hold() is True
        got, want = check_clifford_iso(g, f), check_clifford_iso(gw, fw)
        assert (got.relations, got.passed) == (want.relations, want.passed)
        assert str(got.gamma_factor) == str(want.gamma_factor) == str(got.gamma_expected)


def test_associativity_random():
    alg = ALG[F13]
    rng = random.Random(12)
    for _ in range(40):
        u, v, w = (alg.reduce(rand_free_element(F13, rng, max_len=4, max_terms=3)) for _ in range(3))
        assert alg.mul(alg.mul(u, v), w) == alg.mul(u, alg.mul(v, w))


def test_mul_matches_free_product():
    alg = ALG[F13]
    rng = random.Random(13)
    for _ in range(30):
        e1 = rand_free_element(F13, rng, max_len=5, max_terms=2)
        e2 = rand_free_element(F13, rng, max_len=5, max_terms=2)
        assert alg.mul(alg.reduce(e1), alg.reduce(e2)) == alg.reduce(e1 * e2)


@pytest.mark.parametrize("field", (F7, P64, QW), ids=("7", "64bit", "Qw"))
def test_mul_through_a_warm_word_cache_equals_a_fresh_algebra_and_the_free_product(field):
    # mul reads each 1.b_i b_j from the algebra's word cache, warmed by
    # every reduce and mul before, in the generic and the specialized algebra
    rng = random.Random(f"mul-cache:{field}")
    warm = GenericCliffordAlgebra(field)
    full = FreeElement(field, {w: rand_scalar(field, rng, nonzero=True) for w in BASIS_WORDS})
    pairs = [(full, full)] + [
        tuple(rand_free_element(field, rng, max_len=7, max_terms=3) for _ in range(2))
        for _ in range(8)
    ]
    for e1, e2 in pairs:
        u, v = warm.reduce(e1), warm.reduce(e2)
        fresh = GenericCliffordAlgebra(field)
        assert warm.mul(u, v) == fresh.mul(u, v) == fresh.reduce(e1 * e2)
    assert all(a + b in warm._word_cache for a in BASIS_WORDS for b in BASIS_WORDS)
    form = rand_form(field, rng)
    alg = SpecializedAlgebra(form)
    for e1, e2 in pairs:
        u, v = alg.reduce_free(e1), alg.reduce_free(e2)
        assert alg.mul(u, v) == SpecializedAlgebra(form).mul(u, v) == alg.reduce_free(e1 * e2)


def test_exponent_bound_in_reduce_text_and_mul():
    # the largest exponent round-trips; one step past it raises
    # NumberTooLarge, also when each operand is legal: x^3300000000 was
    # X3^1100000000 before the bound
    top, half = MAX_EXPONENT, (MAX_EXPONENT + 1) // 2
    alg = ALG[F7]
    assert str(alg.reduce_text(f"x^{3 * top}")) == f"[0] X3^{top}"
    assert str(alg.reduce_text(f"y^{3 * top + 1}")) == f"[2] Y3^{top}"
    assert str(alg.reduce_text(f"(x^{3 * half})*(x^{3 * half - 3})")) == f"[0] X3^{top}"
    for text in (
        f"x^{3 * top + 3}",
        "x^3300000000",
        f"(x^{3 * half})*(x^{3 * half})",
        f"(x^{3 * half})^2",
        f"(x^{3 * top})*x*x*x",
        f"y^{3 * top + 3}",
    ):
        with pytest.raises(NumberTooLarge):
            alg.reduce_text(text)
    big = alg.scalar_element(poly(f"X3^{top}", F7))
    x, xx = alg.basis_element(1), alg.basis_element(3)
    assert alg.mul(big, x) == alg.mul(x, big)
    assert str(alg.mul(big, x)) == f"[1] X3^{top}"
    assert alg.mul(alg.scalar_element(poly(f"X3^{top - 1}", F7)), alg.reduce_text("x^3")) == big
    # the structure constant of xx*x = X3 is the third summand of a product
    # monomial: X3^top*xx times x, and X3^top*xx times X3^top*x
    for u, v in ((alg.mul(big, xx), x), (alg.mul(big, xx), alg.mul(big, x)), (big, big)):
        with pytest.raises(NumberTooLarge):
            alg.mul(u, v)
    sp = specialized_algebra(BinaryCubicForm(F7, (1, 0, 0, 3)))
    ga_top = sp.scalar_element(SPolynomial.parse(f"GA^{top}", F7, GAMMA_VARS))
    assert sp.mul(ga_top, sp.one()) == ga_top
    with pytest.raises(NumberTooLarge):
        sp.mul(ga_top, sp.gamma())


def test_linear_cube_is_generic_form_value():
    # (p x + q y)^3 reduces to (p^3 X3 + p^2 q AL + p q^2 BE + q^3 Y3) * 1
    alg = ALG[F13]
    rng = random.Random(14)
    x, y = FreeElement.generator(F13, "x"), FreeElement.generator(F13, "y")
    for _ in range(50):
        p, q = rand_scalar(F13, rng), rand_scalar(F13, rng)
        v = x.scale(p) + y.scale(q)
        want = (
            poly("X3", F13).scale(p**3)
            + poly("AL", F13).scale(p**2 * q)
            + poly("BE", F13).scale(p * q**2)
            + poly("Y3", F13).scale(q**3)
        )
        assert alg.reduce(v**3) == alg.scalar_element(want)


def test_gamma_and_s_transform_by_determinant_powers():
    alg = ALG[F13]
    rng = random.Random(15)
    ga_free, s_free = gamma_element(F13), s_element(F13)
    ga_red, s_red = alg.reduce(ga_free), alg.reduce(s_free)
    for _ in range(25):
        g = rand_gl2(F13, rng)
        assert alg.reduce(linear_substitute(g, ga_free)) == ga_red.scale(g.det**2)
        assert alg.reduce(linear_substitute(g, s_free)) == s_red.scale(g.det**3)


def test_gca_element_json_round_trip():
    alg = ALG[QW]
    u = alg.reduce(parse_free_expression("x*y - w*y*x + 1/2", QW))
    blob = u.to_json()
    assert len(blob["coords"]) == 18
    assert GCAElement.from_json(QW, blob) == u
