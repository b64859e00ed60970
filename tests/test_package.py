"""Package-level guards: the public names, the methods that the benchmark
tracer (bench/tracer.py) wraps in each class's own namespace, and the one
monomial representation of every route that builds polynomials."""

import importlib.util
import random
from pathlib import Path

import pytest
from conftest import F7, QW, rand_form, rand_free_element, rand_gl2

import cubiclifford
from cubiclifford import cliffordf
from cubiclifford.cliffordf import SpecializedAlgebra
from cubiclifford.forms import BinaryCubicForm
from cubiclifford.freealg import FreeElement
from cubiclifford.gca import GenericCliffordAlgebra, Rank18Algebra, Rank18Element, generic_columns
from cubiclifford.spoly import GAMMA_VARS, SLOT, SPolynomial

ARITHMETIC = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "scale")


def test_public_names_and_traced_methods_resolve():
    for name in cubiclifford.__all__:
        assert getattr(cubiclifford, name, None) is not None, name
    # the tracer replaces these through the class __dict__; a method that
    # only a base class defines would silently lose its per-layer counters
    for cls, names in (
        (GenericCliffordAlgebra, ("reduce", "mul", "verify_center_identities")),
        (SpecializedAlgebra, ("__init__", "mul", "reduce_free")),
        (SPolynomial, ARITHMETIC + ("substitute",)),
        (FreeElement, ARITHMETIC),
        (BinaryCubicForm, ("discriminant",)),
    ):
        for name in names:
            assert callable(cls.__dict__.get(name)), f"{cls.__name__}.{name}"


def test_bench_tracer_finds_every_target():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def assert_packed(*values):
    """Every monomial in the values is a packed int: the raw keys of an
    SPolynomial, of each coordinate of an element and of each row of a raw
    vector (rows, den), and the monomials of a column table (None for the
    unit)."""
    for value in values:
        if isinstance(value, SPolynomial):
            assert all(type(m) is int for m in value.raw), value.raw
        elif isinstance(value, Rank18Element):
            assert_packed(*value.coords)
        elif isinstance(value, tuple):
            rows, _ = value
            assert all(type(m) is int for row in rows.values() for m in row), rows
        else:
            monomials = [m for cols in value.values() for col in cols for _, m, _ in col]
            assert all(m is None or type(m) is int for m in monomials)
            assert any(type(m) is int for m in monomials)


@pytest.mark.parametrize("field", (F7, QW), ids=("7", "Qw"))
def test_every_route_keys_polynomials_by_packed_ints(field, monkeypatch):
    rng = random.Random(f"packed:{field}")
    p = SPolynomial.parse("X3^2*GA - 3*AL*Y3 + BE + 1", field)
    point = {"X3": 2, "AL": 3, "BE": 5, "Y3": 1}
    keep_two = p.substitute({"AL": 3, "BE": 5, "GA": 2}, ("Y3", "X3"))
    assert_packed(p, p.substitute(point, ("GA",)), keep_two)
    assert keep_two == SPolynomial.parse("2*X3^2 - 9*Y3 + 6", field, ("Y3", "X3"))
    assert_packed(p * p, p**3, p + p, -p, p.scale(field.scalar(2)))
    alg = GenericCliffordAlgebra(field)
    e1, e2 = (rand_free_element(field, rng, max_len=7, max_terms=3) for _ in range(2))
    u, v = alg.reduce(e1), alg.reduce(e2)
    assert_packed(u, v, alg.mul(u, v), alg.reduce_text("(x + y)^5 - 2*x*y"))
    assert_packed(alg.rewrite_reduce(e1)[0], alg.oracle_reduce(e1), generic_columns(field)[0])
    assert_packed(alg._fold([(alg._vector(u.coords), "x")]), *alg._word_cache.values())
    f = rand_form(field, rng)
    sp = SpecializedAlgebra(f)
    assert_packed(cliffordf.specialize(u, f), sp.reduce_free(e1), sp.columns)
    assert_packed(sp.mul(sp.reduce_free(e1), sp.reduce_free(e2)), sp.gamma())
    assert_packed(cliffordf._substituted_columns(sp, rand_gl2(field, rng))[0])
    # the stacked block of the freeness check and the moved algebra of the
    # isomorphism check, as _central_relations receives them
    seen = []
    central_relations = Rank18Algebra._central_relations

    def spy(self, coeffs, cache):
        seen.append((self.columns, cache[""]))
        return central_relations(self, coeffs, cache)

    monkeypatch.setattr(Rank18Algebra, "_central_relations", spy)
    sp.relations_hold()
    cliffordf.check_clifford_iso(rand_gl2(field, rng), f)
    assert len(seen) == 2
    for columns, block in seen:
        assert_packed(columns, block)
    assert seen[0][1][0] == {i: {i << SLOT: 1 if field.p else (1, 0)} for i in range(18)}
    assert_packed(SPolynomial(field, GAMMA_VARS, {(0,): 1, (2,): 3}))
