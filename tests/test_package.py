"""Package-level guards: the public names, the methods that the benchmark
tracer (bench/tracer.py) wraps in each class's own namespace, the one
monomial representation of every route that builds polynomials, which
submodules each entry point loads, and no loop over a set's order."""

import ast
import importlib.util
import random
import subprocess
import sys
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
    # and each is bound to the one body of the rank-18 algebra
    for cls, name, body in (
        (GenericCliffordAlgebra, "reduce", "reduce"),
        (GenericCliffordAlgebra, "mul", "mul"),
        (SpecializedAlgebra, "reduce_free", "reduce"),
        (SpecializedAlgebra, "mul", "mul"),
    ):
        assert cls.__dict__[name] is Rank18Algebra.__dict__[body], f"{cls.__name__}.{name}"
    # the public constructor name keeps no algebra: it is the class itself
    assert cliffordf.specialized_algebra is SpecializedAlgebra


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


# -- lazy loading: each check runs in a fresh interpreter ------------------------

SUBMODULES = ("_parsing", "cli", "cliffordf", "curves", "errors", "fields", "forms", "freealg",
              "gca", "spoly")
# the public names by home module
PUBLIC = {
    "cliffordf": "CliffordFElement SpecializedAlgebra brauer_triviality_probe check_clifford_iso "
    "gamma_independence_check mul_af specialize specialized_algebra symbol_relations_check",
    "curves": "CubicExtension EllipticPoint PlaneCubicPoint cm_theta construct_cover_point "
    "curve_order curve_points ell_add ell_mul ell_neg j_invariant jacobian_constant "
    "lambda_isogeny lambda_kernel point_search torsion_points",
    "fields": "FieldSpec Scalar cube_root_in_field nth_power_class sixth_power_class_token "
    "sqrt_in_field",
    "forms": "BinaryCubicForm GL2Element act_gl2 diagonalize discriminant orbit_enumerate "
    "orbit_equivalent orbit_invariants stabilizer",
    "freealg": "FreeElement linear_substitute parse_free_expression",
    "gca": "BASIS_WORDS GCAElement GenericCliffordAlgebra",
    "spoly": "SPolynomial discriminant_polynomial",
}
LOADED = "sorted(m[13:] for m in sys.modules if m.startswith('cubiclifford.'))"
CLI_LAYER = ["_parsing", "cli", "curves", "errors", "fields", "forms"]
# one argv per subcommand of the forms and curves layers, each exiting 0
FORMS_ARGVS = [
    [command, "--field", "Fp", "--p", "7", "--coeffs", "1,0,0,2"]
    for command in ("disc", "diagonalize", "stab", "jacobian", "torsion", "lambda-kernel",
                    "cover-point")
] + [
    ["act", "--field", "Fp", "--p", "7", "--coeffs", "1,0,0,2", "--matrix", "1,1,0,1"],
    ["orbits", "--field", "Fp", "--p", "7"],
    ["point-search", "--field", "Q", "--coeffs", "1,0,0,-2", "--budget", "3"],
]


def fresh(code):
    """The last line that ``code`` prints in a fresh interpreter, as a literal."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def loaded_after(code):
    return fresh(f"import sys\n{code}\nprint({LOADED})")


def test_each_entry_point_loads_only_its_layers():
    assert loaded_after("import cubiclifford") == []
    assert loaded_after("import cubiclifford.cli") == CLI_LAYER
    assert loaded_after("import cubiclifford.gca") == [
        "_parsing", "errors", "fields", "freealg", "gca", "spoly"
    ]
    both = loaded_after("import cubiclifford.cliffordf\nprint(" + LOADED + ")\n"
                        "from cubiclifford import cliffordf, fields, forms\n"
                        "f = forms.BinaryCubicForm(fields.FieldSpec.rationals(), (1, 0, 0, 2))\n"
                        "cliffordf.brauer_triviality_probe(f, 2)")
    without = fresh("import sys, cubiclifford.cliffordf\nprint(" + LOADED + ")")
    assert "curves" not in without and "cli" not in without
    assert sorted(set(both) - set(without)) == ["curves"]


def test_forms_subcommands_never_load_the_algebra():
    code = f"""
import contextlib, io, sys
from cubiclifford import cli
added = []
for argv in {FORMS_ARGVS + [["reduce", "--field", "Qw", "--expr", "(x + y)^2"]]!r}:
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    added.append((argv[0], code, sorted(m[13:] for m in set(sys.modules) - before
                                        if m.startswith("cubiclifford."))))
print(added)
"""
    *forms_runs, reduce_run = fresh(code)
    assert forms_runs == [(argv[0], 0, []) for argv in FORMS_ARGVS]
    assert reduce_run == ("reduce", 0, ["freealg", "gca", "spoly"])


def test_public_api_resolves_lazily_to_the_home_objects():
    names = sorted(name for group in PUBLIC.values() for name in group.split())
    assert len(names) == 48
    code = f"""
import importlib, pickle, threading, cubiclifford
public, submodules = {PUBLIC!r}, {SUBMODULES!r}
home = {{n: m for m, group in public.items() for n in group.split()}}
undirred = sorted((set(home) | set(submodules)) - set(dir(cubiclifford)))
same = all(getattr(cubiclifford, n) is getattr(importlib.import_module("cubiclifford." + m), n)
           for n, m in home.items())
same_modules = all(getattr(cubiclifford, m) is importlib.import_module("cubiclifford." + m)
                   for m in submodules)
star = {{}}
exec("from cubiclifford import *", star)
star.pop("__builtins__")
try:
    cubiclifford.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
F = cubiclifford.FieldSpec.prime(7)
values = (F.scalar(3), cubiclifford.BinaryCubicForm(F, (1, 0, 0, 2)),
          cubiclifford.GenericCliffordAlgebra(F).reduce_text("x*y + 2*y*x*y"))
print((sorted(cubiclifford.__all__), same, same_modules, sorted(star), undirred, unknown,
       [pickle.loads(pickle.dumps(v)) == v for v in values]))
"""
    all_names, same, same_modules, star, undirred, unknown, pickled = fresh(code)
    assert all_names == names
    assert same and same_modules
    assert star == names
    assert undirred == []
    assert unknown == "AttributeError"
    assert pickled == [True, True, True]


def test_concurrent_first_access_resolves_identical_objects():
    code = f"""
import threading, cubiclifford
names = cubiclifford.__all__ + list({SUBMODULES!r})
barrier = threading.Barrier(8)
seen = [None] * 8

def resolve(k):
    barrier.wait()
    order = names[k:] + names[:k]
    got = {{n: getattr(cubiclifford, n) for n in order}}
    seen[k] = [got[n] for n in names]

threads = [threading.Thread(target=resolve, args=(k,)) for k in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(all(a is b for other in seen[1:] for a, b in zip(seen[0], other, strict=True)))
"""
    assert fresh(code) is True


def test_no_loop_iterates_a_set_display():
    # a set's iteration order follows the hash slots of its elements, so a
    # choice made by iterating one rests on an accident of CPython
    found = []
    for path in sorted(Path(cubiclifford.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            loop = isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
            if loop and isinstance(node.iter, (ast.Set, ast.SetComp)):
                found.append(f"{path.name}:{node.iter.lineno}")
    assert found == []
