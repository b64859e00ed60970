"""Package-level guards: the public names, and the methods that the
benchmark tracer (bench/tracer.py) wraps in each class's own namespace."""

import importlib.util
from pathlib import Path

import cubiclifford
from cubiclifford.cliffordf import SpecializedAlgebra
from cubiclifford.forms import BinaryCubicForm
from cubiclifford.freealg import FreeElement
from cubiclifford.gca import GenericCliffordAlgebra
from cubiclifford.spoly import SPolynomial

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
