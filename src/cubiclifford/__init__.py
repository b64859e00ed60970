"""Exact computer algebra for binary cubic forms, the rank-18 generic
Clifford algebra they linearize through, and the elliptic curves attached
to them.

Everything is exact (rationals, Q(w), or prime fields with a cube root of
unity); there is no floating point anywhere. All values are immutable and
all operations pure, so the API is safe to drive from concurrent code.

Importing the package loads no submodule. Each public name, and each
submodule (``cubiclifford.gca``), is imported on first access (PEP 562), so
a caller compiles only the layers it uses: the forms and curves side
(``forms``, ``curves``) never loads the algebra side (``spoly``,
``freealg``, ``gca``, ``cliffordf``), and the reverse. That matters only
where bytecode is not cached (``PYTHONDONTWRITEBYTECODE``, read-only
installs), where compiling every layer costs some 50 ms per interpreter.
"""

import importlib

_EXPORTS = {
    "cliffordf": (
        "CliffordFElement", "SpecializedAlgebra", "brauer_triviality_probe", "check_clifford_iso",
        "gamma_independence_check", "mul_af", "specialize", "specialized_algebra",
        "symbol_relations_check",
    ),
    "curves": (
        "CubicExtension", "EllipticPoint", "PlaneCubicPoint", "cm_theta", "construct_cover_point",
        "curve_order", "curve_points", "ell_add", "ell_mul", "ell_neg", "j_invariant",
        "jacobian_constant", "lambda_isogeny", "lambda_kernel", "point_search", "torsion_points",
    ),
    "fields": (
        "FieldSpec", "Scalar", "cube_root_in_field", "nth_power_class", "sixth_power_class_token",
        "sqrt_in_field",
    ),
    "forms": (
        "BinaryCubicForm", "GL2Element", "act_gl2", "diagonalize", "discriminant",
        "orbit_enumerate", "orbit_equivalent", "orbit_invariants", "stabilizer",
    ),
    "freealg": ("FreeElement", "linear_substitute", "parse_free_expression"),
    "gca": ("BASIS_WORDS", "GCAElement", "GenericCliffordAlgebra"),
    "spoly": ("SPolynomial", "discriminant_polynomial"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "_parsing", "cli", "errors"})

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
