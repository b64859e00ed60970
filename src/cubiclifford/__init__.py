"""Exact computer algebra for binary cubic forms, the rank-18 generic
Clifford algebra they linearize through, and the elliptic curves attached
to them.

Everything is exact (rationals, Q(w), or prime fields with a cube root of
unity); there is no floating point anywhere. All values are immutable and
all operations pure, so the API is safe to drive from concurrent code.
"""

from .cliffordf import (
    CliffordFElement,
    SpecializedAlgebra,
    brauer_triviality_probe,
    check_clifford_iso,
    gamma_independence_check,
    mul_af,
    specialize,
    specialized_algebra,
    symbol_relations_check,
)
from .curves import (
    CubicExtension,
    EllipticPoint,
    PlaneCubicPoint,
    cm_theta,
    construct_cover_point,
    curve_order,
    curve_points,
    ell_add,
    ell_mul,
    ell_neg,
    j_invariant,
    jacobian_constant,
    lambda_isogeny,
    lambda_kernel,
    point_search,
    torsion_points,
)
from .fields import (
    FieldSpec,
    Scalar,
    cube_root_in_field,
    nth_power_class,
    sixth_power_class_token,
    sqrt_in_field,
)
from .forms import (
    BinaryCubicForm,
    GL2Element,
    act_gl2,
    diagonalize,
    discriminant,
    orbit_enumerate,
    orbit_equivalent,
    orbit_invariants,
    stabilizer,
)
from .freealg import FreeElement, linear_substitute, parse_free_expression
from .gca import BASIS_WORDS, GCAElement, GenericCliffordAlgebra
from .spoly import SPolynomial, discriminant_polynomial

__all__ = [
    "BASIS_WORDS",
    "BinaryCubicForm",
    "CliffordFElement",
    "CubicExtension",
    "EllipticPoint",
    "FieldSpec",
    "FreeElement",
    "GCAElement",
    "GL2Element",
    "GenericCliffordAlgebra",
    "PlaneCubicPoint",
    "SPolynomial",
    "Scalar",
    "SpecializedAlgebra",
    "act_gl2",
    "brauer_triviality_probe",
    "check_clifford_iso",
    "cm_theta",
    "construct_cover_point",
    "cube_root_in_field",
    "curve_order",
    "curve_points",
    "diagonalize",
    "discriminant",
    "discriminant_polynomial",
    "ell_add",
    "ell_mul",
    "ell_neg",
    "gamma_independence_check",
    "j_invariant",
    "jacobian_constant",
    "lambda_isogeny",
    "lambda_kernel",
    "linear_substitute",
    "mul_af",
    "nth_power_class",
    "orbit_enumerate",
    "orbit_equivalent",
    "orbit_invariants",
    "parse_free_expression",
    "point_search",
    "sixth_power_class_token",
    "specialize",
    "specialized_algebra",
    "sqrt_in_field",
    "stabilizer",
    "symbol_relations_check",
    "torsion_points",
]
__version__ = "0.1.0"
