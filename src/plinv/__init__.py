"""Exact p-adic L-invariants of periods and elliptic curves over Q,
modular symbols, Mazur-Tate measures and exceptional-zero verifiers."""

__version__ = "0.1.0"

from .padic import PadicNumber, branch_log, iwasawa_log, ordp, teichmuller
from .periods import Period, branch_change_check, equivalence_check, li, ugly_polynomial
from .curves import (
    WeierstrassCurve,
    curve_by_label,
    curve_l_invariant,
    invariants,
    minimal_model_at,
    quadratic_twist,
    reduction_type,
    tate_period,
)
from .modsym import build_space, eigen_symbol
from .measures import (
    build_measure,
    euler_factor,
    exceptional_zero_check,
    lp_value_and_derivative,
    one_minus_zeta_product,
    stickelberger,
    twist_product_check,
    unit_root,
)

__all__ = [
    "PadicNumber", "branch_log", "iwasawa_log", "ordp", "teichmuller",
    "Period", "branch_change_check", "equivalence_check", "li", "ugly_polynomial",
    "WeierstrassCurve", "curve_by_label", "curve_l_invariant", "invariants",
    "minimal_model_at", "quadratic_twist", "reduction_type", "tate_period",
    "build_space", "eigen_symbol",
    "build_measure", "euler_factor", "exceptional_zero_check",
    "lp_value_and_derivative", "one_minus_zeta_product", "stickelberger",
    "twist_product_check", "unit_root",
]
