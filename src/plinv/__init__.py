"""Exact p-adic L-invariants of periods and elliptic curves over Q,
modular symbols, Mazur-Tate measures and exceptional-zero verifiers.

The public names below are looked up in their home module on each use
(PEP 562) and never stored here, so `import plinv` loads no submodule and
`plinv.li` is always `plinv.periods.li`.  Each command of `plinv.cli`
imports the modules it runs when it runs.  The benchmark's tracer
(perfbench/tracer.py) rebinds each function it times in its home module,
but by-value copies only in the modules that `import plinv.cli` loaded;
so a module loaded later calls another module's timed function through
that module (`padic.iwasawa_log(...)`), never through `from .padic
import iwasawa_log`.  tests/test_tracer_targets.py checks this."""

__version__ = "0.1.0"

_HOMES = {
    "padic": ["PadicNumber", "branch_log", "iwasawa_log", "ordp", "teichmuller"],
    "periods": ["Period", "branch_change_check", "equivalence_check", "li", "ugly_polynomial"],
    "curves": ["WeierstrassCurve", "curve_by_label", "curve_l_invariant", "invariants",
               "minimal_model_at", "quadratic_twist", "reduction_type", "tate_period"],
    "modsym": ["build_space", "eigen_symbol"],
    "measures": ["build_measure", "euler_factor", "exceptional_zero_check",
                 "lp_value_and_derivative", "one_minus_zeta_product", "stickelberger",
                 "twist_product_check", "unit_root"],
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
