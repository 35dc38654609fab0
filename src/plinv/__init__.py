"""Exact p-adic L-invariants of periods and elliptic curves over Q,
modular symbols, Mazur-Tate measures and exceptional-zero verifiers.

The public names below are looked up in their home module on each use
(PEP 562) and never stored here, so `import plinv` loads no submodule and
`plinv.li` is always `plinv.periods.li`.  Each command of `plinv.cli`
imports the modules it runs when it runs (`twists` for `check-twist`
alone; `cache`, the retired space store, for none); what every command
needs, the error bases the command line maps to exit codes and the prime
test behind `-p`, is defined here.  No command imports `json`, and exact
scalars stay ints, so `fractions` is loaded only where a non-integral
rational is built.  The benchmark's
tracer (perfbench/tracer.py) rebinds each function it times in its home
module, but by-value copies only in the modules that `import plinv.cli`
loaded; so a module loaded later calls another module's timed function
through that module (`padic.iwasawa_log(...)`), never through `from
.padic import iwasawa_log`.  tests/test_tracer_targets.py checks this."""

__version__ = "0.1.0"


class DomainError(ValueError):
    """An input outside what plinv computes: a non-period, an unknown
    curve, a bad level, ...  Every module's error derives from it, so the
    command line maps them all to exit 2 without loading those modules."""


class UsageError(Exception):
    """Bad syntax in arguments or literals: exit 3."""


class Quoted(list):
    """Rows of ints and Fractions, written as `[{str(k): str(v)}, ...]` would be."""


def _is_probable_prime(n):
    """Miller-Rabin to the twelve prime bases up to 37: deterministic for
    n < 3.3e24 (3317044064679887385961981), a probable-prime test above."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p):
    if not isinstance(p, int) or not _is_probable_prime(p):
        raise DomainError(f"{p} is not prime")
    return p


_HOMES = {
    "padic": ["PadicNumber", "branch_logs", "iwasawa_log", "ordp", "teichmuller"],
    "periods": ["Period", "li"],
    "curves": ["WeierstrassCurve", "curve_by_label", "curve_l_invariant", "minimal_model_at",
               "reduction_type", "tate_period"],
    "modsym": ["build_space", "eigen_symbol"],
    "measures": ["build_measure", "exceptional_zero_check", "lp_value_and_derivative",
                 "stickelberger", "unit_root"],
    "twists": ["euler_factor", "quadratic_twist", "twist_product_check"],
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
