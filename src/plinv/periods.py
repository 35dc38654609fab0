"""p-adic periods and their L-invariants: of the commands only `li-period`
loads this module, and `curves` takes a Tate period's L-invariant itself.

A period is a formal product prod b_i^{e_i} of nonzero field elements
with integer exponents, modeling an element of F* tensor Z, subject to
total_ord = sum e_i ord(b_i) != 0.  Its L-invariant with respect to a
continuous homomorphism lambda on F* is lambda(q) / total_ord(q).

Supported branches of lambda:
  * "iwasawa" (alias "p"): the log with log(p) = 0;
  * "cyclotomic" (alias "cyc"): log_p composed with the norm to Q_p;
  * a field element x with ord(x) != 0: the branch log_x with
    log_x(x) = 0.
"""

import re
from fractions import Fraction

from . import UsageError, padic
from .padic import PadicElement, PadicError, PadicNumber


class NotAPeriodError(PadicError):
    pass


DEFAULT_PREC = 20


# A base is rational (int or Fraction), a PadicElement, or an exact element
# of Q_{p^f} (unramified.ExactUnramified, known by its to_padic method).
# Only methods are called on the last two, so this module does not import
# unramified, and the command line, whose period grammar is rational, never
# loads it.


def _base_key(base):
    if isinstance(base, (int, Fraction)):
        return ("Q", Fraction(base))
    if hasattr(base, "to_padic"):  # exact in Q_{p^f}
        return ("E", base.ctx.p, base.ctx.f, base.ctx.modulus, base.coeffs)
    if isinstance(base, PadicElement):
        ctx = getattr(base, "ctx", None)  # None in Q_p
        return ("L", base.p, ctx and ctx.modulus, base.v, tuple(base._coords()), base.n)
    raise PadicError(f"unsupported period base {base!r}")


class Period:
    """Normalized factor list: equal bases merged, zero exponents dropped."""

    def __init__(self, p, factors, ctx=None):
        self.p = p
        self.ctx = ctx
        merged = {}
        order = []
        for base, exp in factors:
            if not isinstance(exp, int):
                raise PadicError("exponents must be integers")
            key = _base_key(base)
            if key in merged:
                merged[key] = (merged[key][0], merged[key][1] + exp)
            else:
                merged[key] = (base, exp)
                order.append(key)
            if ctx is None and getattr(base, "ctx", None) is not None:
                self.ctx = base.ctx  # a base in Q_{p^f}
        self.factors = tuple(
            (merged[k][0], merged[k][1]) for k in order if merged[k][1] != 0
        )
        if self.total_ord() == 0:
            raise NotAPeriodError("not a period")

    def total_ord(self):
        return sum(e * padic.ordp(b, self.p) for b, e in self.factors)

    def rational_value(self):
        """q as an exact Fraction; only for all-rational bases."""
        out = Fraction(1)
        for b, e in self.factors:
            if not isinstance(b, (int, Fraction)):
                raise PadicError("period has non-rational bases")
            out *= Fraction(b) ** e
        return out

    def __repr__(self):
        return " * ".join(f"({b})^{e}" for b, e in self.factors) or "1"

    def to_json(self):
        def enc(b):
            if isinstance(b, (int, Fraction)):
                return str(Fraction(b))
            return b.to_json()

        return {
            "p": self.p,
            "factors": [{"base": enc(b), "exp": e} for b, e in self.factors],
            "total_ord": self.total_ord(),
        }


# -- period literals ----------------------------------------------------

_FACTOR_RE = re.compile(
    r"^\s*(?:\(\s*(-?\d+(?:\s*/\s*\d+)?)\s*\)|(-?\d+(?:/\d+)?))\s*(?:\^\s*(-?\d+))?\s*$"
)


def parse_period_literal(text, p):
    """The Period of a literal, as `li-period` reads it; a syntax error is a
    UsageError.  Grammar: factor ('*' factor)*, factor = base ['^' int],
    base = rational or (rational); e.g. "5^1 * (2/3)^-2"."""
    if not text or not text.strip():
        raise UsageError("empty period literal")
    factors = []
    for chunk in text.split("*"):
        m = _FACTOR_RE.match(chunk)
        if not m:
            raise UsageError(f"cannot parse period factor {chunk.strip()!r}")
        base = (m.group(1) or m.group(2)).replace(" ", "")
        exp = int(m.group(3)) if m.group(3) else 1
        try:
            base = Fraction(base)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational {base!r}: {exc}") from exc
        if base == 0:
            raise UsageError("zero base in period literal")
        factors.append((base, exp))
    return Period(p, factors)


def parse_branch(text, p):
    """A branch tag of `li` as given, or the value of a period literal; a
    literal with ord_p 0 or a zero base is refused in the branch's name."""
    if text.lower() in BRANCH_TAGS:
        return text
    try:
        return parse_period_literal(text, p).rational_value()
    except NotAPeriodError as exc:
        raise NotAPeriodError(f"--branch {text!r} has ord_p 0: not a branch") from exc
    except UsageError as exc:
        raise UsageError(f"--branch {text!r}: {exc}") from exc


def _as_local(base, p, prec, ctx):
    """Realize an exact/stored base as a p-adic element ready for log."""
    if isinstance(base, (int, Fraction)):
        if ctx is not None:
            return ctx.from_vector([Fraction(base)], prec)
        return PadicNumber.from_fraction(p, base, prec)
    if hasattr(base, "to_padic"):  # exact in Q_{p^f}
        return base.to_padic(prec)
    if isinstance(base, PadicElement):
        return base
    raise PadicError(f"unsupported period base {base!r}")


def _log_cyclotomic(x, f):
    """log_p of the norm down to Q_p."""
    if isinstance(x, PadicNumber):
        return padic.iwasawa_log(x) * f
    return padic.iwasawa_log(x.norm().as_padic())


# the branch tags, any case, and the branch each names
BRANCH_TAGS = {"iwasawa": "iwasawa", "p": "iwasawa", "log_p": "iwasawa",
               "cyclotomic": "cyclotomic", "cyc": "cyclotomic"}


def _parse_branch(branch):
    if isinstance(branch, str):
        if branch.lower() not in BRANCH_TAGS:
            raise PadicError(f"unknown branch tag {branch!r}")
        return (BRANCH_TAGS[branch.lower()], None)
    return ("element", branch)


def li(q, branch="iwasawa", prec=DEFAULT_PREC):
    """The L-invariant lambda(q)/total_ord(q) as a PadicNumber (or an
    UnramifiedElement for a non-cyclotomic branch over Q_{p^f})."""
    if not isinstance(q, Period):
        raise PadicError("li expects a Period")
    tot = q.total_ord()  # never 0: Period refuses it
    kind, x = _parse_branch(branch)
    guard = 3
    work = prec + guard
    ctx = q.ctx
    f = ctx.f if ctx is not None else 1

    bases = [_as_local(base, q.p, work, ctx) for base, _ in q.factors]
    if kind == "iwasawa":
        vals = [bl.log() for bl in bases]
    elif kind == "cyclotomic":
        vals = [_log_cyclotomic(bl, f) for bl in bases]
    else:
        vals = padic.branch_logs(_as_local(x, q.p, work, ctx), bases)
    total = None
    for val, (_, e) in zip(vals, q.factors):
        val = val * e
        total = val if total is None else total + val
    return total * Fraction(1, tot)

