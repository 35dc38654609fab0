"""p-adic periods and their L-invariants.

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
# division by total_ord and branch recentering can eat a couple of digits
EQUALITY_SLACK = 2


# A base is rational (int or Fraction), a PadicElement, or an exact element
# of Q_{p^f} (unramified.ExactUnramified, known by its to_padic method).
# Only methods are called on the last two, so this module does not import
# unramified, and the command line, whose period grammar is rational, never
# loads it.


def _is_exact_unramified(base):
    return hasattr(base, "to_padic")


def _base_key(base):
    if isinstance(base, (int, Fraction)):
        return ("Q", Fraction(base))
    if _is_exact_unramified(base):
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

    def power(self, k):
        if k == 0:
            raise NotAPeriodError("not a period")
        return Period(self.p, [(b, e * k) for b, e in self.factors], ctx=self.ctx)

    def __mul__(self, other):
        if not isinstance(other, Period) or other.p != self.p:
            raise PadicError("can only multiply periods over the same prime")
        return Period(self.p, list(self.factors) + list(other.factors),
                      ctx=self.ctx or other.ctx)

    def rational_value(self, k=1):
        """q^k as an exact Fraction; only for all-rational bases."""
        out = Fraction(1)
        for b, e in self.factors:
            if not isinstance(b, (int, Fraction)):
                raise PadicError("period has non-rational bases")
            out *= Fraction(b) ** (e * k)
        return out

    def all_rational(self):
        return all(isinstance(b, (int, Fraction)) for b, _ in self.factors)

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
    """A branch tag of `li` as given, or the value of a period literal."""
    if text.lower() in BRANCH_TAGS:
        return text
    return parse_period_literal(text, p).rational_value()


def _as_local(base, p, prec, ctx):
    """Realize an exact/stored base as a p-adic element ready for log."""
    if isinstance(base, (int, Fraction)):
        if ctx is not None:
            return ctx.from_vector([Fraction(base)], prec)
        return PadicNumber.from_fraction(p, base, prec)
    if _is_exact_unramified(base):
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
    tot = q.total_ord()
    if tot == 0:
        raise NotAPeriodError("not a period")
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


class CheckReport:
    """Both sides of an identity, whether they provably agree, and the
    absolute precision to which they do."""

    def __init__(self, equal, lhs, rhs, agree_abs_prec, details):
        self.equal = equal
        self.lhs = lhs
        self.rhs = rhs
        self.agree_abs_prec = agree_abs_prec
        self.details = details

    def to_json(self):
        def enc(v):
            return v.to_json() if hasattr(v, "to_json") else v

        return {
            "equal": self.equal,
            "lhs": enc(self.lhs),
            "rhs": enc(self.rhs),
            "agree_abs_prec": None if self.agree_abs_prec is None else
            (str(self.agree_abs_prec) if self.agree_abs_prec == float("inf") else self.agree_abs_prec),
            **{k: enc(v) for k, v in self.details.items()},
        }


def _provably_equal(a, b, prec):
    ap = a.agreement(b)
    return a == b and ap >= prec - EQUALITY_SLACK, ap


def branch_change_check(q, x, y, prec=DEFAULT_PREC):
    """Verify LI_y(q) = LI_x(q) - LI_x(y) and return both sides."""
    lhs = li(q, branch=y, prec=prec)
    li_x_q = li(q, branch=x, prec=prec)
    li_x_y = li(Period(q.p, [(y, 1)], ctx=q.ctx), branch=x, prec=prec)
    rhs = li_x_q - li_x_y
    ok, ap = _provably_equal(lhs, rhs, prec)
    return CheckReport(ok, lhs, rhs, ap, {
        "li_x_q": li_x_q,
        "li_x_y": li_x_y,
    })


def equivalence_check(q, qt, x, prec=DEFAULT_PREC):
    """LI_x(q) = LI_x(qt)?  Reports witness exponents (n, m) =
    (total_ord(qt), total_ord(q)) and, when both periods have rational
    bases, the exact verdict on q^n = qt^m."""
    lhs = li(q, branch=x, prec=prec)
    rhs = li(qt, branch=x, prec=prec)
    ok, ap = _provably_equal(lhs, rhs, prec)
    n, m = qt.total_ord(), q.total_ord()
    details = {"witness_n": n, "witness_m": m}
    if q.all_rational() and qt.all_rational():
        details["exact_power_identity"] = q.rational_value(n) == qt.rational_value(m)
    return CheckReport(ok, lhs, rhs, ap, details)


class UglyPolynomial:
    """The monic quadratic f(T) = T^2 - c T."""

    def __init__(self, c):
        self.c = c

    def __call__(self, t):
        return t * t - self.c * t

    def to_json(self):
        return {"T^2": 1, "T": self.c.to_json() if hasattr(self.c, "to_json") else str(self.c),
                "1": 0}


def ugly_polynomial(qB, subfield_degree=1, prec=DEFAULT_PREC):
    """The quadratic T^2 - c T with c = LI_p(N_{F/K}(qB)) attached to a
    period qB over Q_{p^f} and the unramified subfield K = Q_{p^d}."""
    tot = qB.total_ord()
    if tot == 0:
        raise NotAPeriodError("not a period")
    guard = 3
    work = prec + guard
    ctx = qB.ctx
    d = subfield_degree
    if ctx is None:
        if d != 1:
            raise PadicError("base field has no proper subfields")
        c = li(qB, branch="iwasawa", prec=prec)
        return UglyPolynomial(c)
    if ctx.f % d:
        raise PadicError("not a subfield degree")
    # norm the period factorwise; exact bases become p-adic here
    factors = []
    for base, e in qB.factors:
        bl = _as_local(base, qB.p, work, ctx)
        factors.append((bl.norm(d), e))
    nq = Period(qB.p, factors, ctx=ctx)
    c = li(nq, branch="iwasawa", prec=prec)
    return UglyPolynomial(c)
