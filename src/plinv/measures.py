"""Mazur-Tate measures on Z_p^*, Stickelberger elements, cyclotomic
p-adic L-values and derivatives, and the exceptional-zero / twist /
product verifiers.

For a p-ordinary eigen-symbol with unit root alpha the measure of the
residue disc a + p^n Z_p is built from symbol values [r] at rationals:

  * alpha = +-1 (multiplicative p, U_p-eigenvalue):
        mu(a + p^n) = alpha^(-n) [a/p^n]            (exact integer)
  * good ordinary p (alpha a unit root of x^2 - a_p x + p):
        mu(a + p^n) = alpha^(-n) [a/p^n] - alpha^(-n-1) [a/p^(n-1)]

In both cases the U_p / T_p relation on the eigen-symbol makes the
distribution property exact; the good-ordinary second term has no
analogue at Steinberg primes, where the local L-factor has a single
root.

Each [a/m] is a sum of integer generator values along the continued
fraction of a/m, walked on the two ints.  On the sign-eps quotient
[-r] = eps [r] and [r + 1] = [r], so mu(p^n - a) = eps mu(a) in both
cases (Mazur-Tate-Teitelbaum, Invent. Math. 1986, I.8): the table
evaluates the units a < p^n/2 and fills the rest by that symmetry.
"""

from fractions import Fraction
from functools import reduce
from operator import add

from . import curves, modsym, padic
from .curves import (
    SPLIT,
    curve_l_invariant,
    curve_level,
    is_fundamental_discriminant,
    kronecker,
    quadratic_twist,
)
from .padic import DomainError, PadicNumber, check_prime, hensel


class MeasureError(DomainError):
    pass


# -- unit roots ----------------------------------------------------------


class UnitRootData:
    """The unit root alpha of the Hecke polynomial at p; alpha_exact is
    +-1 in the multiplicative case, else None."""

    def __init__(self, p, ap, multiplicative, ordinary, alpha_exact, alpha):
        self.p = p
        self.ap = ap
        self.multiplicative = multiplicative
        self.ordinary = ordinary
        self.alpha_exact = alpha_exact
        self.alpha = alpha

    def to_json(self):
        return {
            "p": self.p,
            "ap": self.ap,
            "multiplicative": self.multiplicative,
            "ordinary": self.ordinary,
            "alpha": str(self.alpha_exact) if self.alpha_exact else self.alpha.to_json(),
        }


def unit_root(p, ap, multiplicative, prec=20):
    """alpha = a_p at multiplicative p; else the unit root of
    x^2 - a_p x + p by Hensel lifting."""
    check_prime(p)
    if multiplicative:
        if ap not in (1, -1):
            raise MeasureError("multiplicative a_p must be +-1")
        return UnitRootData(p, ap, True, True, ap, PadicNumber.from_int(p, ap, prec))
    if ap % p == 0:
        raise MeasureError("supersingular not supported")

    def step(x, _, m):
        return (x - (x * x - ap * x + p) * pow(2 * x - ap, -1, m)) % m

    alpha = PadicNumber.from_int(p, hensel(step, ap % p, p, prec), prec)
    assert ((alpha * alpha - ap * alpha + p)).is_zero
    return UnitRootData(p, ap, False, True, None, alpha)


# -- measures ------------------------------------------------------------


class PadicMeasure:
    """The table a (unit mod p^depth) -> int | PadicNumber of a measure."""

    def __init__(self, p, depth, root, symbol, values, exact):
        self.p = p
        self.depth = depth
        self.root = root
        self.symbol = symbol
        self.values = values
        self.exact = exact

    def mass(self):
        return _total(self.values.values())

    def to_json(self):
        enc = (lambda v: str(v)) if self.exact else (lambda v: v.to_json())
        return {
            "p": self.p,
            "depth": self.depth,
            "exact": self.exact,
            "values": {str(a): enc(v) for a, v in sorted(self.values.items())},
        }


def _total(values):
    """The sum of a nonempty run of table values (int, Fraction or
    PadicNumber), with no exact 0 added to a p-adic sum."""
    return reduce(add, values)


def build_measure(symbol, p, depth, root=None, prec=20):
    """Measure table on (Z/p^depth)^*; exact integers when alpha = +-1."""
    check_prime(p)
    if depth < 1:
        raise MeasureError("depth must be at least 1")
    level = symbol.level
    if level % p == 0:
        if level % (p * p) == 0:
            raise MeasureError("additive primes not supported")
        multiplicative = True
    else:
        multiplicative = False
    if root is None:
        ap = symbol.eigenvalue(p)
        if ap is None:
            raise MeasureError("symbol carries no eigenvalue at p")
        root = unit_root(p, int(ap), multiplicative, prec)
    if not root.ordinary:
        raise MeasureError("supersingular not supported")
    pn = p ** depth
    pn1 = pn // p
    evaluate, sign = symbol.evaluate, symbol.sign
    if root.multiplicative:
        a_inv_n = root.alpha_exact ** depth  # alpha^(-n) = alpha^n for alpha = +-1
        cell = lambda a: a_inv_n * evaluate(a, pn)
    else:
        ai = root.alpha ** (-depth)
        ai1 = root.alpha ** (-depth - 1)
        cell = lambda a: ai * evaluate(a, pn) - ai1 * evaluate(a, pn1)
    values = {}
    for a in range(1, pn):
        if a % p == 0:
            continue
        b = pn - a
        if b < a:  # mu(a) = sign * mu(b), already in the table
            values[a] = values[b] if sign == 1 else -values[b]
        else:      # b = a only when p^n = 2
            values[a] = cell(a)
    return PadicMeasure(p, depth, root, symbol, values, root.multiplicative)


def distribution_defect(measure, finer):
    """mu_n(a) - sum of mu_{n+1} over the fiber; all-zero iff the
    distribution property holds."""
    if finer.depth != measure.depth + 1 or finer.p != measure.p:
        raise MeasureError("need measures at consecutive depths")
    p, pn = measure.p, measure.p ** measure.depth
    return {a: v - _total(finer.values[a + k * pn] for k in range(p))
            for a, v in measure.values.items()}


# -- Stickelberger elements ----------------------------------------------


class StickelbergerElement:
    """sum coeffs[a] [sigma_a] over a in (Z/p^depth)^*."""

    def __init__(self, p, depth, coeffs, exact, dual=False):
        self.p = p
        self.depth = depth
        self.coeffs = coeffs
        self.exact = exact
        self.dual = dual

    def augmentation(self):
        return _total(self.coeffs.values())

    def pushforward(self):
        """Image under (Z/p^depth)^* -> (Z/p^(depth-1))^*."""
        if self.depth < 2:
            raise MeasureError("already at depth 1")
        pm = self.p ** (self.depth - 1)
        out = {}
        for a, v in self.coeffs.items():
            b = a % pm
            out[b] = out[b] + v if b in out else v
        return StickelbergerElement(self.p, self.depth - 1, out, self.exact, self.dual)

    def chi_twisted_sum(self, chi):
        """sum chi(a) * coeff(a) for a map a -> Fraction."""
        return _total(v * chi(a) for a, v in self.coeffs.items())

    def moment(self, j, prec=20):
        """sum coeff(a) * log_p<a>^j, to the absolute precision the depth
        proves (see `_log_moment`); the augmentation when j = 0."""
        if j == 0:
            return self.augmentation()
        return _log_moment(self.coeffs, self.p, self.depth, j, prec)

    def leading_term(self, r, prec=20):
        """The I^r/I^(r+1) leading coefficient via moments; requires all
        moments of degree < r to vanish."""
        if r < 1:
            raise MeasureError("order must be at least 1")
        for j in range(r):
            m = self.moment(j, prec)
            vanishes = m.is_zero if isinstance(m, PadicNumber) else m == 0
            if not vanishes:
                raise MeasureError("order of vanishing less than %d" % r)
        return self.moment(r, prec)

    def to_json(self):
        enc = (lambda v: str(v)) if self.exact else (lambda v: v.to_json())
        aug = self.augmentation()
        return {
            "p": self.p,
            "depth": self.depth,
            "dual": self.dual,
            "coefficients": {str(a): enc(v) for a, v in sorted(self.coeffs.items())},
            "augmentation": enc(aug),
        }


def stickelberger(measure, dual=False):
    """Theta_n = sum mu(a + p^n) [sigma_a]; sigma_a indexed by a itself
    (arithmetic normalization), or by a^(-1) when dual."""
    pn = measure.p ** measure.depth
    coeffs = {}
    for a, v in measure.values.items():
        key = pow(a, -1, pn) if dual else a
        coeffs[key] = v
    return StickelbergerElement(measure.p, measure.depth, coeffs, measure.exact, dual)


# -- L-values -------------------------------------------------------------


def _log_walk(p, n):
    """Yield (k, units) for k = 0, 1, ...: the units of Z/p^n equal to
    zeta * gamma^k for a root of unity zeta, with gamma = 1 + p (5 when
    p = 2).  Every unit occurs once."""
    pn = p ** n
    if p == 2:
        gamma, torsion = 5, sorted({1, pn - 1})
    else:
        gamma, torsion = 1 + p, [pow(t, pn // p, pn) for t in range(1, p)]
    g, k = 1, 0
    while True:
        yield k, [z * g % pn for z in torsion]
        g, k = g * gamma % pn, k + 1
        if g == 1:
            return


def _log_moment(values, p, n, j, prec):
    """sum values[a] * log_p<a>^j over the units a of Z/p^n, capped at the
    absolute precision n - loss that depth n proves.

    With a = zeta * gamma^k (1 + p^n x), log_p<a> = k log_p(gamma) +
    log_p(1 + p^n x), and the last term is divisible by p^n.  So log_p<a>^j
    = (k log_p(gamma))^j mod p^n, one log serves every unit, and the sum
    is exact mod p^(n - loss), where p^loss bounds the values' denominators.
    """
    s = 0
    for k, units in _log_walk(p, n):
        if k:
            s += k ** j * sum(values[a] for a in units)
    log_gamma = padic.iwasawa_log(PadicNumber.from_int(p, 5 if p == 2 else 1 + p, prec))
    # the p-adic entries' denominators; an int entry has none
    loss = max([0] + [-v.ord() for v in values.values()
                      if type(v) is not int and not v.is_zero])
    return (log_gamma ** j * s).cap_abs_prec(n - loss)


def lp_value_and_derivative(measure, prec=20):
    """(L_p(0), L_p'(0)): the mass and the log<a>-weighted Riemann sum.

    The integrand log_p<a> is constant mod p^depth on each disc, so the
    derivative is provable to absolute precision `depth`, less the digits
    that the values' denominators cost; the reported precision says so.
    Weighting a = zeta * gamma^k by k log_p(gamma) instead of log_p<a>
    changes nothing mod p^depth, hence nothing that is reported.
    """
    return measure.mass(), _log_moment(measure.values, measure.p, measure.depth, 1, prec)


def euler_factor(root, chi_p):
    """Modified Euler factor at p for an unramified quadratic chi with
    chi(p) in {1, -1}, or chi_p = 0 for ramified chi (factor 1).

    Multiplicative p: 1 - chi(p)/alpha.  Good ordinary p: the weight-2
    normalization (1 - chi(p)/alpha)(1 - chibar(p)/alpha).
    """
    if chi_p == 0:
        return Fraction(1)
    chi_p = Fraction(chi_p)
    if chi_p ** 2 != 1:
        raise MeasureError("only quadratic or trivial characters supported")
    if root.multiplicative:
        return 1 - chi_p / root.alpha_exact
    ainv = root.alpha ** -1
    return (1 - ainv * chi_p) * (1 - ainv * (1 / chi_p))


# -- verifier reports ------------------------------------------------------


CONVENTIONS = {
    "sigma_indexing": "sigma_a <-> a (pass dual=True for a^(-1))",
    "symbol_normalization": "content 1 over all Manin generator values; value at {0->oo} >= 0",
    "euler_factor": "multiplicative: 1 - chi(p)/alpha; good ordinary: (1 - chi(p)/alpha)(1 - chibar(p)/alpha)",
    "derivative_integrand": "log_p of a/omega(a) (Iwasawa branch)",
}


class EzcReport:
    """L_p'(0)/[0->oo] against the Tate L-invariant at a split prime."""

    def __init__(self, label, p, depth, lp0_is_zero, lp0, derivative, value_at_zero,
                 ratio, l_invariant, matched_sign, agreement_digits, conventions=None):
        self.label = label
        self.p = p
        self.depth = depth
        self.lp0_is_zero = lp0_is_zero
        self.lp0 = lp0
        self.derivative = derivative
        self.value_at_zero = value_at_zero
        self.ratio = ratio
        self.l_invariant = l_invariant
        self.matched_sign = matched_sign
        self.agreement_digits = agreement_digits
        self.conventions = dict(CONVENTIONS) if conventions is None else conventions

    def to_json(self):
        return {
            "curve": self.label,
            "p": self.p,
            "depth": self.depth,
            "Lp0": str(self.lp0),
            "Lp0_is_zero": self.lp0_is_zero,
            "Lp_derivative": self.derivative.to_json(),
            "value_at_zero": str(self.value_at_zero),
            "ratio": self.ratio.to_json(),
            "tate_l_invariant": self.l_invariant.to_json(),
            "matched_sign": self.matched_sign,
            "agreement_digits": self.agreement_digits,
            "conventions": self.conventions,
        }


def exceptional_zero_check(curve, p, depth=3, prec=20, sign=1, dual=False, cache=None):
    """Compare L_p'(0)/[0->oo] with +-LI_p(q_E) for a split
    multiplicative prime; both sides are linear in the same symbol scale,
    so the normalization cancels."""
    red = curves.reduction_type(curve, p)
    if red.kind != SPLIT:
        raise MeasureError("not an exceptional (split multiplicative) prime")
    symbol = modsym.eigen_symbol(curve, sign, cache=cache)
    return ezc_report(curve, build_measure(symbol, p, depth, prec=prec), prec, dual)


def ezc_report(curve, measure, prec=20, dual=False):
    """The comparison of `exceptional_zero_check` for a measure already
    built from the curve's eigen-symbol at a split multiplicative prime."""
    symbol, p, depth = measure.symbol, measure.p, measure.depth
    l0, l1 = lp_value_and_derivative(measure, prec)
    if dual:
        l1 = -l1  # sigma_a -> sigma_a^(-1) flips the log weight
    v0 = symbol.at_zero
    if v0 == 0:
        raise MeasureError("symbol vanishes at {0->oo}; vanishing central L-value")
    ratio = l1 * Fraction(1, v0)
    li_val = curve_l_invariant(curve, p, prec)
    agree_plus = ratio.agreement(li_val)
    agree_minus = ratio.agreement(-li_val)
    if agree_plus >= agree_minus:
        matched, digits = "+", agree_plus
    else:
        matched, digits = "-", agree_minus
    return EzcReport(
        label=getattr(curve, "label", "") or str(curve.a_invariants),
        p=p,
        depth=depth,
        lp0_is_zero=(l0 == 0),
        lp0=l0,
        derivative=l1,
        value_at_zero=v0,
        ratio=ratio,
        l_invariant=li_val,
        matched_sign=matched,
        agreement_digits=digits,
    )


class TwistReport:
    """The quadratic-twist product bookkeeping of one case."""

    def __init__(self, label, d, p, chi_p, case, data, conventions=None):
        self.label = label
        self.d = d
        self.p = p
        self.chi_p = chi_p
        self.case = case
        self.data = data
        self.conventions = dict(CONVENTIONS) if conventions is None else conventions

    # exact rationals (int or Fraction), emitted as strings like Fractions
    RATIONAL = ("twist_L0", "twist_value_at_zero", "euler_factor", "ratio",
                "base_augmentation", "twist_augmentation")

    def to_json(self):
        def enc(k, v):
            if hasattr(v, "to_json"):
                return v.to_json()
            if k in self.RATIONAL and v is not None:
                return str(v)
            return v

        return {
            "curve": self.label,
            "D": self.d,
            "p": self.p,
            "chi_p": self.chi_p,
            "case": self.case,
            **{k: enc(k, v) for k, v in self.data.items()},
            "conventions": self.conventions,
        }


def twist_product_check(curve, d, p, depth=3, prec=20, sign=1, cache=None):
    """Quadratic-twist bookkeeping for the product of p-adic L-functions.

    chi_d(p) = 1 (split): both factors are exceptional; the derivative
    ratios and the Tate-period invariants of curve and twist must agree.
    chi_d(p) = -1 (inert): the twisted factor is nonsplit with Euler
    factor 2, so its L_p(0) equals exactly twice its value at {0->oo}.
    """
    if not is_fundamental_discriminant(d):
        raise MeasureError("D must be a fundamental discriminant")
    n = curve_level(curve)
    from math import gcd

    if gcd(d, n * p) != 1:
        raise MeasureError("D must be coprime to p and the conductor")
    chi_p = kronecker(d, p)
    twist = quadratic_twist(curve, d)
    level_tw = n * d * d
    sym_tw = modsym.eigen_symbol(twist, sign, level=level_tw, cache=cache)
    measure_tw = build_measure(sym_tw, p, depth, prec=prec)

    if chi_p == 1:
        base = exceptional_zero_check(curve, p, depth, prec, sign, cache=cache)
        tw = ezc_report(twist, measure_tw, prec)
        ratio_match = max(base.ratio.agreement(tw.ratio),
                          base.ratio.agreement(-tw.ratio))
        return TwistReport(
            label=base.label, d=d, p=p, chi_p=1, case="split",
            data={
                "base_ratio": base.ratio,
                "twist_ratio": tw.ratio,
                "ratio_agreement_digits": ratio_match,
                "tate_li_base": base.l_invariant,
                "tate_li_twist": tw.l_invariant,
                "tate_agreement_digits": base.l_invariant.agreement(tw.l_invariant),
                "base_augmentation": base.lp0,
                "twist_augmentation": tw.lp0,
                "product_vanishing_order_at_least_2": base.lp0 == 0 and tw.lp0 == 0,
            },
        )
    if chi_p == -1:
        l0_tw = measure_tw.mass()
        v0_tw = sym_tw.at_zero
        factor = l0_tw * Fraction(1, v0_tw) if v0_tw else None
        root = measure_tw.root
        return TwistReport(
            label=getattr(curve, "label", "") or str(curve.a_invariants),
            d=d, p=p, chi_p=-1, case="inert",
            data={
                "twist_L0": l0_tw,
                "twist_value_at_zero": v0_tw,
                "euler_factor": euler_factor(root, 1),
                "factor_two_exact": v0_tw != 0 and l0_tw == 2 * v0_tw,
                "ratio": factor,
            },
        )
    raise MeasureError("chi_D(p) must be +-1 (D coprime to p)")


# -- exact cyclotomic identity ---------------------------------------------


def _poly_divmod_z(num, den):
    """Exact division of integer polynomials, den monic."""
    num = list(num)
    dn = len(den) - 1
    q = [0] * max(0, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q[i - dn] = c
        for k in range(dn + 1):
            num[i - dn + k] -= c * den[k]
    while num and num[-1] == 0:
        num.pop()
    return q, num


def cyclotomic_polynomial(n):
    """Integer coefficients of Phi_n, by exact division of x^n - 1."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod_z(poly, cyclotomic_polynomial(d))
            assert not r
            poly = q
    return poly


def one_minus_zeta_product(n):
    """prod_{i=1}^{n-1} (1 - zeta_n^i) computed exactly in Z[x]/Phi_n(x);
    the classical value is n."""
    if n < 2:
        raise MeasureError("need n >= 2")
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1

    def reduce_mod_phi(poly):
        _, r = _poly_divmod_z(poly, phi)
        return r + [0] * (deg - len(r))

    acc = [1] + [0] * (deg - 1) if deg > 1 else [1]
    for i in range(1, n):
        factor = [1] + [0] * (i - 1) + [-1]  # 1 - x^i
        prod = [0] * (len(acc) + len(factor) - 1)
        for a, ca in enumerate(acc):
            if ca:
                for b, cb in enumerate(factor):
                    prod[a + b] += ca * cb
        acc = reduce_mod_phi(prod)
    if any(acc[1:]):
        raise MeasureError("product did not reduce to a constant")
    return acc[0]
