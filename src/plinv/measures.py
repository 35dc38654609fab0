"""Mazur-Tate measures on Z_p^*, cyclotomic p-adic L-values and
derivatives, and the exceptional-zero / twist / product verifiers.  A
measure is also its Stickelberger element: one `PadicMeasure` holds both.

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
fraction of a/m, walked on the two ints.  A measure is held once, as rows
in the coordinates a = zeta gamma^k in which it is built and integrated
(`_log_coordinates`); it evaluates one unit per orbit of its symmetries
and fills the rest of the orbit from it:

  * On the sign-eps quotient [-r] = eps [r] and [r + 1] = [r], so
    mu(p^n - a) = eps mu(a) in both cases (Mazur-Tate-Teitelbaum,
    Invent. Math. 1986, I.8).
  * When the level N is p itself, also mu(a') = -eps mu(a) for the
    inverse a' of a mod p^n.  With a' a - b p^n = 1, the matrix
    [[a', b], [p^n, a]] lies in Gamma_0(N), because N | p^n, and maps the
    path {-a/p^n -> oo} to {oo -> a'/p^n} (Cremona, Algorithms for
    Modular Elliptic Curves, 2.2); so [-a/p^n] = -[a'/p^n], and
    [-r] = eps [r] does the rest.  Where N does not divide p^n the matrix
    is not in Gamma_0(N), and the rule fails (14a1 at 7, 15a1 at 5).

So a measure at level p evaluates about a quarter of the units, any
other a half.
"""

from fractions import Fraction
import functools
from types import SimpleNamespace

from . import DomainError, check_prime, curves, modsym, padic
from .curves import (
    SPLIT,
    curve_l_invariant,
    curve_level,
    is_fundamental_discriminant,
    kronecker,
    quadratic_twist,
)
from .padic import PadicNumber, hensel


class MeasureError(DomainError):
    pass


# -- unit roots ----------------------------------------------------------


class UnitRootData:
    """The unit root alpha of the Hecke polynomial at p (p is ordinary:
    `unit_root` raises at a supersingular p); alpha_exact is +-1 in the
    multiplicative case, else None."""

    def __init__(self, p, ap, multiplicative, alpha_exact, alpha):
        self.p = p
        self.ap = ap
        self.multiplicative = multiplicative
        self.alpha_exact = alpha_exact
        self.alpha = alpha

    def to_json(self):
        return {
            "p": self.p,
            "ap": self.ap,
            "multiplicative": self.multiplicative,
            "ordinary": True,
            "alpha": str(self.alpha_exact) if self.alpha_exact else self.alpha.to_json(),
        }


def unit_root(p, ap, multiplicative, prec=20):
    """alpha = a_p at multiplicative p; else the unit root of
    x^2 - a_p x + p by Hensel lifting."""
    check_prime(p)
    if multiplicative:
        if ap not in (1, -1):
            raise MeasureError("multiplicative a_p must be +-1")
        return UnitRootData(p, ap, True, ap, PadicNumber.from_int(p, ap, prec))
    if ap % p == 0:
        raise MeasureError("supersingular not supported")

    def step(x, _, m):
        return (x - (x * x - ap * x + p) * pow(2 * x - ap, -1, m)) % m

    alpha = PadicNumber.from_int(p, hensel(step, ap % p, p, prec), prec)
    assert ((alpha * alpha - ap * alpha + p)).is_zero
    return UnitRootData(p, ap, False, None, alpha)


# -- measures ------------------------------------------------------------


class PadicMeasure:
    """A measure on (Z/p^depth)^*, held in the coordinates zeta gamma^k of
    `_log_coordinates`: rows[k][i] is mu(torsion[i] gamma^k), an int or a
    PadicNumber.

    The measure is also the Stickelberger element sum mu(a) [sigma_a]
    (Mazur-Tate, Duke Math. J. 54, 1987), with sigma_a indexed by a, or by
    a^(-1) when `dual`; its mass is the element's augmentation."""

    def __init__(self, p, depth, root, symbol, rows, dual=False):
        self.p = p
        self.depth = depth
        self.root = root
        self.symbol = symbol
        self.rows = rows
        self.dual = dual

    @property
    def exact(self):  # integer values: alpha = +-1
        return self.root.multiplicative

    @property
    def values(self):
        """The table a -> mu(a) over the units a of Z/p^depth, ascending."""
        pn = self.p ** self.depth
        gamma, torsion = _log_coordinates(self.p, self.depth)
        table = dict.fromkeys(a for a in range(1, pn) if a % self.p)  # ascending, filled below
        for k, row in enumerate(self.rows):
            g = pow(gamma, k, pn)
            table.update(zip([z * g % pn for z in torsion], row))
        return table

    def mass(self):
        return sum(map(sum, self.rows))

    def pushforward(self):
        """Image under (Z/p^depth)^* -> (Z/p^(depth-1))^*: zeta gamma^k goes
        to row k mod the coarser order of gamma, at zeta mod p^(depth-1)."""
        if self.depth < 2:
            raise MeasureError("already at depth 1")
        p, pm = self.p, self.p ** (self.depth - 1)
        _, torsion = _log_coordinates(p, self.depth)
        _, coarser = _log_coordinates(p, self.depth - 1)
        slots = [coarser.index(z % pm) for z in torsion]
        rows = [[0] * len(coarser) for _ in range((pm - pm // p) // len(coarser))]
        for k, row in enumerate(self.rows):
            for i, v in zip(slots, row):
                rows[k % len(rows)][i] += v
        return PadicMeasure(p, self.depth - 1, self.root, self.symbol, rows, self.dual)

    def chi_twisted_sum(self, chi):
        """sum chi(a) * mu(a) for a map a -> Fraction."""
        return sum(v * chi(a) for a, v in self.values.items())

    def moment(self, j, prec=20):
        """sum mu(a) log_p<a>^j mod p^depth; the mass when j = 0.

        With a = zeta gamma^k (1 + p^n x), log_p<a> = k log_p(gamma) mod
        p^n, so one log serves every unit; no digit is lost, as alpha is a
        unit and every value a p-adic integer."""
        if j == 0:
            return self.mass()
        s = sum(k ** j * sum(row) for k, row in enumerate(self.rows) if k)
        gamma, _ = _log_coordinates(self.p, self.depth)
        log_gamma = padic.iwasawa_log(PadicNumber.from_int(self.p, gamma, prec))
        return (log_gamma ** j * s).cap_abs_prec(self.depth)

    def leading_term(self, r, prec=20):
        """The I^r/I^(r+1) leading coefficient via moments; requires all
        moments of degree < r to vanish."""
        if r < 1:
            raise MeasureError("order must be at least 1")
        for j in range(r):
            if self.moment(j, prec) != 0:
                raise MeasureError("order of vanishing less than %d" % r)
        return self.moment(r, prec)

    def to_json(self, element=False):
        """The measure form (`exact`, `values`), or with `element` the
        Stickelberger element form (`dual`, `coefficients`, `augmentation`)."""
        table = {str(a): _encode(v) for a, v in self.values.items()}
        if element:
            return {"p": self.p, "depth": self.depth, "dual": self.dual, "coefficients": table,
                    "augmentation": _encode(self.mass())}
        return {"p": self.p, "depth": self.depth, "exact": self.exact, "values": table}


def _encode(v):
    return v.to_json() if isinstance(v, PadicNumber) else str(v)


def build_measure(symbol, p, depth, root=None, prec=20):
    """Measure rows on (Z/p^depth)^*; exact integers when alpha = +-1.

    One unit per symmetry orbit (module docstring) is evaluated, all in one
    `values_at` batch, and the rest of the rows are filled from them.  In
    the coordinates zeta gamma^k of `_log_coordinates`, -zeta is the mirror
    of zeta, so half of the roots of unity are evaluated, for every k or,
    at level p, for the k <= order/2 that hold an inverse of every unit."""
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
    pn = p ** depth
    gamma, torsion = _log_coordinates(p, depth)
    order = (pn - pn // p) // len(torsion)  # the order of gamma mod p^n
    powers = [1]  # the gamma^k whose rows are evaluated: k <= order/2 at level p
    while len(powers) < (order // 2 + 1 if level == p else order):
        powers.append(powers[-1] * gamma % pn)
    half = torsion[:(len(torsion) + 1) // 2]

    def reps(m):  # the evaluated units zeta gamma^k, reduced mod m
        return (z * g % m for g in powers for z in half)

    lead = symbol.values_at(pn, reps(pn))
    if root.multiplicative:
        # alpha^(-n) = alpha^n = +-1
        cells = lead if root.alpha_exact ** depth == 1 else [-v for v in lead]
    else:
        pn1 = pn // p
        ai, ai1 = root.alpha ** (-depth), root.alpha ** (-depth - 1)
        # [a/p^(n-1)] depends on a mod p^(n-1) alone, since [r + 1] = [r]
        tail = [ai1 * v for v in symbol.values_at(pn1, range(pn1))]
        cells = [ai * v - tail[r] for v, r in zip(lead, reps(pn1))]
    sign = symbol.sign
    rows = []
    for k in range(0, len(cells), len(half)):
        row = cells[k:k + len(half)]
        # then the mirrors -zeta = torsion[-1 - i]; when p^n = 2, 1 = -1 is its own mirror
        rows.append(row + [v if sign == 1 else -v for v in reversed(row[:len(torsion) // 2])])
    # the other rows at level p, all ints: mu(a^-1) = -sign mu(a), and
    # zeta gamma^k has the inverse zeta^-1 gamma^(order - k)
    inverse = _inverses(p, depth)
    rows += [[-sign * rows[order - k][i] for i in inverse] for k in range(len(rows), order)]
    return PadicMeasure(p, depth, root, symbol, rows)


def distribution_defect(measure, finer):
    """mu_n(a) - sum of mu_{n+1} over the fiber; all-zero iff the
    distribution property holds."""
    if finer.depth != measure.depth + 1 or finer.p != measure.p:
        raise MeasureError("need measures at consecutive depths")
    push = finer.pushforward().values
    return {a: v - push[a] for a, v in measure.values.items()}


def stickelberger(measure, dual=False):
    """Theta_n = sum mu(a + p^n) [sigma_a]: the measure itself, with sigma_a
    indexed by a (arithmetic normalization), or its re-indexing by a^(-1)
    when dual, whose coefficient at zeta gamma^k is mu(zeta^-1 gamma^-k)."""
    if not dual:
        return measure
    inverse, rows = _inverses(measure.p, measure.depth), measure.rows
    return PadicMeasure(measure.p, measure.depth, measure.root, measure.symbol,
                        [[rows[-k][i] for i in inverse] for k in range(len(rows))], True)


# -- L-values -------------------------------------------------------------


def _log_coordinates(p, n):
    """(gamma, torsion): every unit of Z/p^n is zeta * gamma^k for one
    root of unity zeta in `torsion` and one k below the order of gamma,
    with gamma = 1 + p (5 when p = 2); torsion[-1 - i] = -torsion[i]."""
    pn = p ** n
    if p == 2:
        return 5, sorted({1, pn - 1})
    return 1 + p, [pow(t, pn // p, pn) for t in range(1, p)]


def _inverses(p, n):
    """Where each root of unity's inverse mod p^n is in `_log_coordinates`."""
    _, torsion = _log_coordinates(p, n)
    return [torsion.index(pow(z, -1, p ** n)) for z in torsion]


def lp_value_and_derivative(measure, prec=20):
    """(L_p(0), L_p'(0)): the mass and the log<a>-weighted Riemann sum.

    The integrand log_p<a> is constant mod p^depth on each disc, so the
    derivative is provable to absolute precision `depth`, and the reported
    precision says so.  Weighting a = zeta * gamma^k by k log_p(gamma)
    instead of log_p<a> changes nothing mod p^depth, hence nothing that is
    reported.
    """
    return measure.mass(), measure.moment(1, prec)


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
                 ratio, l_invariant, matched_sign, agreement_digits):
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
            "conventions": dict(CONVENTIONS),
        }


def exceptional_zero_check(curve, p, depth=3, prec=20, *, dual=False, cache=None):
    """Compare L_p'(0)/[0->oo] with +-LI_p(q_E) for a split
    multiplicative prime; both sides are linear in the same symbol scale,
    so the normalization cancels.  The symbol is the plus one: on the
    minus quotient [0->oo] is always 0."""
    _require_split(curve, p)
    symbol = modsym.eigen_symbol(curve, cache=cache)
    return ezc_report(curve, stickelberger(build_measure(symbol, p, depth, prec=prec), dual), prec)


def _require_split(curve, p):
    if curves.reduction_type(curve, p).kind != SPLIT:
        raise MeasureError("not an exceptional (split multiplicative) prime")


def ezc_report(curve, theta, prec=20):
    """The comparison of `exceptional_zero_check` for a Stickelberger
    element theta already built from the curve's eigen-symbol at a split
    multiplicative prime (`stickelberger`, dual or not)."""
    symbol, p, depth = theta.symbol, theta.p, theta.depth
    l0, l1 = lp_value_and_derivative(theta, prec)
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


class TwistedSymbol(modsym.EigenSymbol):
    """The eigen-symbol of E^D for D prime to N, of sign chi_D(-1) times
    that of `base`, E's level-N symbol, on P^1(Z/N D^2) by the twisted sums
    of Mazur-Tate-Teitelbaum (Invent. Math. 84, 1986, I.8): with
    T(r) = sum_{b mod |D|} chi_D(b) [r + b/|D|] and T(oo) = 0, the
    generator (c:d) = {b/d -> a/c}, a d - b c = 1, takes T(b/d) - T(a/c).
    Its space holds only what the walk reads; T_ell acts by
    chi_D(ell) a_ell(E), read from `base` on demand."""

    def __init__(self, base, d):
        k, level = abs(d), base.level * d * d
        chars = [(b, kronecker(d, b)) for b in range(1, k) if kronecker(d, b)]

        @functools.cache  # an end shared by several generators is summed once
        def t(x, y):  # T(x/y) for 0 <= x < y, and T(oo) = 0 for y = 0
            vals = base.values_at(y * k, [x * k + b * y for b, _ in chars]) if y else ()
            return sum(c * v for (_, c), v in zip(chars, vals))

        p1 = modsym.P1List(level)
        vals = []
        for c, e in p1:  # a = 1 when c = 0, and the lift is [[1, 0], [0, 1]]
            a = pow(e, -1, c) if c else 1
            b = (a * e - 1) // c % e if c and e else 0  # mod e, as [r + 1] = [r]
            vals.append(t(b, e) - t(a, c))
        space = SimpleNamespace(p1=p1, level=level, sign=base.sign * (1 if d > 0 else -1))
        super().__init__(space, modsym.normalized(vals), {})
        self.base, self.d = base, d

    @property
    def weights(self):
        raise MeasureError("a twisted symbol has no presented basis")

    def eigenvalue(self, ell):
        chi = kronecker(self.d, ell)
        return chi and chi * self.base.eigenvalue(ell)


class TwistReport:
    """The quadratic-twist product bookkeeping of one case."""

    def __init__(self, label, d, p, chi_p, case, data):
        self.label = label
        self.d = d
        self.p = p
        self.chi_p = chi_p
        self.case = case
        self.data = data

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
            "conventions": dict(CONVENTIONS),
        }


def twist_product_check(curve, d, p, depth=3, prec=20, *, cache=None):
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
    sym_tw = TwistedSymbol(modsym.eigen_symbol(curve, 1 if d > 0 else -1, cache=cache), d)
    measure_tw = build_measure(sym_tw, p, depth, prec=prec)

    if chi_p == 1:
        _require_split(curve, p)
        plus = sym_tw.base if d > 0 else modsym.eigen_symbol(curve, cache=cache)  # E's plus symbol
        base = ezc_report(curve, build_measure(plus, p, depth, prec=prec), prec)
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
