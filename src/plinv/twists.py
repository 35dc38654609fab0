"""Quadratic twists: the Kronecker symbol, fundamental discriminants, the
minimal model of E^D, the eigen-symbol of E^D summed from E's, and the
`check-twist` verifier.  Of the commands only `check-twist` loads this
module.  It is loaded after `plinv.cli`, so it calls the benchmark's traced
functions through their home modules (`measures.build_measure(...)`), as
`plinv/__init__` says."""

from math import gcd
from operator import mul
from types import SimpleNamespace

from . import curves, measures, modsym
from .curves import CurveError, WeierstrassCurve, minimal_model_at
from .measures import CONVENTIONS, MeasureError, _encode
from .padic import factor, rational


def kronecker(d, n):
    """Kronecker symbol (d/n) for n > 0, by factoring n."""
    if n <= 0:
        raise CurveError("kronecker wants a positive second argument")
    result = 1
    for q, e in factor(n).items():
        if q == 2:
            ls = 0 if d % 2 == 0 else -1 if d % 8 in (3, 5) else 1
        else:
            ls = curves._legendre(d, q)
        result *= ls ** e
    return result


def is_fundamental_discriminant(d):
    if d == 1 or d == 0:
        return False
    if d % 4 == 1:
        m = d
    elif d % 4 == 0 and d // 4 % 4 in (2, 3):
        m = d // 4
    else:
        return False
    return all(e == 1 for e in factor(abs(m)).values())


def quadratic_twist(curve, d):
    """Twist by d via (c4, c6) -> (d^2 c4, d^3 c6), then re-minimalize
    at 2, 3 and the primes dividing d."""
    if d == 0:
        raise CurveError("twist by zero")
    c4, c6 = curve.c4 * d * d, curve.c6 * d ** 3
    twisted = WeierstrassCurve(0, 0, 0, -27 * c4, -54 * c6)
    for p in sorted({2, 3} | set(factor(abs(d)))):
        twisted = minimal_model_at(twisted, p)
    return twisted


class TwistedSymbol(modsym.EigenSymbol):
    """The eigen-symbol of E^D for D prime to N, of sign chi_D(-1) times
    that of `base`, E's level-N symbol, on P^1(Z/N D^2) by the twisted sums
    of Mazur-Tate-Teitelbaum (Invent. Math. 84, 1986, I.8): with
    T(r) = sum_{b mod |D|} chi_D(b) [r + b/|D|] and T(oo) = 0, the
    generator (c:d) = {b/d -> a/c}, a d - b c = 1, takes T(b/d) - T(a/c).
    Its space holds only what the walk reads; T_ell acts by
    chi_D(ell) a_ell(E), read from `base` on demand.

    Every end is summed once, and all of them in one `walk` batch.  With
    k = |D|, [x/y + b/k] is the path of n = x k + b y over y k.  When
    gcd(y, k) = 1, n is a unit mod y k, and its inverse is r + y t by CRT:
    r = (x k)^-1 mod y, where x^-1 mod y is known from the lift (a e = 1
    mod c, b c = -1 mod e) and k^-1 mod y is (1 - y y') / k for
    y' = y^-1 mod k, and t = (b^-1 y'^2 - r y') mod k.  Other ends reduce
    n/(y k) first (`modsym.inverse_paths`)."""

    def __init__(self, base, d):
        k, level = abs(d), base.level * d * d
        chars = [(b, kronecker(d, b)) for b in range(1, k) if kronecker(d, b)]
        inverse = {r: pow(r, -1, k) for r in range(1, k) if gcd(r, k) == 1}
        b_inv = [inverse[b] for b, _ in chars]
        p1 = modsym.P1List(level)
        gens, ends = [], {}  # the two ends (x, y) of each generator; x^-1 mod y per end
        for c, e in p1:  # a = 1 when c = 0, and the lift is [[1, 0], [0, 1]]
            a = pow(e, -1, c) if c else 1
            b = (a * e - 1) // c % e if c and e else 0  # mod e, as [r + 1] = [r]
            gens.append(((b, e), (a, c)))
            if e:  # T(oo) = 0 at the ends (0, 0) of (1:0) and (1, 0) of (0:1)
                ends.setdefault((b, e), -c % e)
            if c:
                ends.setdefault((a, c), e % c)
        paths = []
        for (x, y), x_inv in ends.items():
            m, y_inv = y * k, inverse.get(y % k)
            if y_inv:  # gcd(y, k) = 1
                r = x_inv * ((1 - y * y_inv) // k) % y
                s, t = y_inv * y_inv % k, r * y_inv % k
                paths += [(m, r + y * ((b * s - t) % k)) for b in b_inv]
            else:
                paths += modsym.inverse_paths(m, [x * k + b * y for b, _ in chars])
        chis, walked = [chi for _, chi in chars], iter(base.walk(paths))
        groups = zip(*[walked] * len(chis))  # the values of each end's paths
        t = {end: sum(map(mul, chis, group)) for end, group in zip(ends, groups)}
        space = SimpleNamespace(p1=p1, level=level, sign=base.sign * (1 if d > 0 else -1))
        super().__init__(space, modsym.normalized([t.get(be, 0) - t.get(ac, 0)
                                                   for be, ac in gens]), {})
        self.base, self.d = base, d

    @property
    def weights(self):
        raise MeasureError("a twisted symbol has no presented basis")

    def eigenvalue(self, ell):
        chi = kronecker(self.d, ell)
        return chi and chi * self.base.eigenvalue(ell)


def euler_factor(root, chi_p):
    """Modified Euler factor at p for an unramified quadratic chi with
    chi(p) in {1, -1}, or chi_p = 0 for ramified chi (factor 1).

    Multiplicative p: 1 - chi(p)/alpha, an int, as alpha = 1/alpha = +-1.
    Good ordinary p: the weight-2 normalization
    (1 - chi(p)/alpha)(1 - chibar(p)/alpha), where chibar(p) = chi(p).
    """
    if chi_p == 0:
        return 1
    if chi_p not in (1, -1):
        raise MeasureError("only quadratic or trivial characters supported")
    if root.multiplicative:
        return 1 - chi_p * root.alpha_exact
    ainv = root.alpha ** -1
    return (1 - ainv * chi_p) * (1 - ainv * chi_p)


def twist_product_check(curve, d, p, depth=3, prec=20):
    """Quadratic-twist bookkeeping for the product of p-adic L-functions.

    chi_d(p) = 1 (split): both factors are exceptional; the derivative
    ratios and the Tate-period invariants of curve and twist must agree.
    chi_d(p) = -1 (inert): the twist's L_p(0) is its value at {0->oo}
    times the Euler factor of its unit root alpha, and `ratio` is
    L_p(0)/[0->oo] (null when [0->oo] = 0).  Where p | N the factor is
    1 - 1/alpha, which is 2 when E is split at p (alpha = -a_p(E) = -1),
    and `factor_two_exact` says whether L_p(0) = 2 [0->oo] exactly.  At a
    good ordinary p it is (1 - 1/alpha)^2, and
    `ratio_euler_agreement_digits` gives the digits to which `ratio` agrees
    with it (null with `ratio`).
    """
    if not is_fundamental_discriminant(d):
        raise MeasureError("D must be a fundamental discriminant")
    if gcd(d, curves.curve_level(curve) * p) != 1:
        raise MeasureError("D must be coprime to p and the conductor")
    chi_p = kronecker(d, p)  # +-1, as gcd(d, p) = 1
    if chi_p == 1:
        measures._require_split(curve, p)  # before any symbol is built
    sym_tw = TwistedSymbol(modsym.eigen_symbol(curve, 1 if d > 0 else -1), d)
    measure_tw = measures.build_measure(sym_tw, p, depth, prec=prec)
    report = {"curve": curve.label or str(curve.a_invariants), "D": d, "p": p, "chi_p": chi_p,
              "conventions": dict(CONVENTIONS)}

    if chi_p == 1:
        plus = sym_tw.base if d > 0 else modsym.eigen_symbol(curve)  # E's plus symbol
        l0, _, _, ratio, li_val = measures._ezc_sides(
            curve, measures.build_measure(plus, p, depth, prec=prec), prec)
        l0_tw, _, _, ratio_tw, li_tw = measures._ezc_sides(quadratic_twist(curve, d),
                                                           measure_tw, prec)
        return {
            **report,
            "case": "split",
            "base_ratio": ratio.to_json(),
            "twist_ratio": ratio_tw.to_json(),
            "ratio_agreement_digits": max(ratio.agreement(ratio_tw), ratio.agreement(-ratio_tw)),
            "tate_li_base": li_val.to_json(),
            "tate_li_twist": li_tw.to_json(),
            "tate_agreement_digits": li_val.agreement(li_tw),
            "base_augmentation": str(l0),
            "twist_augmentation": str(l0_tw),
            "product_vanishing_order_at_least_2": l0 == 0 and l0_tw == 0,
        }
    l0_tw = measure_tw.mass()
    v0_tw = sym_tw.at_zero
    factor_ = euler_factor(measure_tw.root, 1)
    report.update(case="inert", twist_L0=_encode(l0_tw), twist_value_at_zero=str(v0_tw),
                  euler_factor=_encode(factor_))
    if measure_tw.exact:  # p | N: an int L_p(0) over an int [0->oo]
        return {**report, "factor_two_exact": v0_tw != 0 and l0_tw == 2 * v0_tw,
                "ratio": rational(l0_tw, v0_tw) if v0_tw else None}
    if not v0_tw:
        return {**report, "ratio_euler_agreement_digits": None, "ratio": None}
    ratio = l0_tw / v0_tw
    return {**report, "ratio_euler_agreement_digits": ratio.agreement(factor_),
            "ratio": ratio.to_json()}
