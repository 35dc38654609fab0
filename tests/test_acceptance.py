"""Acceptance criteria, one test per criterion, each printing a verdict
line.  Tolerances are fixed here and nowhere else."""

import random
import time
from fractions import Fraction

from plinv.curves import curve_by_label, reduction_type, trace_of_frobenius
from plinv.measures import build_measure, exceptional_zero_check, stickelberger
from plinv.modsym import build_space, eigen_symbol
from plinv.padic import PadicNumber, branch_logs, iwasawa_log, teichmuller
from plinv.periods import Period, li
from plinv.twists import twist_product_check
from plinv.unramified import ExactUnramified, UnramifiedContext
from plinv.curves import tate_period

from helpers import branch_change_holds, j_invariant, j_of_q, one_minus_zeta_product, ugly_c


def verdict(number, ok, text):
    print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


MULT_PAIRS = [
    ("11a1", 11), ("11a2", 11), ("11a3", 11),
    ("14a1", 2), ("14a1", 7), ("15a1", 3), ("15a1", 5),
    ("17a1", 17), ("21a1", 3), ("21a1", 7), ("37b1", 37),
    ("11a1tw5", 11), ("11a1tw-4", 11), ("11a1tw-7", 11),
]

SPLIT_PAIRS = [("11a1", 11), ("15a1", 5), ("21a1", 3), ("17a1", 17), ("14a1", 7)]

_sym_cache = {}


def symbol_for(label):
    if label not in _sym_cache:
        _sym_cache[label] = eigen_symbol(curve_by_label(label))
    return _sym_cache[label]


def test_criterion_1_exceptional_zero_identity():
    """L_p'(0)/[0->oo] = +-LI_p(q_E) to >= 2 digits at depth 3, with a
    sign consistent across depths 2 and 3, within 5 minutes per pair."""
    ok = True
    details = []
    for label, p in SPLIT_PAIRS:
        start = time.time()
        rep3 = exceptional_zero_check(curve_by_label(label), p, depth=3, prec=20)
        rep2 = exceptional_zero_check(curve_by_label(label), p, depth=2, prec=20)
        elapsed = time.time() - start
        pair_ok = (
            rep3["agreement_digits"] >= 2      # |diff| <= p^-2
            and rep3["Lp0_is_zero"]
            and rep2["matched_sign"] == rep3["matched_sign"]
            and elapsed < 300
        )
        ok = ok and pair_ok
        details.append(f"{label}@{p}: sign {rep3['matched_sign']}, "
                       f"{rep3['agreement_digits']} digits, {elapsed:.1f}s")
    verdict(1, ok, "; ".join(details))


def test_criterion_2_twist_invariance():
    """For D = 5 with chi_D(11) = 1: automorphic and Tate-side LI agree
    to >= 2 digits for curve and twist, and the Tate-period LIs agree to
    full working precision."""
    prec = 20
    rep = twist_product_check(curve_by_label("11a1"), 5, 11, depth=3, prec=prec)
    base_vs_tate = exceptional_zero_check(curve_by_label("11a1"), 11, 3, prec)
    ok = (
        base_vs_tate["agreement_digits"] >= 2
        and rep["ratio_agreement_digits"] >= 2
        and rep["tate_agreement_digits"] >= prec - 2
    )
    verdict(2, ok,
            f"automorphic vs Tate {base_vs_tate['agreement_digits']} digits; "
            f"curve vs twist ratio {rep['ratio_agreement_digits']} digits; "
            f"Tate LIs agree to {rep['tate_agreement_digits']} digits "
            f"(working precision {prec})")


def test_criterion_3_product_formula_bookkeeping():
    """Split D: order >= 2 vanishing (both augmentations exactly 0);
    inert D: exact rational factor e = 2."""
    split = twist_product_check(curve_by_label("11a1"), 5, 11, depth=2)
    inert = twist_product_check(curve_by_label("11a1"), -4, 11, depth=2)
    ok = (
        split["product_vanishing_order_at_least_2"]
        and split["base_augmentation"] == "0"
        and split["twist_augmentation"] == "0"
        and inert["factor_two_exact"]
        and inert["euler_factor"] == "2"
    )
    verdict(3, ok,
            f"split D=5 augmentations ({split['base_augmentation']}, "
            f"{split['twist_augmentation']}); inert D=-4 ratio "
            f"{inert['ratio']} (exact)")


def test_criterion_4_exactness_suite():
    """Distribution, Theta-projection, chi-orthogonality and the
    augmentation-vanishing criterion hold with zero tolerance for every
    bundled multiplicative pair at depths <= 3."""
    pairs = [
        ("11a1", 11), ("14a1", 2), ("14a1", 7), ("15a1", 3), ("15a1", 5),
        ("17a1", 17), ("21a1", 3), ("21a1", 7), ("37b1", 37),
    ]
    ok = True
    checked = 0
    for label, p in pairs:
        sym = symbol_for(label)
        red = reduction_type(curve_by_label(label), p)
        measures = {n: build_measure(sym, p, n) for n in (1, 2, 3)}
        for n in (1, 2):
            ok = ok and measures[n + 1].pushforward().rows == measures[n].rows
        thetas = {n: stickelberger(measures[n]) for n in (1, 2, 3)}
        ok = ok and thetas[3].pushforward().values == thetas[2].values
        ok = ok and thetas[2].pushforward().values == thetas[1].values
        # augmentation vanishes iff alpha = +1 (split multiplicative)
        aug = thetas[1].mass()
        ok = ok and ((aug == 0) == (red.ap == 1))
        ok = ok and thetas[2].mass() == aug and thetas[3].mass() == aug
        # chi-orthogonality for the quadratic character of conductor p
        if p > 2:
            chi = lambda a: Fraction(1 if pow(a, (p - 1) // 2, p) == 1 else -1)
            lhs = sum(v * chi(a) for a, v in thetas[1].values.items())
            alpha = measures[1].root.alpha_exact
            rhs = Fraction(alpha) ** -1 * sum(
                chi(a) * sym.evaluate(Fraction(a, p)) for a in range(1, p)
            )
            ok = ok and lhs == rhs
        checked += 1
    verdict(4, ok, f"{checked} (curve, p) pairs, depths <= 3, zero tolerance")


def test_criterion_5_modular_symbol_correctness():
    """Cuspidal +/- dimensions match genus data; Hecke eigenvalues match
    point counting for good l <= 13 exactly; Hecke commutativity exact."""
    dims = {11: 1, 14: 1, 15: 1, 17: 1, 21: 1, 37: 2}
    ok = True
    for n, d in dims.items():
        ok = ok and build_space(n, 1).cuspidal_dimension == d
        ok = ok and build_space(n, -1).cuspidal_dimension == d
    for label, n in (("11a1", 11), ("14a1", 14), ("15a1", 15),
                     ("17a1", 17), ("21a1", 21), ("37b1", 37)):
        sym = symbol_for(label)
        w = sym.weights
        for l in (2, 3, 5, 7, 11, 13):
            if n % l == 0:
                continue
            ap = trace_of_frobenius(curve_by_label(label), l)
            mat = sym.space.hecke_matrix(l)
            img = [sum(w[i] * mat[i][j] for i in range(len(w))) for j in range(len(w))]
            ok = ok and img == [ap * x for x in w]
    from plinv.linalg import mat_mul

    for n in (11, 37):
        sp = build_space(n, 1)
        for l, m in ((2, 3), (2, 5), (3, 5)):
            ok = ok and mat_mul(sp.hecke_matrix(l), sp.hecke_matrix(m)) == \
                mat_mul(sp.hecke_matrix(m), sp.hecke_matrix(l))
    verdict(5, ok, "dims (1,1,1,1,1,2); eigenvalues = point counts for "
                   "good l <= 13; commutativity exact")


def test_criterion_6_padic_core_500_cases():
    """500 randomized cases of: log homomorphism, log_x(x) = 0, the
    change-of-branch identity, Teichmuller multiplicativity, precision
    soundness; every reported digit provable."""
    rng = random.Random(20260810)
    ok = True
    for case in range(500):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        n = rng.randrange(6, 16)
        # log homomorphism on units
        a = rng.randrange(1, p ** n)
        b = rng.randrange(1, p ** n)
        a += (a % p == 0)
        b += (b % p == 0)
        x = PadicNumber.from_int(p, a, n)
        y = PadicNumber.from_int(p, b, n)
        ok = ok and (iwasawa_log(x * y) - (iwasawa_log(x) + iwasawa_log(y))).is_zero
        # Teichmuller multiplicativity (exact at precision n)
        if p > 2:
            ta, tb = rng.randrange(1, p), rng.randrange(1, p)
            lhs = teichmuller(p, ta, n) * teichmuller(p, tb, n)
            ok = ok and lhs.lift() % p ** n == teichmuller(p, ta * tb % p, n).lift() % p ** n
        # branch log vanishing and the change-of-branch law
        u = Fraction(rng.randrange(1, 60))
        while u % p == 0:
            u += 1
        xx = Fraction(p ** rng.randrange(1, 3)) * u
        z = branch_logs(PadicNumber.from_fraction(p, xx, n),
                        [PadicNumber.from_fraction(p, xx, n)])[0]
        ok = ok and z.is_zero and z.abs_prec >= n - 2
        if case % 5 == 0:
            w = u + 1
            while w.numerator % p == 0:
                w += 1
            q = Period(p, [(Fraction(p) * u, 1), (w, rng.randrange(-2, 3))])
            den = rng.randrange(1, 40)
            while den % p == 0:
                den += 1
            num = rng.randrange(1, 40)
            while num % p == 0:
                num += 1
            yy = Fraction(p) * Fraction(num, den)
            ok = ok and branch_change_holds(q, xx, yy, prec=12)
        # precision soundness: recompute with 5 extra digits and truncate
        lo = iwasawa_log(PadicNumber.from_int(p, a, n))
        hi = iwasawa_log(PadicNumber.from_int(p, a, n + 5))
        d = lo - hi
        ok = ok and d.is_zero and d.abs_prec >= lo.abs_prec
        if not ok:
            break
    verdict(6, ok, f"500 randomized cases over p in {{2,...,13}} (seed 20260810)")


def test_criterion_7_ugly_quadratic_100_instances():
    """100 constructed instances of the quadratic identity
    f(LI_p(N(x))) = f(LI_p(N(x'))) with f(T) = T^2 - c T."""
    rng = random.Random(4104)
    ok = True
    count = 0

    def unit(rng, p):
        while True:
            a = rng.randrange(-40, 41)
            b = rng.randrange(1, 41)
            if a and a % p and b % p:
                return Fraction(a, b)

    for case in range(80):
        p = rng.choice([3, 5, 7, 11, 13])
        x = Fraction(p) * unit(rng, p)
        xp = Fraction(p) * unit(rng, p)
        qB = Period(p, [(x, 1), (xp, 1), (Fraction(p), -1)])
        c = ugly_c(qB, 1, prec=14)
        f = lambda t: t * t - c * t
        lx = li(Period(p, [(x, 1)]), "p", 14)
        lxp = li(Period(p, [(xp, 1)]), "p", 14)
        ok = ok and (f(lx) - f(lxp)).is_zero
        count += 1
    ctxs = {p: UnramifiedContext(p, 2) for p in (3, 5, 7)}
    for case in range(20):
        p = rng.choice([3, 5, 7])
        ctx = ctxs[p]
        d = rng.choice([1, 2])
        x = ExactUnramified(ctx, [p * unit(rng, p), p * Fraction(rng.randrange(0, 10))])
        xp = ExactUnramified(ctx, [p * unit(rng, p), p * Fraction(rng.randrange(0, 10))])
        qB = Period(p, [(x, 1), (xp, 1), (Fraction(p), -1)], ctx=ctx)
        c = ugly_c(qB, d, prec=12)
        f = lambda t: t * t - c * t
        nx = x.to_padic(15).norm(d)
        nxp = xp.to_padic(15).norm(d)
        lx = li(Period(p, [(nx, 1)], ctx=ctx), "p", 12)
        lxp = li(Period(p, [(nxp, 1)], ctx=ctx), "p", 12)
        ok = ok and (f(lx) - f(lxp)).is_zero
        count += 1
    verdict(7, ok, f"{count} instances (80 over Q_p, 20 over Q_p^2 with "
                   f"both subfields), all equal to provable precision")


def test_criterion_8_tate_round_trip():
    """j(q) = j(E) to >= N - v(delta) - 2
    significant digits and ord(q) = v(delta) exactly, for every bundled
    multiplicative pair."""
    prec = 16
    ok = True
    lines = []
    for label, p in MULT_PAIRS:
        e = curve_by_label(label)
        red = reduction_type(e, p)
        q = tate_period(e, p, prec)
        good_ord = q.ord() == red.v_delta
        jq = j_of_q(q)
        jexp = PadicNumber.from_fraction(p, j_invariant(red.minimal), prec + 12)
        # relative agreement beyond ord(j) = -v_delta
        digits = jq.agreement(jexp) + red.v_delta
        pair_ok = good_ord and jq == jexp and digits >= prec - red.v_delta - 2
        ok = ok and pair_ok
        lines.append(f"{label}@{p}:{digits}")
    verdict(8, ok, f"relative j-agreement digits at prec {prec}: " + " ".join(lines))


def test_criterion_9_cyclotomic_identity():
    """prod_(i=1..n-1) (1 - zeta_n^i) = n exactly for 2 <= n <= 30."""
    ok = all(one_minus_zeta_product(n) == n for n in range(2, 31))
    verdict(9, ok, "exact in Z[x]/Phi_n for n = 2..30")
