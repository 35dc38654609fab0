import random
from fractions import Fraction
from math import gcd

import pytest

from plinv.curves import curve_by_label, curve_table, trace_of_frobenius
from plinv.linalg import mat_mul, rank
from plinv.modsym import (
    INF,
    ModSymError,
    P1List,
    build_space,
    eigen_symbol,
    lift_to_sl2z,
)

from helpers import (
    hecke_matrix_reference,
    l_value_at_one,
    p1_orbit_minima,
    p1_reduce_reference,
    path_to_infinity,
    real_period,
)


# every N <= 120, plus one highly composite level and a prime power
P1_ORACLE_LEVELS = list(range(1, 121)) + [720, 1024]

BUNDLED_LEVELS = {"11a1": 11, "14a1": 14, "15a1": 15, "17a1": 17, "21a1": 21, "37b1": 37}


def genus_gamma0(n):
    """Independent genus oracle for X_0(N)."""
    def mu(n):
        out = n
        for p in _prime_divisors(n):
            out = out // p * (p + 1)
        return out

    def nu2(n):
        if n % 4 == 0:
            return 0
        out = 1
        for p in _prime_divisors(n):
            out *= 1 + _kron(-1, p)
        return out

    def nu3(n):
        if n % 9 == 0:
            return 0
        out = 1
        for p in _prime_divisors(n):
            out *= 1 + _kron(-3, p)
        return out

    def nuinf(n):
        total = 0
        for d in range(1, n + 1):
            if n % d == 0:
                total += _phi(gcd(d, n // d))
        return total

    g = 1 + Fraction(mu(n), 12) - Fraction(nu2(n), 4) - Fraction(nu3(n), 3) - Fraction(nuinf(n), 2)
    assert g.denominator == 1
    return int(g), nuinf(n)


def _prime_divisors(n):
    out = []
    q = 2
    while n > 1:
        if q * q > n:
            q = n
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        else:
            q += 1
    return out


def _phi(n):
    out = n
    for p in _prime_divisors(n):
        out = out // p * (p - 1)
    return out


def _kron(d, p):
    if p == 2:
        return 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    r = pow(d % p, (p - 1) // 2, p)
    return 0 if r == 0 else (1 if r == 1 else -1)


class TestP1:
    def test_size_formula(self):
        for n in P1_ORACLE_LEVELS:
            size = n
            for p in _prime_divisors(n):
                size = size // p * (p + 1)
            assert len(P1List(n)) == size

    def test_sieve_matches_brute_force(self):
        for n in P1_ORACLE_LEVELS:
            p1 = P1List(n)
            assert [p1[i] for i in range(len(p1))] == p1_orbit_minima(n), n

    def test_reduce_matches_orbit_minimum(self):
        rng = random.Random(3)
        for n in range(1, 41):
            p1 = P1List(n)
            for c in range(n):
                for d in range(n):
                    if gcd(gcd(c, d), n) == 1:
                        assert p1.reduce(c, d) == p1_reduce_reference(n, c, d), (n, c, d)
        for n in (720, 1024):
            p1 = P1List(n)
            for _ in range(300):
                c, d = rng.randrange(-n, 2 * n), rng.randrange(-n, 2 * n)
                if gcd(gcd(c, d), n) == 1:
                    assert p1.reduce(c, d) == p1_reduce_reference(n, c, d), (n, c, d)

    def test_reduce_constant_on_orbits(self):
        # brute-force oracle for the canonical form
        for n in (6, 9, 10, 12, 15, 18, 22):
            p1 = P1List(n)
            units = [s for s in range(1, n) if gcd(s, n) == 1]
            for c in range(n):
                for d in range(n):
                    if gcd(gcd(c, d), n) != 1:
                        with pytest.raises(ModSymError):
                            p1.reduce(c, d)
                        continue
                    canon = p1.reduce(c, d)
                    for s in units:
                        assert p1.reduce(s * c % n, s * d % n) == canon

    def test_lift_bottom_row(self):
        for n in (11, 14, 15, 37, 45):
            p1 = P1List(n)
            for i in range(len(p1)):
                c, d = p1[i]
                a, b, cc, dd = lift_to_sl2z(c, d, n)
                assert a * dd - b * cc == 1
                assert p1.reduce(cc, dd) == (c, d)


class TestSpaces:
    def test_level_one_trivial(self):
        assert build_space(1, 1).cuspidal_dimension == 0

    @pytest.mark.parametrize("label,n", sorted(BUNDLED_LEVELS.items()))
    def test_cuspidal_dims_match_genus(self, label, n):
        g, nuinf = genus_gamma0(n)
        plus = build_space(n, 1)
        minus = build_space(n, -1)
        assert plus.cuspidal_dimension == g
        assert minus.cuspidal_dimension == g
        assert plus.dimension == g + nuinf - 1

    def test_expected_dims_explicit(self):
        expected = {11: 1, 14: 1, 15: 1, 17: 1, 21: 1, 37: 2}
        for n, d in expected.items():
            assert build_space(n, 1).cuspidal_dimension == d


class TestHecke:
    def test_t2_eigenvalue_minus2_at_11(self):
        sp = build_space(11, 1)
        t2 = sp.hecke_matrix(2)
        # char poly roots: Eisenstein 3 = l + 1, cuspidal -2 = a_2(11a1)
        tr = t2[0][0] + t2[1][1]
        det = t2[0][0] * t2[1][1] - t2[0][1] * t2[1][0]
        assert tr == 3 + (-2) and det == 3 * (-2)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("level", [11, 37, 176, 275, 389])
    def test_matches_path_reference(self, level, sign):
        # integer generator counts against rational path coordinates; the
        # primes dividing 11, 176 = 2^4 11 and 275 = 5^2 11 give U_ell
        sp = build_space(level, sign)
        for ell in (2, 3, 5, 7, 11):
            assert sp.hecke_matrix(ell) == hecke_matrix_reference(sp, ell), ell

    def test_commutativity(self):
        for n in (11, 37):
            sp = build_space(n, 1)
            t2, t3 = sp.hecke_matrix(2), sp.hecke_matrix(3)
            assert mat_mul(t2, t3) == mat_mul(t3, t2)

    def test_eisenstein_line(self):
        # T_l has eigenvalue l+1 on the boundary for l not dividing N
        for n, l in ((11, 2), (11, 3), (14, 3), (15, 2)):
            sp = build_space(n, 1)
            a = sp.hecke_matrix(l)
            d = len(a)
            shifted = [[a[i][j] - (l + 1) * int(i == j) for j in range(d)] for i in range(d)]
            assert rank(shifted) < d

    def test_cuspidal_eigenvalues_match_point_counts(self):
        for label, n in BUNDLED_LEVELS.items():
            e = curve_by_label(label)
            sym = eigen_symbol(e)
            for l in (2, 3, 5, 7, 11, 13):
                if n % l == 0:
                    continue
                ap = trace_of_frobenius(e, l)
                sp = sym.space
                mat = sp.hecke_matrix(l)
                w = sym.weights
                img = [sum(w[i] * mat[i][j] for i in range(len(w))) for j in range(len(w))]
                assert img == [ap * x for x in w], (label, l)

    def test_up_eigenvalue_at_bad_primes(self):
        # split multiplicative <=> U_p eigenvalue +1 (exceptional trigger)
        expected = {
            ("11a1", 11): 1, ("14a1", 2): -1, ("14a1", 7): 1,
            ("15a1", 3): -1, ("15a1", 5): 1, ("17a1", 17): 1,
            ("21a1", 3): 1, ("21a1", 7): -1, ("37b1", 37): 1,
        }
        syms = {}
        for (label, p), want in expected.items():
            sym = syms.setdefault(label, eigen_symbol(curve_by_label(label)))
            assert sym.eigenvalues[p] == want, (label, p)
            # cross-oracle: the geometric split test gives the same sign
            from plinv.curves import reduction_type

            red = reduction_type(curve_by_label(label), p)
            assert red.ap == want


class TestEigenSymbol:
    def test_11a1_is_the_cuspidal_line(self):
        sym = eigen_symbol(curve_by_label("11a1"))
        assert sym.level == 11 and len(sym.weights) == 2

    def test_37b1_selected_by_a2(self):
        sym = eigen_symbol(curve_by_label("37b1"))
        assert sym.eigenvalues[2] == 0  # a_2(37b1) = 0 != a_2(37a1) = -2
        assert sym.eigenvalues[37] == 1

    def test_corrupted_probe_errors(self):
        with pytest.raises(ModSymError, match="curve not found"):
            eigen_symbol(curve_by_label("11a1"), _eigen_override={2: 17, 3: 20, 5: 1, 7: 1, 13: 1})

    def test_values_are_integral_content_one(self):
        for label in ("11a1", "37b1", "15a1"):
            sym = eigen_symbol(curve_by_label(label))
            nums = [v for v in sym.gen_values if v]
            assert all(v.denominator == 1 for v in nums)
            g = 0
            for v in nums:
                g = gcd(g, abs(v.numerator))
            assert g == 1

    def test_content_normalization_idempotent(self):
        s1 = eigen_symbol(curve_by_label("11a1"))
        s2 = eigen_symbol(curve_by_label("11a1"))
        assert s1.gen_values == s2.gen_values


class TestEvaluate:
    def test_value_at_zero_11a1(self):
        sym = eigen_symbol(curve_by_label("11a1"))
        assert sym.at_zero == 2

    def test_lattice_against_complex_oracle(self):
        # L(11a1,1)/Omega+ = 1/5 (quadrature); the content-1 symbol is
        # that functional rescaled by 10, so value-at-zero is 2.
        import mpmath as mp

        e, n = curve_table()["11a1"]
        ratio = l_value_at_one(e, n, trace_of_frobenius) / real_period(e)
        assert abs(ratio - mp.mpf(1) / 5) < 1e-12
        sym = eigen_symbol(e)
        scale = sym.at_zero / Fraction(1, 5)
        assert scale == 10

    def test_plus_symbol_parity(self):
        sym = eigen_symbol(curve_by_label("11a1"))
        for r in (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), Fraction(4, 121)):
            assert sym.evaluate(r) == sym.evaluate(-r)

    def test_gamma0_invariance(self):
        rng = random.Random(7)
        for label in ("11a1", "37b1"):
            sym = eigen_symbol(curve_by_label(label))
            n = sym.level
            for _ in range(20):
                # random gamma in Gamma_0(N)
                c = n * rng.choice([-3, -2, -1, 1, 2, 3])
                d = rng.randrange(1, 15)
                while gcd(c, d) != 1:
                    d += 1
                g, x, y = _xgcd_local(d, -c)
                a, b = x, y  # a d - b c = 1
                assert a * d - b * c == 1
                r = Fraction(rng.randrange(-30, 31), rng.randrange(1, 30))
                gr = _moeb(a, b, c, d, r)
                ginf = _moeb(a, b, c, d, INF)
                assert sym.evaluate_path(gr, ginf) == sym.evaluate_path(r, INF)

    def test_evaluate_path_additivity(self):
        sym = eigen_symbol(curve_by_label("11a1"))
        r1, r2 = Fraction(1, 5), Fraction(3, 7)
        assert sym.evaluate_path(r1, r2) == sym.evaluate(r1) - sym.evaluate(r2)


def _xgcd_local(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _moeb(a, b, c, d, z):
    if z is INF:
        return INF if c == 0 else Fraction(a, c)
    den = c * z + d
    if den == 0:
        return INF
    return (a * z + b) / den


def _dot_product_value(sym, r):
    coords = path_to_infinity(sym.space, r)
    return sum((sym.weights[k] * v for k, v in coords.items()), Fraction(0))


class TestFastEvaluate:
    """evaluate() sums integer generator values; the oracle dots the
    rational coordinates of the path with the eigen-weights."""

    @staticmethod
    def _check_units(sym, p, depth=3):
        for n in range(1, depth + 1):
            pn = p ** n
            for a in range(1, pn):
                if a % p:
                    r = Fraction(a, pn)
                    assert sym.evaluate(r) == _dot_product_value(sym, r), (sym.label, r)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("label,p", [("11a1", 11), ("14a1", 7), ("15a1", 5),
                                         ("17a1", 17), ("21a1", 3), ("37b1", 37)])
    def test_split_pairs(self, label, p, sign):
        self._check_units(eigen_symbol(curve_by_label(label), sign), p)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("label,level", [("11a1tw-4", 176), ("11a1tw5", 275)])
    def test_twist_levels(self, label, level, sign):
        sym = eigen_symbol(curve_by_label(label), sign, level=level)
        self._check_units(sym, 11)
        assert sym.evaluate(INF) == 0 == _dot_product_value(sym, INF)

    def test_value_at_zero_sign_follows_normalization(self):
        # the sign flip in eigen_symbol must reach the generator values too
        for label in BUNDLED_LEVELS:
            sym = eigen_symbol(curve_by_label(label))
            assert sym.at_zero == _dot_product_value(sym, 0) >= 0


class TestTwistLevels:
    def test_twist_eigen_symbols(self):
        sym5 = eigen_symbol(curve_by_label("11a1tw5"), level=275)
        assert sym5.eigenvalues[2] == 2       # chi_5(2) * a_2(11a1)
        assert sym5.eigenvalues[11] == 1      # still split at 11
        assert sym5.eigenvalues[5] == 0       # additive at 5
        assert sym5.at_zero != 0
        sym4 = eigen_symbol(curve_by_label("11a1tw-4"), level=176)
        assert sym4.eigenvalues[11] == -1     # nonsplit at 11
        assert sym4.at_zero != 0
