import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import assume, given, settings, strategies as st

from plinv.padic import (
    PadicError,
    PadicNumber,
    branch_log,
    check_prime,
    factor,
    int_val,
    iwasawa_log,
    ordp,
    teichmuller,
)

from helpers import assert_same, frac_mod, oracle_log_series, oracle_teichmuller


class TestOrd:
    def test_fifty_at_five(self):
        assert ordp(PadicNumber.from_int(5, 50, 10)) == 2

    def test_discriminant_at_eleven(self):
        assert ordp(PadicNumber.from_int(11, -161051, 8)) == 5

    def test_unit(self):
        assert ordp(PadicNumber.from_int(7, 3, 5)) == 0

    def test_zero_errors(self):
        with pytest.raises(PadicError, match="valuation of zero"):
            PadicNumber.zero(5).ord()

    def test_fraction_ord(self):
        assert ordp(Fraction(50, 7), 5) == 2
        assert ordp(Fraction(3, 25), 5) == -2


class TestFactor:
    @settings(max_examples=500, deadline=None)
    @given(n=st.integers(1, 10 ** 7))
    def test_prime_powers_multiply_back(self, n):
        f = factor(n)
        prod = 1
        for q, e in f.items():
            assert check_prime(q) == q and e >= 1
            prod *= q ** e
        assert prod == n
        assert list(f) == sorted(f)

    # on both sides of the trial-division bound; rho's time grows as the
    # square root of the second-largest prime factor, so 10^12 comes once
    PRIMES = (2, 3, 5, 7, 997, 1009, 9973, 65537, 999983, 1000003, 2147483647)
    LARGE = (999999000001, 999999999989)

    @settings(max_examples=100, deadline=None)
    @given(powers=st.dictionaries(st.sampled_from(PRIMES), st.integers(1, 3), max_size=4),
           large=st.sets(st.sampled_from(LARGE), max_size=1))
    def test_products_of_known_primes(self, powers, large):
        powers = {**powers, **dict.fromkeys(large, 1)}
        n = 1
        for q, e in powers.items():
            n *= q ** e
        assert factor(n) == dict(sorted(powers.items()))

    def test_edge_cases(self):
        assert factor(1) == {}
        assert factor(2 ** 20) == {2: 20}
        assert factor(9973 * 9973) == {9973: 2}
        assert factor(999999000001 * 999999999989) == {999999000001: 1, 999999999989: 1}
        for n in (0, -6):
            with pytest.raises(PadicError):
                factor(n)


class TestArithmetic:
    def test_rational_roundtrip(self):
        x = PadicNumber.from_fraction(7, Fraction(22, 5), 6)
        y = PadicNumber.from_fraction(7, Fraction(5, 1), 6)
        assert_same(x * y, PadicNumber.from_int(7, 22, 6))

    def test_addition_cancellation_tracks_precision(self):
        a = PadicNumber.from_int(5, 1 + 5 ** 3, 3)  # 1 + O(5^3) as far as we know
        b = PadicNumber.from_int(5, -1, 3)
        s = a + b
        # all three known digits cancel: result is 0 mod 5^3, nothing more
        assert s.is_zero and s.abs_prec == 3

    def test_mixed_valuation_addition(self):
        a = PadicNumber.from_int(5, 25, 4)   # known mod 5^6
        b = PadicNumber.from_int(5, 3, 4)    # known mod 5^4
        s = a + b
        assert s.ord() == 0
        assert s.abs_prec == 4
        assert s.lift() % 5 ** 4 == 28 % 5 ** 4

    def test_division(self):
        a = PadicNumber.from_int(5, 50, 6)
        b = PadicNumber.from_int(5, 10, 6)
        assert_same(a / b, PadicNumber.from_int(5, 5, 6))

    def test_pow_negative(self):
        x = PadicNumber.from_int(7, 21, 5)
        assert_same(x ** -2 * x ** 2, PadicNumber.from_int(7, 1, 5))

    def test_exact_scalar_mul(self):
        x = PadicNumber.from_int(5, 12, 4)
        assert_same(x * Fraction(3, 7), PadicNumber.from_fraction(5, Fraction(36, 7), 4))

    def test_equality_is_interval_equality(self):
        a = PadicNumber.from_int(5, 6, 2)
        b = PadicNumber.from_int(5, 6 + 25, 3)
        assert a == b  # indistinguishable to shared precision
        c = PadicNumber.from_int(5, 7, 3)
        assert a != c


class TestSerialization:
    def test_digit_string(self):
        x = PadicNumber.from_int(5, 55, 3)
        assert x.digits() == [1, 2, 0]
        assert x.ord() == 1
        assert "1 2 0" in repr(x)

    def test_json_roundtrip_fields(self):
        x = PadicNumber.from_fraction(7, Fraction(3, 49), 4)
        d = x.to_json()
        assert d["p"] == 7 and d["v"] == -2 and d["n"] == 4
        y = PadicNumber(d["p"], d["v"], int(d["unit"]), d["n"])
        assert_same(x, y)

    def test_json_zero(self):
        assert PadicNumber.zero(5).to_json()["zero"] is True


class TestTeichmuller:
    def test_one(self):
        assert teichmuller(5, 1, 8).lift() == 1

    def test_p5_a2(self):
        # oracle: iterate x -> x^p to its fixed point
        assert oracle_teichmuller(5, 2, 2) == 7
        assert teichmuller(5, 2, 2).lift() == 7

    def test_p3_a2(self):
        assert oracle_teichmuller(3, 2, 3) == 26
        assert teichmuller(3, 2, 3).lift() == 26

    def test_nonunit_errors(self):
        with pytest.raises(PadicError):
            teichmuller(5, 0, 3)
        with pytest.raises(PadicError):
            teichmuller(5, 10, 3)

    def test_matches_fixed_point_oracle(self):
        rng = random.Random(7)
        for _ in range(40):
            p = rng.choice([3, 5, 7, 11, 13])
            a = rng.randrange(1, p)
            n = rng.randrange(1, 12)
            assert teichmuller(p, a, n).lift() == oracle_teichmuller(p, a, n)

    @settings(max_examples=100, deadline=None)
    @given(p=st.sampled_from([2, 3, 5, 7, 11, 37]), a=st.integers(1, 10 ** 6),
           n=st.integers(1, 500))
    def test_root_of_unity_at_any_precision(self, p, a, n):
        assume(a % p)
        w, m = teichmuller(p, a, n).lift(), p ** n
        assert pow(w, p - 1, m) == 1 and (w - a) % p == 0

    def test_multiplicative(self):
        p, n = 7, 9
        for a in range(1, p):
            for b in range(1, p):
                lhs = teichmuller(p, a, n) * teichmuller(p, b, n)
                rhs = teichmuller(p, a * b % p, n)
                assert lhs.lift() == rhs.lift()


class TestIwasawaLog:
    def test_log_one(self):
        assert iwasawa_log(PadicNumber.from_int(5, 1, 6)).is_zero

    def test_log_p_is_zero(self):
        assert iwasawa_log(PadicNumber.from_int(5, 5, 6)).is_zero

    def test_log_six_mod_125(self):
        expected = frac_mod(oracle_log_series(Fraction(5), 12), 5, 3)
        assert expected == 55
        got = iwasawa_log(PadicNumber.from_int(5, 6, 6))
        assert got.lift() % 125 == 55

    def test_log_kills_teichmuller(self):
        w = teichmuller(7, 3, 8)
        assert iwasawa_log(w).is_zero

    def test_log_at_two(self):
        # 1+4 = 5: log_2(5) = log(1+4) via the squaring fallback
        got = iwasawa_log(PadicNumber.from_int(2, 5, 10))
        expected = frac_mod(oracle_log_series(Fraction(24), 24) / 2, 2, 10)
        assert got.lift() % 2 ** 10 == expected
        # 3 = -1 * (1+4)^(...): log(3) = log(9)/2
        got3 = iwasawa_log(PadicNumber.from_int(2, 3, 10))
        exp3 = frac_mod(oracle_log_series(Fraction(8), 24) / 2, 2, 10)
        assert got3.lift() % 2 ** 10 == exp3

    def test_homomorphism_random(self):
        rng = random.Random(13)
        for _ in range(60):
            p = rng.choice([2, 3, 5, 7, 11])
            n = rng.randrange(4, 14)
            a = rng.randrange(1, p ** n)
            b = rng.randrange(1, p ** n)
            while a % p == 0:
                a += 1
            while b % p == 0:
                b += 1
            x = PadicNumber.from_int(p, a, n)
            y = PadicNumber.from_int(p, b, n)
            assert_same(iwasawa_log(x * y), iwasawa_log(x) + iwasawa_log(y))

    ORACLE_PRIMES = [2, 3, 5, 7, 11, 37]

    @staticmethod
    def _terms_needed(m, p, n):
        """The K such that every term k > K of log(1 + z), v(z) = m,
        vanishes mod p^n: term k has valuation >= k m - floor(log_p k),
        which does not decrease in k."""
        k = 1
        while True:
            log_k = 0
            while p ** (log_k + 1) <= k:
                log_k += 1
            if k * m - log_k >= n:
                return k - 1
            k += 1

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=st.sampled_from(ORACLE_PRIMES), n=st.integers(1, 24))
    def test_one_units_match_the_exact_series(self, data, p, n):
        q = 4 if p == 2 else p
        x = 1 + q * data.draw(st.integers(0, p ** n))
        got = iwasawa_log(PadicNumber.from_int(p, x, n))
        assert got.abs_prec >= n
        if x == 1:
            assert got.is_zero
            return
        z = x - 1
        series = oracle_log_series(z, self._terms_needed(int_val(z, p), p, n))
        assert got.lift() % p ** n == frac_mod(series, p, n)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=st.sampled_from(ORACLE_PRIMES), n=st.integers(1, 24))
    def test_log_of_a_power(self, data, p, n):
        u = data.draw(st.integers(1, p ** n).filter(lambda a: a % p))
        x = PadicNumber.from_int(p, u, n)
        assert_same(iwasawa_log(x) * (p - 1), iwasawa_log(x ** (p - 1)), min_abs_prec=n)


class TestBranchLog:
    def test_branch_at_itself(self):
        x = PadicNumber.from_int(5, 30, 6)
        z = branch_log(x, x)
        assert z.is_zero and z.abs_prec >= 5

    def test_branch_at_p_is_iwasawa(self):
        x = PadicNumber.from_int(5, 5, 6)
        y = PadicNumber.from_int(5, 12, 6)
        assert_same(branch_log(x, y), iwasawa_log(y))

    def test_example_30_5(self):
        x = PadicNumber.from_int(5, 30, 8)
        y = PadicNumber.from_int(5, 5, 8)
        got = branch_log(x, y)
        # log_30(5) = -log(6); series oracle says log(6) = 55 mod 125
        assert (-got).lift() % 125 == 55
        assert got.lift() % 125 == 70

    def test_unit_direction_rejected(self):
        x = PadicNumber.from_int(5, 3, 6)
        with pytest.raises(PadicError, match="not a branch direction"):
            branch_log(x, x)

    def test_homomorphism_in_second_argument(self):
        rng = random.Random(99)
        for _ in range(40):
            p = rng.choice([3, 5, 7])
            n = rng.randrange(5, 12)
            x = PadicNumber.from_fraction(p, Fraction(p * rng.randrange(1, 50), rng.randrange(1, 50)), n)
            if x.ord() == 0:
                continue
            a = PadicNumber.from_int(p, rng.randrange(1, p ** 4) * p + 1, n)
            b = PadicNumber.from_int(p, rng.randrange(1, p ** 4) * p + 2, n)
            if b.lift() % p == 0:
                continue
            assert_same(branch_log(x, a * b), branch_log(x, a) + branch_log(x, b))


class TestPrecisionSoundness:
    def test_examples_stable_under_extra_digits(self):
        cases = [
            lambda n: teichmuller(5, 2, n),
            lambda n: iwasawa_log(PadicNumber.from_int(5, 6, n)),
            lambda n: branch_log(
                PadicNumber.from_int(5, 30, n), PadicNumber.from_int(5, 5, n)
            ),
            lambda n: iwasawa_log(PadicNumber.from_int(2, 7, n)),
        ]
        for f in cases:
            lo = f(8)
            hi = f(13)
            d = lo - hi
            assert d.is_zero and d.abs_prec >= lo.abs_prec

    def test_zero_bookkeeping(self):
        z = PadicNumber.zero(5)
        assert z.is_exact_zero and z.abs_prec == inf
        x = PadicNumber.from_int(5, 7, 4)
        assert (x + z) == x
        assert (x * z).is_zero
