import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plinv import padic
from plinv.padic import PadicNumber, branch_log, iwasawa_log
from plinv.periods import (
    NotAPeriodError,
    Period,
    branch_change_check,
    equivalence_check,
    li,
    ugly_polynomial,
)
from plinv.unramified import ExactUnramified, UnramifiedContext

from helpers import assert_same, unit_coeffs


def rand_unit_fraction(rng, p):
    while True:
        a = rng.randrange(-40, 41)
        b = rng.randrange(1, 41)
        if a and a % p and b % p:
            return Fraction(a, b)


def rand_period(rng, p, nfactors=2):
    """Random period with rational bases and ord exactly 1."""
    factors = [(Fraction(p) * rand_unit_fraction(rng, p), 1)]
    for _ in range(nfactors - 1):
        factors.append((rand_unit_fraction(rng, p), rng.randrange(-3, 4)))
    return Period(p, factors)


class TestPeriodType:
    def test_normalization_merges_and_drops(self):
        q = Period(5, [(Fraction(5), 2), (Fraction(5), -1), (Fraction(3), 0)])
        assert q.factors == ((Fraction(5), 1),)

    def test_unit_is_not_a_period(self):
        with pytest.raises(NotAPeriodError, match="not a period"):
            Period(5, [(Fraction(6), 1)])

    def test_one_plus_p_is_not_a_period(self):
        with pytest.raises(NotAPeriodError, match="not a period"):
            Period(5, [(Fraction(6), 3)])

    def test_total_ord(self):
        q = Period(5, [(Fraction(50), 1), (Fraction(2, 5), 3)])
        assert q.total_ord() == 2 - 3


class TestLi:
    def test_li_of_p_is_zero(self):
        q = Period(5, [(Fraction(5), 1)])
        assert li(q, "p").is_zero

    def test_li_of_30(self):
        q = Period(5, [(Fraction(30), 1)])
        got = li(q, "iwasawa", prec=6)
        # log_5(30) = log_5(6); series oracle gives 55 mod 125
        assert got.lift() % 125 == 55

    def test_power_invariance(self):
        rng = random.Random(3)
        for _ in range(10):
            q = rand_period(rng, 7)
            for k in (2, -1, 5):
                assert_same(li(q, "p", 12), li(q.power(k), "p", 12), 8)

    def test_cyclotomic_branch_equals_iwasawa_over_qp(self):
        q = Period(5, [(Fraction(30), 1)])
        assert_same(li(q, "cyc", 10), li(q, "p", 10), 8)

    def test_cyclotomic_branch_unramified(self):
        ctx = UnramifiedContext(5, 2)
        x = ExactUnramified(ctx, [Fraction(5), Fraction(10)])  # ord 1
        q = Period(5, [(x, 1)], ctx=ctx)
        got = li(q, "cyc", 10)
        # oracle: log(N(x)) / ord(x), norm computed independently
        xn = x.to_padic(14).norm().as_padic()
        expected = iwasawa_log(xn)
        assert_same(got, expected, 8)

    def test_branch_element(self):
        # LI_x(x) = 0
        x = Fraction(30)
        q = Period(5, [(x, 1)])
        z = li(q, branch=x, prec=10)
        assert z.is_zero and z.abs_prec >= 7

    def test_element_branch_logs_the_branch_once(self, monkeypatch):
        # one log per factor and one of the branch element; the value is the
        # sum of the factors' branch_log, digit for digit
        factors = [(Fraction(2, 3), -2), (Fraction(50), 1), (Fraction(7), 3)]
        q, x = Period(5, factors), Fraction(10)
        xl = PadicNumber.from_fraction(5, x, 23)  # li works 3 digits beyond prec
        vals = [branch_log(xl, PadicNumber.from_fraction(5, b, 23)) * e for b, e in factors]
        want = (vals[0] + vals[1] + vals[2]) * Fraction(1, q.total_ord())
        logs = []
        real = padic.iwasawa_log
        monkeypatch.setattr(padic, "iwasawa_log", lambda z: logs.append(z) or real(z))
        got = li(q, branch=x, prec=20)
        assert len(logs) == len(factors) + 1
        assert repr(got) == repr(want) and got.abs_prec == want.abs_prec

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), f=st.sampled_from([1, 2, 3]),
           n=st.integers(1, 40))
    def test_element_branch_is_branch_log(self, data, p, f, n):
        # li of the one-factor period y is log_x(y) / ord(y), over Q_{p^f}
        ctx = UnramifiedContext(p, f)

        def element():
            v = data.draw(st.integers(-3, 3).filter(bool))
            return ctx.from_vector([Fraction(p) ** v * c for c in unit_coeffs(data, p, f, n)], n)

        x, y = element(), element()
        want = branch_log(x, y)
        assert_same(li(Period(p, [(y, 1)]), branch=x, prec=n) * y.ord(), want, want.abs_prec)


class TestBranchChange:
    def test_y_equals_x(self):
        q = Period(5, [(Fraction(50, 3), 1)])
        rep = branch_change_check(q, Fraction(30), Fraction(30), prec=12)
        assert rep.equal

    def test_x_p_y_p2(self):
        q = Period(5, [(Fraction(10), 1)])
        rep = branch_change_check(q, Fraction(5), Fraction(25), prec=12)
        assert rep.equal
        # LI_{p^2}(q) = LI_p(q) since log_p(p^2) = 0
        assert_same(li(q, branch=Fraction(25), prec=12), li(q, "p", 12), 9)

    def test_random_q_x30_y50(self):
        rng = random.Random(17)
        for _ in range(8):
            q = rand_period(rng, 5)
            rep = branch_change_check(q, Fraction(30), Fraction(50), prec=14)
            assert rep.equal

    def test_chains_consistently(self):
        # applying the change-of-branch law twice agrees with once
        rng = random.Random(23)
        for _ in range(6):
            p = rng.choice([5, 7, 11])
            q = rand_period(rng, p)
            x = Fraction(p) * rand_unit_fraction(rng, p)
            y = Fraction(p * p) * rand_unit_fraction(rng, p)
            z = Fraction(p) * rand_unit_fraction(rng, p)
            li_z_direct = li(q, branch=z, prec=14)
            # via x: LI_z(q) = LI_x(q) - LI_x(z)
            via_x = li(q, branch=x, prec=14) - li(Period(p, [(z, 1)]), branch=x, prec=14)
            # via y then x
            li_y = li(q, branch=y, prec=14)
            via_y = li_y - (li(Period(p, [(z, 1)]), branch=y, prec=14))
            d1 = li_z_direct - via_x
            d2 = li_z_direct - via_y
            assert d1.is_zero and d2.is_zero


class TestEquivalence:
    def test_q_and_q_cubed(self):
        rng = random.Random(31)
        q = rand_period(rng, 5)
        rep = equivalence_check(q, q.power(3), Fraction(30), prec=12)
        assert rep.equal
        assert rep.details["exact_power_identity"]

    def test_inequivalent_after_unit_twist(self):
        # q * u for a unit u with log u != 0 changes the invariant
        q = Period(5, [(Fraction(5), 1)])
        qu = Period(5, [(Fraction(5), 1), (Fraction(6), 1)])
        rep = equivalence_check(q, qu, Fraction(30), prec=12)
        assert not rep.equal

    def test_independent_of_branch_element(self):
        rng = random.Random(41)
        q = rand_period(rng, 7)
        qt = q.power(2)
        for x in (Fraction(7), Fraction(14, 3), Fraction(49 * 5)):
            assert equivalence_check(q, qt, x, prec=12).equal

    def test_nonperiod_second_argument(self):
        with pytest.raises(NotAPeriodError):
            equivalence_check(
                Period(5, [(Fraction(5), 1)]),
                Period(5, [(Fraction(6), 1)]),
                Fraction(5),
            )


class TestUgly:
    def test_qp_base_case(self):
        # qB = p: c = 0, f = T^2
        q = Period(5, [(Fraction(5), 1)])
        f = ugly_polynomial(q, 1, prec=10)
        assert f.c.is_zero
        t = PadicNumber.from_int(5, 10, 8)
        assert_same(f(t), t * t, 7)

    def test_c_formula_p_power_times_unit(self):
        # qB = p^a * u: c = log(u)/a
        p, a = 7, 3
        u = Fraction(10)
        q = Period(p, [(Fraction(p ** a), 1), (u, 1)])
        f = ugly_polynomial(q, 1, prec=12)
        expected = iwasawa_log(PadicNumber.from_fraction(p, u, 15)) * Fraction(1, a)
        assert_same(f.c, expected, 9)

    @staticmethod
    def build_instance(rng, p, prec=14):
        """Construct (qB, q, q', x, x') meeting the three hypotheses:
        x, x' of ord 1, qB = x*x'/p, q = qB^-1 x^2, q' = qB^-1 x'^2.
        Then LI_x(q) = -LI_x(qB), same primed, and LI_p(q) = -LI_p(q')
        so the squared norms agree."""
        x = Fraction(p) * rand_unit_fraction(rng, p)
        xp = Fraction(p) * rand_unit_fraction(rng, p)
        qB = Period(p, [(x, 1), (xp, 1), (Fraction(p), -1)])
        q = Period(p, [(x, 1), (xp, -1), (Fraction(p), 1)])   # qB^-1 * x^2
        qp = Period(p, [(xp, 1), (x, -1), (Fraction(p), 1)])  # qB^-1 * x'^2
        return qB, q, qp, x, xp

    def test_hypotheses_hold_for_constructed_instances(self):
        rng = random.Random(53)
        p = 5
        qB, q, qp, x, xp = self.build_instance(rng, p)
        l1 = li(q, branch=x, prec=14)
        l2 = li(qB, branch=x, prec=14)
        assert (l1 + l2).is_zero
        l3 = li(qp, branch=xp, prec=14)
        l4 = li(qB, branch=xp, prec=14)
        assert (l3 + l4).is_zero
        s1 = li(q, "p", 14)
        s2 = li(qp, "p", 14)
        assert (s1 * s1 - s2 * s2).is_zero

    def test_f_identity_randomized(self):
        rng = random.Random(61)
        for _ in range(25):
            p = rng.choice([3, 5, 7, 11])
            qB, q, qp, x, xp = self.build_instance(rng, p)
            f = ugly_polynomial(qB, 1, prec=14)
            lx = li(Period(p, [(x, 1)]), "p", 14)
            lxp = li(Period(p, [(xp, 1)]), "p", 14)
            assert (f(lx) - f(lxp)).is_zero

    def test_f_identity_unramified(self):
        rng = random.Random(71)
        ctx = UnramifiedContext(5, 2)
        for _ in range(5):
            for d in (1, 2):
                c0 = rand_unit_fraction(rng, 5)
                c1 = Fraction(rng.randrange(0, 20))
                x = ExactUnramified(ctx, [5 * c0, 5 * c1])
                c0p = rand_unit_fraction(rng, 5)
                x2 = ExactUnramified(ctx, [5 * c0p, 5 * (c1 + 1)])
                assert x.ord() == 1 and x2.ord() == 1
                qB = Period(5, [(x, 1), (x2, 1), (Fraction(5), -1)], ctx=ctx)
                q = Period(5, [(x, 1), (x2, -1), (Fraction(5), 1)], ctx=ctx)
                qp = Period(5, [(x2, 1), (x, -1), (Fraction(5), 1)], ctx=ctx)
                f = ugly_polynomial(qB, d, prec=12)
                nx = x.to_padic(15).norm(d)
                nxp = x2.to_padic(15).norm(d)
                lx = li(Period(5, [(nx, 1)], ctx=ctx), "p", 12)
                lxp = li(Period(5, [(nxp, 1)], ctx=ctx), "p", 12)
                assert (f(lx) - f(lxp)).is_zero
