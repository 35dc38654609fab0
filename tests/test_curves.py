import itertools
import random

import pytest

from plinv.curves import (
    ADDITIVE,
    GOOD,
    NONSPLIT,
    SPLIT,
    CurveError,
    WeierstrassCurve,
    _descend_once,
    _validate_conductor,
    bad_primes,
    conductor,
    curve_by_label,
    curve_table,
    curve_l_invariant,
    j_q_coefficients,
    minimal_model_at,
    point_count,
    reduction_type,
    tate_period,
    _legendre,
)
from plinv.padic import PadicNumber
from plinv.twists import is_fundamental_discriminant, kronecker, quadratic_twist

from hypothesis import assume, given, settings, strategies as st

from helpers import (
    assert_same,
    descend_once_reference,
    j_invariant,
    j_of_q,
    j_q_product_reference,
    kronecker_reference,
)


def scale_up(curve, u):
    """The non-minimal model with x -> x/u^2, y -> y/u^3."""
    a1, a2, a3, a4, a6 = curve.a_invariants
    return WeierstrassCurve(a1 * u, a2 * u ** 2, a3 * u ** 3, a4 * u ** 4, a6 * u ** 6)


SPLIT_PAIRS = [("11a1", 11), ("14a1", 7), ("15a1", 5), ("17a1", 17), ("21a1", 3), ("37b1", 37)]


class TestInvariants:
    def test_y2_x3_minus_x(self):
        e = WeierstrassCurve(0, 0, 0, -1, 0)
        assert 1728 * e.discriminant == e.c4 ** 3 - e.c6 ** 2
        assert (e.c4, e.discriminant, j_invariant(e)) == (48, 64, 1728)

    def test_11a1_discriminant(self):
        e = curve_by_label("11a1")
        assert e.discriminant == -161051 == -(11 ** 5)

    def test_scaling_preserves_j(self):
        e = WeierstrassCurve(0, 0, 0, -1, 0)
        big = scale_up(e, 2)
        assert big.discriminant == 64 * 2 ** 12
        assert j_invariant(big) == j_invariant(e)

    def test_singular_model_rejected(self):
        with pytest.raises(CurveError, match="singular"):
            WeierstrassCurve(0, 0, 0, 0, 0)

    def test_identity_holds_for_table(self):
        for label, (e, _) in curve_table().items():
            assert 1728 * e.discriminant == e.c4 ** 3 - e.c6 ** 2, label


class TestValue:
    def test_fields_cannot_be_assigned(self):
        e = WeierstrassCurve(0, 0, 0, -1, 0)
        with pytest.raises(AttributeError, match="'a1'"):
            e.a1 = 1
        assert e.a1 == 0

    def test_equal_models_hash_equal(self):
        e, f = WeierstrassCurve(0, 0, 0, -1, 0), WeierstrassCurve(0, 0, 0, -1, 0)
        assert e is not f and e == f and hash(e) == hash(f)
        assert len({e, f}) == 1
        assert len({e, WeierstrassCurve(0, 0, 0, -1, 0, label="32a2")}) == 2


class TestMinimalModel:
    def test_11a1_already_minimal(self):
        e = curve_by_label("11a1")
        assert minimal_model_at(e, 11) == e

    def test_two_power_descent(self):
        e = WeierstrassCurve(0, 0, 0, -(2 ** 6), 0)
        m = minimal_model_at(e, 2)
        assert m.a_invariants == (0, 0, 0, -4, 0)
        # v(disc) drops by exactly 12 and the result is 2-minimal
        assert e.discriminant == m.discriminant * 2 ** 12
        assert minimal_model_at(m, 2) == m

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([2, 3]), scaled=st.booleans(),
           x=st.lists(st.integers(-6, 6), min_size=5, max_size=5),
           rst=st.tuples(*[st.integers(-9, 9)] * 3))
    def test_descent_box_matches_the_wide_search(self, p, scaled, x, rst):
        # a_i in p^i Z descends; the coarser lattice below need not, yet it
        # keeps v(c4) >= 4 and v(c6) >= 6; an integral [1, r, s, t] hides
        # the lattice from the search
        mult = [p ** i for i in (1, 2, 3, 4, 6)] if scaled else {
            2: (2, 2, 4, 4, 8), 3: (3, 9, 9, 27, 243)}[p]
        try:
            e = WeierstrassCurve(*(m * xi for m, xi in zip(mult, x))).transform(1, *rst)
        except CurveError:
            assume(False)  # singular
        assert e.c4 % p ** 4 == 0 and e.c6 % p ** 6 == 0
        assert _descend_once(e, p) == descend_once_reference(e.a_invariants, p)

    def test_good_prime_untouched(self):
        e = curve_by_label("11a1")
        assert minimal_model_at(e, 7) == e

    def test_scale_up_round_trip(self):
        rng = random.Random(2024)
        for _ in range(8):
            ai = [rng.randrange(-3, 4) for _ in range(5)]
            try:
                e = WeierstrassCurve(*ai)
            except CurveError:
                continue
            for p in (2, 3, 5, 7):
                big = scale_up(e, p)
                m = minimal_model_at(big, p)
                # descent must recover the original discriminant valuation
                dv_orig = minimal_model_at(e, p).discriminant
                assert abs(m.discriminant) == abs(dv_orig)


class TestReduction:
    def test_11a1_at_11_split(self):
        r = reduction_type(curve_by_label("11a1"), 11)
        assert r.kind == SPLIT and r.v_delta == 5 and r.ap == 1
        # quadratic-residue oracle: -c6 = -20008 = 1 mod 11, a square
        assert _legendre(-curve_by_label("11a1").c6, 11) == 1

    def test_11a1_at_2_good(self):
        r = reduction_type(curve_by_label("11a1"), 2)
        assert r.kind == GOOD and r.ap == -2
        # point-count oracle by hand: 4 affine points + infinity
        assert point_count(curve_by_label("11a1"), 2) == 5

    def test_additive_at_2(self):
        r = reduction_type(WeierstrassCurve(0, 0, 0, -1, 0), 2)
        assert r.kind == ADDITIVE and r.ap == 0

    @staticmethod
    def _assert_split_by_point_count(e, p):
        """The reduction of a minimal model at a multiplicative p has
        p + 1 - a_p points, its node included: p when the node is split
        (a_p = 1), p + 2 when not (a_p = -1).  Counted by brute force."""
        r = reduction_type(e, p)
        a1, a2, a3, a4, a6 = r.minimal.a_invariants
        count = 1 + sum(
            (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % p == 0
            for x in range(p) for y in range(p))
        assert count == (p if r.kind == SPLIT else p + 2), (e, p, r.kind)
        assert point_count(r.minimal, p) == count
        return r.kind

    def test_split_test_two_routes_agree(self):
        # the c6 rule of reduction_type against the point count of the node
        for label in ("11a1", "14a1", "15a1", "17a1", "21a1", "37b1"):
            e = curve_by_label(label)
            for p in (2, 3, 5, 7, 11, 13, 17, 37):
                if reduction_type(e, p).is_multiplicative:
                    self._assert_split_by_point_count(e, p)
        # every model with |a_i| <= 3 and v(c4) = 0 < v(disc) at p <= 7
        seen = {2: set(), 3: set()}
        for ai in itertools.product(range(-3, 4), repeat=5):
            try:
                e = WeierstrassCurve(*ai)
            except CurveError:
                continue
            for p in (2, 3, 5, 7):
                if e.discriminant % p == 0 and e.c4 % p:
                    kind = self._assert_split_by_point_count(e, p)
                    if p in seen:
                        seen[p].add(kind)
        assert seen == {2: {SPLIT, NONSPLIT}, 3: {SPLIT, NONSPLIT}}

    @settings(max_examples=300, deadline=None)
    @given(ai=st.tuples(*[st.integers(-5, 5)] * 5), p=st.sampled_from([2, 3]))
    def test_split_test_on_models_up_to_five(self, ai, p):
        try:
            e = WeierstrassCurve(*ai)
        except CurveError:
            return
        if e.discriminant % p == 0 and e.c4 % p:
            self._assert_split_by_point_count(e, p)

    def test_multiplicative_iff_vc4_zero(self):
        for label, (e, _) in curve_table().items():
            for p in (2, 3, 5, 7, 11, 13, 17, 37):
                r = reduction_type(e, p)
                if r.is_multiplicative:
                    assert r.minimal.c4 % p != 0 and r.v_delta > 0
                    assert r.v_j == -r.v_delta < 0

    def test_hasse_bound(self):
        for label, (e, _) in curve_table().items():
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
                r = reduction_type(e, p)
                if r.kind == GOOD:
                    assert r.ap * r.ap <= 4 * p

    def test_semistable_conductors(self):
        for label in ("11a1", "11a2", "11a3", "14a1", "15a1", "17a1", "21a1", "37b1"):
            e, n = curve_table()[label]
            assert conductor(e) == n

    def test_conductor_at_an_additive_prime_above_3(self):
        # disc = -7^6 11^5: additive at 7, so 7^2 * 11
        assert conductor(WeierstrassCurve(0, 1, 1, -506, 7774)) == 539

    # each refusal of a table row's conductor: 11a1 is split at 11, the
    # conductor-539 model additive at 7 and y^2 = x^3 - x additive at 2
    @pytest.mark.parametrize("ainvs,cond,message", [
        ((0, -1, 1, -10, -20), 121, "t: conductor exponent at 11 should be 1"),
        ((0, 1, 1, -506, 7774), 77, "t: conductor exponent at 7 should be 2"),
        ((0, 0, 0, -1, 0), 2, "t: implausible conductor exponent at 2"),
        ((0, -1, 1, -10, -20), 143, "t: conductor has spurious prime factors"),
    ], ids=["multiplicative", "additive-above-3", "additive-at-2", "spurious"])
    def test_a_wrong_conductor_is_refused(self, ainvs, cond, message):
        with pytest.raises(CurveError, match=f"^{message}$"):
            _validate_conductor(WeierstrassCurve(*ainvs, label="t"), cond)

    @pytest.mark.parametrize("ainvs,cond", [((0, -1, 1, -10, -20), 11),
                                            ((0, 1, 1, -506, 7774), 539),
                                            ((0, 0, 0, -1, 0), 32)])
    def test_a_right_conductor_is_accepted(self, ainvs, cond):
        _validate_conductor(WeierstrassCurve(*ainvs, label="t"), cond)


class TestKronecker:
    def test_small_values(self):
        assert kronecker(5, 11) == 1
        assert kronecker(-4, 11) == -1
        assert kronecker(-7, 11) == 1
        assert kronecker(13, 11) == -1
        assert kronecker(12, 11) == 1
        assert kronecker(11, 11) == 0

    def test_matches_legendre_for_odd_primes(self):
        for p in (3, 5, 7, 13):
            for d in range(-20, 21):
                if d % p:
                    assert kronecker(d, p) == _legendre(d, p)

    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(-10 ** 4, 10 ** 4), n=st.integers(1, 10 ** 4))
    def test_matches_the_jacobi_reference(self, d, n):
        assert kronecker(d, n) == kronecker_reference(d, n)

    def test_matches_the_jacobi_reference_on_a_grid(self):
        for d in range(-60, 61):
            for n in range(1, 130):
                assert kronecker(d, n) == kronecker_reference(d, n), (d, n)

    def test_fundamental_discriminants(self):
        fundamentals = {-8, -7, -4, -3, 5, 8, 12, 13, -11, 21}
        not_fundamental = {0, 1, 2, 3, 4, -1, -2, -5, 9, 25, 45}
        for d in fundamentals:
            assert is_fundamental_discriminant(d), d
        for d in not_fundamental:
            assert not is_fundamental_discriminant(d), d


class TestTwist:
    def test_twist_preserves_j(self):
        e = curve_by_label("11a1")
        for d in (5, -4, -7, 13):
            t = quadratic_twist(e, d)
            assert j_invariant(t) == j_invariant(e)

    def test_twist_discriminant_scale(self):
        e = curve_by_label("11a1")
        for d in (5, -4, -7):
            t = quadratic_twist(e, d)
            assert abs(t.discriminant) == abs(d) ** 6 * abs(e.discriminant)

    def test_twist_flips_split_by_chi(self):
        e = curve_by_label("11a1")
        for d in (5, -4, -7, 13):
            t = quadratic_twist(e, d)
            r = reduction_type(t, 11)
            expected = SPLIT if kronecker(d, 11) == 1 else NONSPLIT
            assert r.kind == expected

    def test_bundled_twists_match_twist_op(self):
        e = curve_by_label("11a1")
        for d, label in ((5, "11a1tw5"), (-4, "11a1tw-4"), (-7, "11a1tw-7")):
            t = quadratic_twist(e, d)
            assert t.a_invariants == curve_by_label(label).a_invariants


class TestJSeries:
    def test_classical_coefficients(self):
        assert j_q_coefficients(4) == [744, 196884, 21493760, 864299970, 20245856256]

    def test_recurrence_matches_the_product(self):
        ref = j_q_product_reference(150)
        for n in range(151):
            assert j_q_coefficients(n) == ref[: n + 1]


class TestTatePeriod:
    # every multiplicative prime of every bundled curve
    PAIRS = [(label, p) for label, (e, _) in curve_table().items()
             for p in bad_primes(e) if reduction_type(e, p).is_multiplicative]

    @staticmethod
    def _assert_round_trip(label, p, prec):
        e = curve_by_label(label)
        red = reduction_type(e, p)
        q = tate_period(e, p, prec)
        assert q.ord() == red.v_delta and q.n == prec
        jq = j_of_q(q)
        jexp = PadicNumber.from_fraction(p, j_invariant(red.minimal), prec + 10)
        d = jq - jexp
        # agree to >= prec - v(delta) - 2 digits beyond ord(j) = -v(delta)
        assert d.is_zero
        assert d.abs_prec - (-red.v_delta) >= prec - red.v_delta - 2

    def test_round_trip_defining_identity(self):
        # 75 and 200 digits: precision is never capped
        assert len(self.PAIRS) == 14
        for prec, (label, p) in itertools.product((14, 75, 200), self.PAIRS):
            self._assert_round_trip(label, p, prec)

    @settings(max_examples=100, deadline=None)
    @given(pair=st.sampled_from(PAIRS), prec=st.integers(5, 500))
    def test_round_trip_at_any_precision(self, pair, prec):
        self._assert_round_trip(*pair, prec)

    @pytest.mark.parametrize("label,p,prec", [("11a2", 11, 200), ("21a1", 7, 350)])
    def test_round_trip_high_precision_small_v_delta(self, label, p, prec):
        self._assert_round_trip(label, p, prec)

    def test_leading_term(self):
        for label, p in [("11a1", 11), ("15a1", 5), ("37b1", 37)]:
            e = curve_by_label(label)
            q = tate_period(e, p, 16)
            red = reduction_type(e, p)
            m = red.v_delta
            j = PadicNumber.from_fraction(p, j_invariant(red.minimal), 40)
            qj = q * j
            one = PadicNumber.from_int(p, 1, 30)
            assert (qj - one).ord() >= m
            # after removing the 744-correction the next term is O(q^2)
            assert (qj - one - 744 * q).ord() >= 2 * m

    def test_no_tate_period_at_good_prime(self):
        with pytest.raises(CurveError, match="no Tate period"):
            tate_period(curve_by_label("11a1"), 7)

    def test_isogeny_class_invariance(self):
        vals = [curve_l_invariant(curve_by_label(l), 11, 14) for l in ("11a1", "11a2", "11a3")]
        assert_same(vals[0], vals[1], 14)
        assert_same(vals[0], vals[2], 14)

    def test_li_stable_under_precision(self):
        lo = curve_l_invariant(curve_by_label("11a1"), 11, 12)
        hi = curve_l_invariant(curve_by_label("11a1"), 11, 20)
        d = lo - hi
        assert d.is_zero and d.abs_prec >= lo.abs_prec

    @pytest.mark.parametrize("prec", [20, 200])
    @pytest.mark.parametrize("label,p", SPLIT_PAIRS)
    def test_li_matches_li_of_period(self, label, p, prec):
        # periods.li is the oracle for the one quotient curves takes itself
        from plinv.periods import Period, li

        q = tate_period(curve_by_label(label), p, prec)
        got = curve_l_invariant(curve_by_label(label), p, prec)
        want = li(Period(p, [(q, 1)]), "iwasawa", prec)
        assert_same(got, want)
        assert got.to_json() == want.to_json()

    def test_twist_invariance_when_split(self):
        # chi_D(11) = 1: locally trivial twist keeps the Tate parameter
        l0 = curve_l_invariant(curve_by_label("11a1"), 11, 14)
        lt = curve_l_invariant(curve_by_label("11a1tw5"), 11, 14)
        assert_same(l0, lt, 14)
