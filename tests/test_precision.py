"""The shared precision model of Q_p and Q_{p^f}, fenced by exact oracles.

Every digit an element reports must be a digit of the exact rational
value it was computed from; the oracles below use only Fraction arithmetic.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plinv.padic import PadicError, PadicNumber, frac_val, iwasawa_log
from plinv.unramified import UnramifiedContext

PRIMES = [2, 3, 5, 7, 37]
PRECS = st.integers(1, 500)


@st.composite
def rationals(draw, p):
    """A nonzero Fraction with a p-power factor in p^-8 .. p^8."""
    num = draw(st.integers(-10 ** 40, 10 ** 40).filter(bool))
    den = draw(st.integers(1, 10 ** 20))
    return Fraction(num, den) * Fraction(p) ** draw(st.integers(-8, 8))


def digits_true(x, exact):
    """Every digit x reports is a digit of the exact value: the two differ
    by a multiple of p^abs_prec."""
    stored = 0 if x.is_zero else Fraction(x.u) * Fraction(x.p) ** x.v
    diff = Fraction(exact) - stored
    return diff == 0 or frac_val(diff, x.p) >= x.abs_prec


def coords_true(x, exact):
    """digits_true for an element of Q_{p^f}, coordinate by coordinate."""
    scale = 0 if x.is_zero else Fraction(x.p) ** x.v
    return all(
        e == c * scale or frac_val(e - c * scale, x.p) >= x.abs_prec
        for e, c in zip(exact, x.coeffs)
    )


def poly_mulmod(a, b, g):
    """a*b mod the monic g over Q, coefficient lists low first."""
    f = len(g) - 1
    prod = [Fraction(0)] * (2 * f - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for k in range(len(prod) - 1, f - 1, -1):
        c, prod[k] = prod[k], 0
        for i in range(f):
            prod[k - f + i] -= c * g[i]
    return prod[:f]


class TestPadicNumberOracle:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=st.sampled_from(PRIMES), nx=PRECS, ny=PRECS,
           k=st.integers(-6, 6))
    def test_operations_match_fractions(self, data, p, nx, ny, k):
        x, y = data.draw(rationals(p)), data.draw(rationals(p))
        a = PadicNumber.from_fraction(p, x, nx)
        b = PadicNumber.from_fraction(p, y, ny)
        for got, exact in [(a + b, x + y), (a - b, x - y), (a * b, x * y),
                           (a / b, x / y), (a ** k, x ** k)]:
            assert digits_true(got, exact), (got, exact)
        # the precision the model promises, not less
        assert (a + b).abs_prec == (a - b).abs_prec == min(a.abs_prec, b.abs_prec)
        assert (a * b).n == (a / b).n == min(nx, ny)
        assert (a ** k).n == nx

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=st.sampled_from(PRIMES), n=PRECS)
    def test_exact_scalars_take_the_operand_precision(self, data, p, n):
        x, c = data.draw(rationals(p)), data.draw(rationals(p))
        a = PadicNumber.from_fraction(p, x, n)
        for got, exact in [(a + c, x + c), (c - a, c - x), (a * c, x * c),
                           (c / a, c / x)]:
            assert digits_true(got, exact), (got, exact)
        assert (a + c).abs_prec == (c - a).abs_prec == a.abs_prec
        assert (a * c).n == (c / a).n == n

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=st.sampled_from(PRIMES), big=st.integers(-20, 500))
    def test_exact_scalars_meet_big_oh_at_its_precision(self, data, p, big):
        c = data.draw(rationals(p))
        z = PadicNumber.zero(p, big)
        s = z + c
        assert s.abs_prec == big and digits_true(s, c)
        prod = z * c
        assert prod.is_zero and prod.abs_prec == big + frac_val(c, p)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=st.sampled_from(PRIMES), n1=PRECS, n2=PRECS)
    def test_agreement_of_one_fraction(self, data, p, n1, n2):
        x, y = data.draw(rationals(p)), data.draw(rationals(p))
        a = PadicNumber.from_fraction(p, x, n1)
        b = PadicNumber.from_fraction(p, x, n2)
        assert a.agreement(b) >= min(a.abs_prec, b.abs_prec)
        # and never more agreement than the exact values have
        if x != y:
            assert a.agreement(PadicNumber.from_fraction(p, y, n2)) <= frac_val(x - y, p)


class TestIntScalars:
    """An exact int is read through its numerator and denominator, as a
    Fraction is, and never becomes one: it means what Fraction(it) means."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), p=st.sampled_from(PRIMES), n=PRECS,
           m=st.integers(-10 ** 12, 10 ** 12).filter(bool), kind=st.sampled_from("xoz"))
    def test_dividing_by_an_int_is_multiplying_by_its_inverse(self, data, p, n, m, kind):
        # a nonzero x, an O(p^k) or an exact zero, over a nonzero int m
        x = (PadicNumber.from_fraction(p, data.draw(rationals(p)), n) if kind == "x" else
             PadicNumber.zero(p, data.draw(st.integers(-20, 200))) if kind == "o" else
             PadicNumber.zero(p))
        a, b = x / m, x * Fraction(1, m)
        assert a.to_json() == b.to_json() and a.abs_prec == b.abs_prec

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from(PRIMES), a=st.integers(-10 ** 40, 10 ** 40), n=PRECS)
    def test_from_fraction_of_an_int(self, p, a, n):
        x, y = PadicNumber.from_fraction(p, a, n), PadicNumber.from_fraction(p, Fraction(a), n)
        assert x.to_json() == y.to_json() and x.abs_prec == y.abs_prec


class TestExactScalarRules:
    def test_no_cap_beyond_64_digits(self):
        x = PadicNumber.from_int(5, 2, 100)
        assert (x + 1).n == 100 and (3 * x).n == 100 and (1 / x).n == 100
        assert PadicNumber.zero(5, 300) + 7 == PadicNumber.from_int(5, 7, 300)

    def test_exact_zero_and_scalar_raise(self):
        z = PadicNumber.zero(5)
        for op in (lambda: z + 3, lambda: 3 - z, lambda: z == 1):
            with pytest.raises(PadicError, match="exact zero"):
                op()
        ctx = UnramifiedContext(5, 2)
        with pytest.raises(PadicError, match="exact zero"):
            ctx.from_vector([0, 0], 4) + 1

    def test_exact_zero_scalar_stays_exact(self):
        z = PadicNumber.zero(5)
        assert (z + 0).is_exact_zero and (z * 0).is_exact_zero
        # 0 * c and 0 / c invent no digit: they are exactly 0
        assert (z * Fraction(1, 2)).is_exact_zero and (3 * z).is_exact_zero
        assert (z / 3).is_exact_zero and (z / Fraction(5, 2)).is_exact_zero
        assert (UnramifiedContext(5, 2).from_vector([0, 0], 4) * 7).is_exact_zero
        x = PadicNumber.from_int(5, 7, 4)
        assert (x * 0).is_exact_zero and (x + 0) == x

    def test_zero_to_the_zero_raises(self):
        for z in (PadicNumber.zero(5), PadicNumber.zero(5, 3)):
            with pytest.raises(PadicError, match="zero \\*\\* 0"):
                z ** 0
        with pytest.raises(PadicError, match="division by zero"):
            PadicNumber.zero(5, 3) ** -1
        assert (PadicNumber.from_int(5, 7, 9) ** 0) == PadicNumber.from_int(5, 1, 9)


class TestUnramifiedOracle:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), nx=st.integers(1, 200),
           ny=st.integers(1, 200))
    def test_ring_operations_match_polynomials(self, data, p, nx, ny):
        ctx = UnramifiedContext(p, 2)
        g = [Fraction(c) for c in ctx.modulus]
        xs = [data.draw(rationals(p)) for _ in range(2)]
        ys = [data.draw(rationals(p)) for _ in range(2)]
        a, b = ctx.from_vector(xs, nx), ctx.from_vector(ys, ny)
        for got, exact in [(a + b, [s + t for s, t in zip(xs, ys)]),
                           (a - b, [s - t for s, t in zip(xs, ys)]),
                           (a * b, poly_mulmod(xs, ys, g))]:
            assert coords_true(got, exact), (got, exact)
        assert (a + b).abs_prec == min(a.abs_prec, b.abs_prec)
        assert (a * b).n == min(nx, ny)
        assert a.agreement(ctx.from_vector(xs, ny)) >= min(nx, ny) + a.v

    @settings(max_examples=80, deadline=None)
    @given(p=st.sampled_from([2, 3, 5, 7]), f=st.sampled_from([2, 3]), n=st.integers(1, 200),
           coords=st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=3, max_size=3))
    def test_units_invert(self, p, f, n, coords):
        coords = coords[:f]
        if not any(c % p for c in coords):
            coords[0] = 1
        b = UnramifiedContext(p, f).from_vector(coords, n)
        assert b.v == 0
        assert (b * b.inverse()).agreement(1) >= b.n

    @pytest.mark.parametrize("p,f", [(2, 2), (3, 3), (7, 2)])
    def test_non_unit_residue_does_not_invert(self, p, f):
        ctx = UnramifiedContext(p, f)
        with pytest.raises(PadicError, match="not a unit"):
            ctx._invert_mod_p([p * (i + 1) for i in range(f)])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), n=st.integers(1, 60))
    def test_log_restricts_to_iwasawa_log(self, data, p, n):
        x = data.draw(rationals(p))
        lhs = UnramifiedContext(p, 2).from_vector([x], n).log().as_padic()
        rhs = iwasawa_log(PadicNumber.from_fraction(p, x, n))
        assert lhs.agreement(rhs) >= n
