import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plinv.padic import PadicError, PadicNumber, iwasawa_log
from plinv.unramified import (
    ExactUnramified,
    UnramifiedContext,
    default_modulus,
    is_irreducible_mod_p,
    norm_trace,
)

from helpers import assert_same


def companion_norm_trace(modulus, coeffs):
    """Oracle: norm and trace of sum c_i t^i via the multiplication matrix
    on the power basis, with exact rational arithmetic."""
    f = len(modulus) - 1
    mat = [[Fraction(0)] * f for _ in range(f)]
    for i in range(f):
        # column i: coefficients of element * t^i on the power basis
        col = [Fraction(0)] * f
        for j, cj in enumerate(coeffs):
            deg = i + j
            poly = [Fraction(0)] * (deg + 1)
            poly[deg] = Fraction(1)
            while len(poly) > f:
                c = poly[-1]
                poly = poly[:-1]
                if c:
                    for k in range(f):
                        poly[len(poly) - f + k] -= c * modulus[k]
            for k, v in enumerate(poly):
                col[k] += cj * v
        for r in range(f):
            mat[r][i] = col[r]
    # determinant (norm) by fraction-free-ish Gaussian elimination
    n = f
    m = [row[:] for row in mat]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            det = Fraction(0)
            break
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for r in range(c + 1, n):
            factor = m[r][c] * inv
            if factor:
                for k in range(c, n):
                    m[r][k] -= factor * m[c][k]
    trace = sum(mat[i][i] for i in range(n))
    return det, trace


class TestContext:
    def test_default_modulus_deterministic(self):
        g = default_modulus(5, 2)
        assert g == default_modulus(5, 2)
        assert is_irreducible_mod_p(list(g), 5)
        # smallest constant first: t^2 + 2 is irreducible mod 5
        assert g == (2, 0, 1)

    def test_reducible_rejected(self):
        # t^2 - t - 1 = (t+2)^2 mod 5
        with pytest.raises(PadicError, match="reducible"):
            UnramifiedContext(5, 2, (-1, -1, 1))

    def test_frobenius_order(self):
        for p, f in [(5, 2), (3, 3), (7, 2)]:
            ctx = UnramifiedContext(p, f)
            t = ctx.from_vector([0, 1], 8)
            x = t
            for _ in range(f):
                x = x.frobenius()
            assert (x - t).is_zero
            # and not earlier
            y = t.frobenius()
            assert not (y - t).is_zero

    def test_frobenius_is_pth_power_mod_p(self):
        ctx = UnramifiedContext(5, 2)
        t = ctx.from_vector([0, 1], 6)
        assert ((t.frobenius() - t ** 5).ord() if not (t.frobenius() - t ** 5).is_zero else 99) >= 1


class TestLifts:
    """The Newton lifts of Q_{p^f}, checked by plain modular arithmetic."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), f=st.sampled_from([2, 3]),
           n=st.integers(1, 200))
    def test_inverse_teichmuller_and_frobenius(self, data, p, f, n):
        ctx = UnramifiedContext(p, f)
        coeffs = data.draw(st.lists(st.integers(0, p ** n - 1), min_size=f, max_size=f)
                           .filter(lambda c: any(x % p for x in c)))
        x = ctx.from_vector(coeffs, n)
        assert x * x.inverse() == 1
        w = x.teichmuller_part()
        assert w ** (p ** f) == w and w.n == n
        assert all((a - b) % p == 0 for a, b in zip(w.coeffs, coeffs))
        y = x
        for _ in range(f):
            y = y.frobenius()
        assert y == x and y.n == n


class TestNormTrace:
    def test_base_field_closed_forms(self):
        ctx = UnramifiedContext(5, 3)
        x = ctx.from_vector([Fraction(7, 2)], 8)
        n, t = norm_trace(x)
        assert_same(n, PadicNumber.from_fraction(5, Fraction(7, 2) ** 3, 7))
        assert_same(t, PadicNumber.from_fraction(5, 3 * Fraction(7, 2), 7))

    def test_degree_one_identity(self):
        ctx = UnramifiedContext(7, 1)
        x = ctx.from_vector([Fraction(3, 5)], 6)
        n, t = norm_trace(x)
        assert_same(n, PadicNumber.from_fraction(7, Fraction(3, 5), 6))
        assert_same(t, PadicNumber.from_fraction(7, Fraction(3, 5), 6))

    def test_root_of_custom_quadratic(self):
        # t^2 - t - 1 is irreducible mod 7 (disc 5 is a non-residue);
        # the root has norm -1 and trace 1.
        ctx = UnramifiedContext(7, 2, (-1, -1, 1))
        t = ctx.from_vector([0, 1], 8)
        n, tr = norm_trace(t)
        assert_same(n, PadicNumber.from_int(7, -1, 7))
        assert_same(tr, PadicNumber.from_int(7, 1, 7))

    def test_against_companion_matrix_oracle(self):
        rng = random.Random(5)
        for p, f in [(5, 2), (7, 2), (3, 3), (11, 2)]:
            ctx = UnramifiedContext(p, f)
            for _ in range(6):
                coeffs = [Fraction(rng.randrange(-9, 10), rng.choice([1, 1, 2, 3]))
                          for _ in range(f)]
                if all(c == 0 for c in coeffs):
                    coeffs[0] = Fraction(1)
                det, tr = companion_norm_trace([Fraction(c) for c in ctx.modulus], coeffs)
                x = ctx.from_vector(coeffs, 10)
                n, t = norm_trace(x)
                if det == 0:
                    continue
                assert_same(n, PadicNumber.from_fraction(p, det, 8))
                assert_same(t, PadicNumber.from_fraction(p, tr, 8))

    def test_norm_of_zero(self):
        ctx = UnramifiedContext(5, 2)
        z = ctx.from_vector([0, 0], 6)
        assert z.is_zero
        assert z.norm().is_zero


class TestLog:
    def test_log_is_homomorphism(self):
        rng = random.Random(11)
        ctx = UnramifiedContext(5, 2)
        for _ in range(15):
            a = ctx.from_vector([rng.randrange(1, 20), rng.randrange(0, 20)], 8)
            b = ctx.from_vector([rng.randrange(1, 20), rng.randrange(0, 20)], 8)
            if a.is_zero or a.ord() != 0 or b.is_zero or b.ord() != 0:
                continue
            lhs = (a * b).log()
            rhs = a.log() + b.log()
            assert (lhs - rhs).is_zero

    def test_log_norm_is_trace_log(self):
        ctx = UnramifiedContext(7, 2)
        x = ctx.from_vector([3, 1], 9)
        lhs = iwasawa_log(x.norm().as_padic())
        rhs = x.log().trace().as_padic()
        assert_same(lhs, rhs, 6)

    def test_log_at_two_extension(self):
        ctx = UnramifiedContext(2, 2, (1, 1, 1))  # t^2+t+1: F_4
        x = ctx.from_vector([1, 2], 9)
        y = ctx.from_vector([3, 4], 9)
        if x.ord() == 0 and y.ord() == 0:
            assert ((x * y).log() - (x.log() + y.log())).is_zero

    def test_teichmuller_part_fixed_by_power(self):
        ctx = UnramifiedContext(3, 2)
        x = ctx.from_vector([2, 1], 8)
        w = x.teichmuller_part()
        q = 3 ** 2 - 1
        assert (w ** q - ctx.one(8)).is_zero
        assert (w.log()).is_zero


class TestExact:
    def test_exact_ord(self):
        ctx = UnramifiedContext(5, 2)
        x = ExactUnramified(ctx, [Fraction(25, 2), Fraction(75)])
        assert x.ord() == 2
        y = ExactUnramified(ctx, [Fraction(1, 5), Fraction(3)])
        assert y.ord() == -1

    def test_exact_to_padic_consistency(self):
        ctx = UnramifiedContext(5, 2)
        x = ExactUnramified(ctx, [Fraction(7, 3), Fraction(2)])
        lo = x.to_padic(6)
        hi = x.to_padic(11)
        assert (lo - hi).is_zero
