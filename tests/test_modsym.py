import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from plinv import modsym
from plinv.curves import curve_by_label, curve_table, trace_of_frobenius
from plinv.linalg import echelon, kernel_basis, mat_mul, primitive, rank
from plinv.modsym import (
    ModSymError,
    P1List,
    SymbolSpace,
    _cusp_key,
    build_space,
    eigen_symbol,
    merel_matrices,
)

from helpers import (
    cusp_inverse_numerator,
    cusps_equivalent,
    eigenvalue_reference,
    fraction_space,
    generator_endpoints,
    hecke_matrix_reference,
    kernel_basis_reference,
    kronecker_reference,
    l_value_at_one,
    lift_to_sl2z,
    p1_orbit_minima,
    p1_reduce_reference,
    path_to_infinity,
    rank_reference,
    real_period,
    rref_reference,
    to_payload,
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
            out *= 1 + kronecker_reference(-4, p)
        return out

    def nu3(n):
        if n % 9 == 0:
            return 0
        out = 1
        for p in _prime_divisors(n):
            out *= 1 + kronecker_reference(-3, p)
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
                        assert p1[p1.index(c, d)] == p1_reduce_reference(n, c, d), (n, c, d)
        for n in (720, 1024):
            p1 = P1List(n)
            for _ in range(300):
                c, d = rng.randrange(-n, 2 * n), rng.randrange(-n, 2 * n)
                if gcd(gcd(c, d), n) == 1:
                    assert p1[p1.index(c, d)] == p1_reduce_reference(n, c, d), (n, c, d)

    def test_index_matches_orbit_minimum_below_80(self):
        # exhaustive: one brute-force reduction per unit orbit, which every
        # member of the orbit must share; the pairs off P^1 raise
        for n in range(1, 80):
            p1 = P1List(n)
            position = {cd: i for i, cd in enumerate(p1)}
            units = [s for s in range(1, max(n, 2)) if gcd(s, n) == 1]
            known = {}
            for c in range(n):
                for d in range(n):
                    if gcd(gcd(c, d), n) != 1:
                        with pytest.raises(ModSymError):
                            p1.index(c, d)
                        continue
                    if (c, d) not in known:
                        want = position[p1_reduce_reference(n, c, d)]
                        known.update(((s * c % n, s * d % n), want) for s in units)
                    assert p1.index(c, d) == known[c, d], (n, c, d)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 2000), c=st.integers(-10 ** 6, 10 ** 6),
           d=st.integers(-10 ** 6, 10 ** 6), f=st.integers(1, 30))
    def test_index_matches_orbit_minimum(self, n, c, d, f):
        # a common factor f makes pairs off P^1 frequent
        c, d = c * f, d * f
        p1 = _p1_list(n)
        if gcd(gcd(c, d), n) != 1:
            with pytest.raises(ModSymError):
                p1.index(c, d)
            assert p1.position(c, d) is None
        else:
            assert p1[p1.index(c, d)] == p1_reduce_reference(n, c, d)

    def test_reduce_constant_on_orbits(self):
        # brute-force oracle for the canonical form
        for n in (6, 9, 10, 12, 15, 18, 22):
            p1 = P1List(n)
            units = [s for s in range(1, n) if gcd(s, n) == 1]
            for c in range(n):
                for d in range(n):
                    if gcd(gcd(c, d), n) != 1:
                        with pytest.raises(ModSymError):
                            p1[p1.index(c, d)]
                        continue
                    canon = p1[p1.index(c, d)]
                    for s in units:
                        assert p1[p1.index(s * c % n, s * d % n)] == canon

    def test_lift_bottom_row(self):
        # the test oracle's lift, behind `generator_endpoints`
        for n in (11, 14, 15, 37, 45):
            p1 = P1List(n)
            for i in range(len(p1)):
                c, d = p1[i]
                a, b, cc, dd = lift_to_sl2z(c, d, n)
                assert a * dd - b * cc == 1
                assert p1[p1.index(cc, dd)] == (c, d)


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

    def test_zero_to_infinity_vanishes_on_the_minus_quotient(self):
        # eta fixes (0:1) with factor -1, so [0 -> oo] is 0 on every sign -1
        # space, and the exceptional-zero check, which divides by it, takes
        # the plus symbol only; on the plus quotient (0:1) survives from N = 2
        for n in range(1, 301):
            minus, plus = SymbolSpace(n, -1), SymbolSpace(n, 1)
            assert minus.gen_coords(minus.p1.index(0, 1)) == {}, n
            assert (plus.gen_coords(plus.p1.index(0, 1)) == {}) == (n == 1), n


def _cusp(a, m):
    """a/m in lowest terms with m >= 0, as (a, m); oo is (+-1, 0)."""
    g = gcd(a, m)
    a, m = a // g, m // g
    return (-a, -m) if m < 0 else (a, m)


def _gamma0_image(a, m, n, c, d, k):
    """The cusp a/m moved by [[p, q], [c, d]] in Gamma_0(N), c = 0 mod N:
    p d - q c = 1, and k moves p by multiples of c."""
    if c == 0:
        p, q = d, k  # d = +-1
    else:
        p = pow(d, -1, abs(c)) + k * c
        q = (p * d - 1) // c
    return _cusp(p * a + q * m, c * a + d * m)


@st.composite
def _cusp_pairs(draw):
    """A level, a random cusp, and one that is random or its image under a
    random matrix of Gamma_0(N)."""
    n = draw(st.sampled_from([500, 720, 1000, 2000]))
    a, m = draw(st.tuples(st.integers(-8 * n, 8 * n), st.integers(0, 4 * n))
                .filter(lambda am: am[0] or am[1]))
    a, m = _cusp(a, m)
    if draw(st.booleans()):
        b, mm = draw(st.tuples(st.integers(-8 * n, 8 * n), st.integers(0, 4 * n))
                     .filter(lambda am: am[0] or am[1]))
        return n, (a, m), _cusp(b, mm), None
    c, d = draw(st.tuples(st.integers(-3, 3), st.integers(-4 * n, 4 * n))
                .map(lambda cd: (cd[0] * n, cd[1]))
                .filter(lambda cd: gcd(*cd) == 1))
    return n, (a, m), _gamma0_image(a, m, n, c, d, draw(st.integers(-5, 5))), True


def _key(a, m, n):
    """`_cusp_key` of the cusp a/m (gcd(a, m) = 1, oo = 1/0)."""
    return _cusp_key(m, pow(a, -1, m) if m else 1, n)


class TestCuspKey:
    """`_cusp_key` against Cremona's pairwise criterion and the genus."""

    @pytest.mark.parametrize("n", range(1, 151))
    def test_keys_class_every_cusp_up_to_2n(self, n):
        # every cusp a/m with m <= 2N, a taken mod m: key equality is the
        # oracle's equivalence when each cusp matches the first cusp of its
        # key and those first cusps are pairwise inequivalent
        cusps = [(1, 0)] + [(a, m) for m in range(1, 2 * n + 1) for a in range(m)
                            if gcd(a, m) == 1]
        first = {}
        for a, m in cusps:
            key = _key(a, m, n)
            if key in first:
                assert cusps_equivalent(a, m, *first[key], n), (a, m, first[key])
            else:
                assert not any(cusps_equivalent(a, m, *c, n) for c in first.values()), (a, m)
                first[key] = (a, m)
        assert len(first) == genus_gamma0(n)[1]

    @settings(max_examples=400, deadline=None)
    @given(_cusp_pairs())
    def test_keys_agree_with_the_oracle_at_large_levels(self, case):
        n, (a1, m1), (a2, m2), equivalent = case
        same = _key(a1, m1, n) == _key(a2, m2, n)
        assert same == cusps_equivalent(a1, m1, a2, m2, n)
        if equivalent:
            assert same
        assert (_key(-a1, m1, n) == _key(a2, m2, n)) == cusps_equivalent(
            -a1, m1, a2, m2, n)

    def test_key_count_is_the_number_of_cusps(self):
        # every class has a cusp a/d with d | N
        for n in range(1, 301):
            keys = {_key(1, 0, n)} | {
                _key(a, d, n) for d in range(1, n + 1) if n % d == 0
                for a in range(d) if gcd(a, d) == 1}
            assert len(keys) == genus_gamma0(n)[1], n

    @pytest.mark.parametrize("sign", [1, -1])
    def test_cuspidal_dimension_is_the_genus(self, sign):
        # 1/2 is its own negative at level 4, and so dies under sign -1;
        # at level 9, 1/3 and -1/3 are distinct cusps swapped by negation
        assert _key(1, 2, 4) == _key(-1, 2, 4)
        assert _key(1, 3, 9) != _key(-1, 3, 9)
        for n in range(1, 201):
            assert SymbolSpace(n, sign).cuspidal_dimension == genus_gamma0(n)[0], n

    @pytest.mark.parametrize("sign", [1, -1])
    def test_boundary_keys_are_those_of_the_lifted_endpoints(self, sign, monkeypatch):
        # boundary_rows keys the two ends of a generator (c:d) from c and d;
        # the oracle lifts (c:d) to SL_2(Z) and keys the cusps it moves 0
        # and oo to, then a new class's negative, in the order of the rows
        got = []

        def recorded(m, s, n):
            got.append(_cusp_key(m, s, n))
            return got[-1]

        for n in range(1, 301):
            space = SymbolSpace(n, sign)
            got.clear()
            monkeypatch.setattr(modsym, "_cusp_key", recorded)
            space.boundary_rows()
            monkeypatch.undo()
            want, seen = [], set()
            for k in range(space.dimension):
                for z in generator_endpoints(space, space.basis_generator(k)):
                    m, s = cusp_inverse_numerator(z)
                    want.append(_cusp_key(m, s, n))
                    if want[-1] not in seen:
                        want.append(_cusp_key(m, -s, n))
                        seen.update(want[-2:])
            assert got == want, n

    @pytest.mark.parametrize("sign", [1, -1])
    def test_cuspidal_subspace_is_hecke_stable(self, sign):
        # the kernel of the boundary map is the cuspidal subspace, which
        # every T_ell maps into itself; filing -cusp without the sign keeps
        # the rank but moves the kernel off it, from level 27 on at sign -1
        for n in range(11, 131):
            sp = build_space(n, sign)
            rows = sp.boundary_rows()
            ell = 2 if n % 2 else 3
            t = sp.hecke_matrix(ell)
            for v in kernel_basis(rows):
                tv = [sum(x * y for x, y in zip(row, v)) for row in t]
                assert all(sum(x * y for x, y in zip(r, tv)) == 0 for r in rows), (n, ell)


class TestIntegerPresentation:
    """Elimination over Z, of one relation per S-, eta- and T-orbit, against
    elimination over Q with Fraction pivots of the relations derived once
    per generator (`fraction_space`)."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("level", list(range(1, 151)) + [389, 500, 997, 1000])
    def test_matches_fraction_elimination(self, level, sign):
        sp, ref = build_space(level, sign), fraction_space(level, sign)
        assert sp._basis == ref._basis
        assert sp._gen_coords == ref._gen_coords
        # every coordinate is integral here, also behind a non-unit pivot
        assert all(type(v) is int for c in sp._gen_coords for v in c.values())
        for ell in (2, 3) if level < 389 else (2,):
            assert sp.hecke_matrix(ell) == hecke_matrix_reference(ref, ell), ell

    @pytest.mark.parametrize("level", [389, 500, 997, 1000])
    def test_entries_are_int(self, level):
        sp = build_space(level, 1)
        assert all(type(v) is int for c in sp._gen_coords for v in c.values())
        for ell in (2, 3):
            assert all(type(x) is int for row in sp.hecke_matrix(ell) for x in row)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda m: st.lists(
        st.lists(st.integers(-4, 4), min_size=m, max_size=m), min_size=1, max_size=5)))
    def test_kernel_spans_the_fraction_kernel(self, a):
        # the reduced row echelon form over Q is unique, so each kernel
        # vector is the reference one up to a positive scale
        want = kernel_basis_reference(a)
        assert kernel_basis(a) == [primitive(v) for v in want]
        assert rank(a) == rank_reference(a) == len(a[0]) - len(want)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda m: st.lists(
        st.one_of(st.just([0] * m),
                  st.lists(st.integers(-9, 9), min_size=m, max_size=m),
                  st.lists(st.sampled_from([0, 0, 2, -3, 4, 6, -9]), min_size=m, max_size=m)),
        max_size=7)))
    @example([])
    @example([[0, 0], [0, 0]])
    @example([[2, 3], [3, 2]])
    @example([[0, 4, 6], [0, 6, 4], [3, 1, 0]])
    def test_echelon_is_the_reduced_form(self, a):
        # non-unit pivots that do and do not divide, zero rows, no rows
        red, pivots = rref_reference(a)
        got = echelon({c: x for c, x in enumerate(r) if x} for r in a)
        assert sorted(got) == pivots
        for pc, ref in zip(pivots, red):
            p, row = got[pc]
            assert p > 0 and pc not in row and all(type(x) is int and x for x in row.values())
            assert [Fraction(p if c == pc else row.get(c, 0), p) for c in range(len(ref))] == ref

    def test_echelon_makes_a_row_primitive_only_after_scaling(self):
        # 2 does not divide 3: the second row is scaled to 5 x_1 = 0, then
        # made primitive; 3 x_1 + 3 x_2 is never scaled, and keeps its
        # content, while the back-substitution scales the first row by 3
        assert echelon([{0: 2, 1: 3}, {0: 3, 1: 2}]) == {0: (2, {}), 1: (1, {})}
        assert echelon([{0: 2, 1: 1}, {1: 3, 2: 3}]) == {0: (2, {2: -1}), 1: (3, {2: 3})}
        # a -1 pivot is turned into 1
        assert echelon([{0: -1, 1: 2}]) == {0: (1, {1: -2})}


class TestSharedVectors:
    """One coordinate dict per (root, sign) class of the two-term relations,
    and one object per distinct vector: the generators of a class share it,
    in a built space and in one read from a payload, and callers only read
    it."""

    @pytest.mark.parametrize("sign,distinct", [(1, 881), (-1, 859)])
    def test_a_class_shares_one_vector(self, sign, distinct):
        space = build_space(1000, sign)
        p1, coords = space.p1, space.gen_coords
        for i in range(len(p1)):
            # x_i = -x_(iS) and x_i = sign x_(i eta): i eta (sign +1) and
            # i S eta (sign -1) are in the class of i with its sign
            s = p1.act_right(i, modsym.S_MAT)
            j = p1.act_right(s if sign == -1 else i, modsym.ETA_MAT)
            assert coords(j) is coords(i), i
            assert coords(s) == {k: -v for k, v in coords(i).items()}, i
        assert len({id(c) for c in space._gen_coords}) == distinct
        assert len(p1) == 1800

    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_cached_space_shares_as_many(self, sign):
        # a space read back by `SymbolSpace.from_payload`, which no command calls
        cold = build_space(1000, sign)
        warm = SymbolSpace.from_payload(to_payload(cold), 1000, sign)
        assert warm is not cold and warm._gen_coords == cold._gen_coords
        assert (len({id(c) for c in warm._gen_coords})
                == len({id(c) for c in cold._gen_coords}))

    def test_fraction_coordinates_round_trip(self):
        # a string "a/b" is read back as a Fraction, an integral one as an int
        payload = to_payload(build_space(11))
        assert payload["gen_coords"][2] == {}
        payload["gen_coords"][2] = {"0": "-3/2", "1": "4"}
        space = SymbolSpace.from_payload(payload, 11, 1)
        assert space.gen_coords(2) == {0: Fraction(-3, 2), 1: 4}
        assert [type(v) for v in space.gen_coords(2).values()] == [Fraction, int]

    # no curve has conductor 1000 (at p >= 5 the exponent is at most 2), so
    # the eigen-symbol and its twist are taken on curve levels
    @pytest.mark.parametrize("level,label,d", [(1000, None, None), (11, "11a1", 5),
                                               (37, "37b1", -3)])
    def test_callers_only_read_shared_vectors(self, level, label, d):
        import io

        from plinv.cli import main
        from plinv.measures import TwistedSymbol

        space = build_space(level)
        if label:
            sym = eigen_symbol(curve_by_label(label))
            assert sym.space is space
            TwistedSymbol(sym, d)
        for ell in (2, 3):
            space.hecke_matrix(ell)
        assert main(["--no-cache", "--no-meta", "modsym", "dump", "--level", str(level)],
                    out=io.StringIO()) == 0
        assert space._gen_coords == SymbolSpace(level)._gen_coords


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

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("level", range(1, 101))
    def test_matches_path_reference_every_level(self, level, sign):
        # Merel's matrices on Manin symbols against the ell + 1 (or ell)
        # image paths, for T_ell and, where ell divides the level, U_ell
        sp = build_space(level, sign)
        for ell in (2, 3, 5, 7, 11, 13):
            assert sp.hecke_matrix(ell) == hecke_matrix_reference(sp, ell), ell

    def test_builds_one_copy_of_the_matrix(self):
        # T_3 at level 2000 keeps 0.76 MB of rows; a list of columns and its
        # transpose, held at once, peaked at twice that
        import tracemalloc

        space = SymbolSpace(2000)
        merel_matrices(3)
        tracemalloc.start()
        try:
            mat = space.hecke_matrix(3)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(mat) == space.dimension and peak <= 1.2 * kept, (peak, kept)

    def test_merel_set_matches_brute_force(self):
        for ell in range(1, 51):
            # a > b >= 0 and d > c >= 0 force a + d - 1 <= ell, so c < ell
            brute = {(a, b, c, (ell + b * c) // a)
                     for a in range(1, ell + 1) for b in range(a) for c in range(ell)
                     if (ell + b * c) % a == 0 and (ell + b * c) // a > c}
            got = merel_matrices(ell)
            assert len(got) == len(brute) and set(got) == brute, ell

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
            assert sym.eigenvalue(p) == want, (label, p)
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
        assert sym.eigenvalue(2) == 0  # a_2(37b1) = 0 != a_2(37a1) = -2
        assert sym.eigenvalue(37) == 1

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


class TestEigenvalueOnDemand:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("label,level", [*BUNDLED_LEVELS.items(),
                                             ("11a1tw5", 275), ("11a1tw-4", 176)])
    def test_eigenvalues_match_the_fraction_oracle(self, label, level, sign):
        sym = eigen_symbol(curve_by_label(label), sign)
        space, w = sym.space, sym.weights
        assert sym.level == level
        assert all(type(x) is int for x in w)
        assert w == [sym.gen_values[space.basis_generator(k)] for k in range(space.dimension)]
        # the generator values are the functional with these weights
        assert sym.gen_values == [sum(w[k] * v for k, v in space.gen_coords(i).items())
                                  for i in range(len(space.p1))]
        for ell in (2, 3, 5, 7, 11, 13):  # good and bad
            want = eigenvalue_reference(w, space.hecke_matrix(ell))
            assert want is not None and sym.eigenvalue(ell) == want, (label, sign, ell)


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
                a = pow(d, -1, c)
                b = (a * d - 1) // c
                assert a * d - b * c == 1
                r = Fraction(rng.randrange(-30, 31), rng.randrange(1, 30))
                # gamma {r -> oo} = {gamma r -> a/c}, two paths to oo
                gr = (a * r + b) / (c * r + d)
                assert sym.evaluate(gr) - sym.evaluate(Fraction(a, c)) == sym.evaluate(r)

    def test_evaluate_path_additivity(self):
        # {b/d -> a/c} = {b/d -> oo} - {a/c -> oo}: the Manin generator (c:d),
        # lifted to [[a, b], [c, d]] with a = d^-1 mod c, has the value
        # [b/d] - [a/c], and [oo] = 0; the twisted sums of measures rely on it
        for label, sign in itertools.product(("11a1", "14a1", "37b1"), (1, -1)):
            sym = eigen_symbol(curve_by_label(label), sign)
            for i, (c, d) in enumerate(sym.space.p1):
                a = pow(d, -1, c) if c else 1
                b = (a * d - 1) // c if c else 0
                ends = [sym.evaluate(x, y) if y else 0 for x, y in ((b, d), (a, c))]
                assert sym.gen_values[i] == ends[0] - ends[1], (label, c, d)


@lru_cache(maxsize=None)
def _p1_list(n):
    return P1List(n)


@lru_cache(maxsize=None)
def _eigen_symbol(label, sign):
    return eigen_symbol(curve_by_label(label), sign)


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
                    assert sym.evaluate(r) == _dot_product_value(sym, r), (sym.level, r)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("label,p", [("11a1", 11), ("14a1", 7), ("15a1", 5),
                                         ("17a1", 17), ("21a1", 3), ("37b1", 37)])
    def test_split_pairs(self, label, p, sign):
        self._check_units(eigen_symbol(curve_by_label(label), sign), p)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("label,level", [("11a1tw-4", 176), ("11a1tw5", 275)])
    def test_twist_levels(self, label, level, sign):
        sym = eigen_symbol(curve_by_label(label), sign)
        assert sym.level == level
        self._check_units(sym, 11)
        # [r + 1] = [r]: the path {0 -> 1} is closed in the quotient
        assert sym.evaluate(1) - sym.evaluate(0) == 0
        assert _dot_product_value(sym, 1) - _dot_product_value(sym, 0) == 0

    @settings(max_examples=200, deadline=None)
    @given(label=st.sampled_from(["11a1", "37b1"]), sign=st.sampled_from([1, -1]),
           a=st.integers(-10 ** 6, 10 ** 6), m=st.integers(1, 10 ** 5))
    def test_int_pair_matches_dot_product(self, label, sign, a, m):
        # a/m need not be in lowest terms: the int walk must not care
        sym = _eigen_symbol(label, sign)
        r = Fraction(a, m)
        assert sym.evaluate(a, m) == sym.evaluate(r) == _dot_product_value(sym, r)

    @settings(max_examples=200, deadline=None)
    @given(label=st.sampled_from(["11a1", "37b1", "11a1tw5"]),
           sign=st.sampled_from([1, -1]), m=st.integers(1, 10 ** 5),
           nums=st.lists(st.integers(-10 ** 6, 10 ** 6) | st.just(0), max_size=12))
    @example(label="11a1tw5", sign=-1, m=275, nums=[-826, -275, -1, 0, 1, 275, 276, 1927])
    def test_batch_matches_one_path_walks(self, label, sign, m, nums):
        # numerators of any sign, 0 and beyond m, in one batch
        sym = _eigen_symbol(label, sign)
        batch = sym.values_at(m, nums)
        assert batch == [sym.evaluate(a, m) for a in nums]
        assert batch == [_dot_product_value(sym, Fraction(a, m)) for a in nums]

    @settings(max_examples=200, deadline=None)
    @given(label=st.sampled_from(["11a1", "37b1", "11a1tw5", "11a1tw-4"]),
           sign=st.sampled_from([1, -1]), m=st.integers(1, 10 ** 5),
           residues=st.lists(st.integers(0, 10 ** 6), max_size=12))
    @example(label="11a1tw5", sign=-1, m=275 * 12, residues=[1, 7, 13, 274, 275 * 12 - 1])
    @example(label="11a1tw-4", sign=1, m=176 * 15, residues=[1, 7, 13, 2639])
    @example(label="37b1", sign=-1, m=37 ** 3, residues=[1, 2, 36, 1369, 50652])
    @example(label="11a1", sign=1, m=1, residues=[0, 5])
    def test_inverse_fed_walk(self, label, sign, m, residues):
        # the entry build_measure uses: units b mod m (composite m mostly),
        # walked from b itself to [b^-1/m]
        sym = _eigen_symbol(label, sign)
        units = [b for b in (r % m for r in residues) if gcd(b, m) == 1]
        inverses = [pow(b, -1, m) for b in units]
        walked = sym.walk([(m, b) for b in units])
        assert walked == sym.values_at(m, inverses)
        assert walked == [_dot_product_value(sym, Fraction(a, m)) for a in inverses]

    def test_value_at_zero_sign_follows_normalization(self):
        # the sign flip in eigen_symbol must reach the generator values, and
        # every path after it: no table read from the unflipped values survives
        rng = random.Random(7)
        for label in BUNDLED_LEVELS:
            for sign in (1, -1):
                sym = eigen_symbol(curve_by_label(label), sign)
                assert sym.at_zero == _dot_product_value(sym, 0) >= 0
                for _ in range(6):
                    r = Fraction(rng.randrange(-10 ** 4, 10 ** 4), rng.randrange(1, 10 ** 4))
                    assert sym.evaluate(r) == _dot_product_value(sym, r), (label, sign, r)


class TestInversionAtPrimeLevel:
    """At level p, [a'/p^n] = -sign [a/p^n] for a' = a^-1 mod p^n: with
    a' a - b p^n = 1, [[a', b], [p^n, a]] is in Gamma_0(p) and maps
    {-a/p^n -> oo} to {oo -> a'/p^n}.  build_measure fills tables at
    level p by this rule, and only there."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("label,depth", [
        ("11a1", 3), ("11a2", 3), ("11a3", 3), ("17a1", 3), ("37b1", 2),
    ])
    def test_prime_levels(self, label, depth, sign):
        sym = eigen_symbol(curve_by_label(label), sign)
        p = sym.level
        for n in range(1, depth + 1):
            pn = p ** n
            for a in range(1, pn):
                if a % p:
                    assert sym.evaluate(pow(a, -1, pn), pn) == -sign * sym.evaluate(a, pn), \
                        (label, n, a)

    @pytest.mark.parametrize("label,p,violations", [("14a1", 7, 294), ("15a1", 5, 100),
                                                    ("21a1", 3, 16)])
    def test_fails_where_the_level_is_not_p(self, label, p, violations):
        # the matrix is not in Gamma_0(N) when N does not divide p^n: the
        # level == p gate of build_measure cannot be widened to these
        sym = eigen_symbol(curve_by_label(label))
        pn = p ** 3
        bad = [a for a in range(1, pn)
               if a % p and sym.evaluate(pow(a, -1, pn), pn) != -sym.evaluate(a, pn)]
        assert len(bad) == violations


class TestTwistLevels:
    def test_twist_eigen_symbols(self):
        sym5 = eigen_symbol(curve_by_label("11a1tw5"))
        assert sym5.eigenvalue(2) == 2        # chi_5(2) * a_2(11a1)
        assert sym5.eigenvalue(11) == 1       # still split at 11
        assert sym5.eigenvalue(5) == 0        # additive at 5
        assert sym5.at_zero != 0
        sym4 = eigen_symbol(curve_by_label("11a1tw-4"))
        assert sym4.eigenvalue(11) == -1      # nonsplit at 11
        assert sym4.at_zero != 0
