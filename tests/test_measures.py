import io
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from plinv.cli import main
from plinv.curves import curve_by_label, trace_of_frobenius
from plinv.measures import (
    MeasureError,
    PadicMeasure,
    TwistedSymbol,
    build_measure,
    euler_factor,
    exceptional_zero_check,
    ezc_report,
    lp_value_and_derivative,
    stickelberger,
    twist_product_check,
    unit_root,
    _ezc_sides,
    _log_coordinates,
)
from plinv.modsym import EigenSymbol, P1List, eigen_symbol
from plinv.padic import PadicNumber

from helpers import (
    cyclotomic_polynomial,
    dual_reference,
    eigenvalue_reference,
    log_moment_reference,
    log_walk_reference,
    measure_reference,
    one_minus_zeta_product,
    padic_digits,
    pushforward_reference,
    riemann_sum_reference,
    twist_symbol_reference,
    values_reference,
)


SPLIT_PAIRS = [("11a1", 11), ("15a1", 5), ("21a1", 3), ("17a1", 17), ("14a1", 7), ("37b1", 37)]
NONSPLIT_PAIRS = [("14a1", 2), ("15a1", 3), ("21a1", 7)]

_symbols = {}


def symbol_for(label):
    if label not in _symbols:
        _symbols[label] = eigen_symbol(curve_by_label(label))
    return _symbols[label]


class TestUnitRoot:
    def test_multiplicative(self):
        r = unit_root(11, 1, True)
        assert r.alpha_exact == 1

    def test_multiplicative_requires_unit_ap(self):
        with pytest.raises(MeasureError):
            unit_root(11, 2, True)

    def test_good_ordinary_hensel(self):
        # 11a1 at p = 3: a_3 = -1, ordinary
        r = unit_root(3, -1, False, prec=15)
        a = r.alpha
        assert (a * a - (-1) * a + 3).is_zero
        assert a.ord() == 0
        # alpha * beta = p with beta = a_p - alpha
        beta = Fraction(-1) - a
        assert ((a * beta) - 3).is_zero

    @settings(max_examples=100, deadline=None)
    @given(p=st.sampled_from([2, 3, 5, 7, 11, 37]), ap=st.integers(-12, 12),
           prec=st.integers(1, 500))
    def test_unit_root_solves_the_hecke_polynomial(self, p, ap, prec):
        assume(ap % p)
        alpha = unit_root(p, ap, False, prec).alpha
        x, m = alpha.lift(), p ** prec
        assert alpha.n == prec
        assert (x * x - ap * x + p) % m == 0 and (x - ap) % p == 0

    def test_supersingular_rejected(self):
        # 11a1 at p = 2: a_2 = -2 is divisible by 2
        with pytest.raises(MeasureError, match="supersingular"):
            unit_root(2, -2, False)


class TestEulerFactor:
    def test_exceptional_zero_trigger(self):
        r = unit_root(11, 1, True)
        assert euler_factor(r, 1) == 0

    def test_minus_one_gives_two(self):
        r = unit_root(11, 1, True)
        assert euler_factor(r, -1) == 2

    def test_ramified_is_one(self):
        r = unit_root(11, 1, True)
        assert euler_factor(r, 0) == 1

    def test_nonsplit_factor(self):
        r = unit_root(11, -1, True)
        assert euler_factor(r, 1) == 2

    def test_good_ordinary_square(self):
        r = unit_root(3, -1, False, prec=12)
        e = euler_factor(r, 1)
        ainv = r.alpha ** -1
        assert (e - (1 - ainv) * (1 - ainv)).is_zero


class TestMeasure:
    def test_depth1_11a1_ten_values_sum_zero(self):
        m = build_measure(symbol_for("11a1"), 11, 1)
        assert len(m.values) == 10
        assert m.mass() == 0
        # oracle: the values are alpha^(-1) [a/11] evaluated directly
        sym = symbol_for("11a1")
        for a, v in m.values.items():
            assert v == sym.evaluate(Fraction(a, 11))

    def test_total_mass_formula_multiplicative(self):
        # mass = (1 - 1/alpha) * [0->oo]
        for label, p in SPLIT_PAIRS[:3] + NONSPLIT_PAIRS:
            sym = symbol_for(label)
            m = build_measure(sym, p, 2)
            alpha = m.root.alpha_exact
            assert m.mass() == (1 - Fraction(1, alpha)) * sym.at_zero, (label, p)

    def test_augmentation_vanishes_iff_split(self):
        for label, p in SPLIT_PAIRS:
            m = build_measure(symbol_for(label), p, 1)
            assert m.mass() == 0, (label, p)
        for label, p in NONSPLIT_PAIRS:
            sym = symbol_for(label)
            m = build_measure(sym, p, 1)
            assert m.mass() == 2 * sym.at_zero != 0, (label, p)

    def test_distribution_exact_all_bundled(self):
        for label, p in SPLIT_PAIRS + NONSPLIT_PAIRS:
            if p ** 3 > 10000:
                depths = (1, 2)
            else:
                depths = (1, 2, 3)
            sym = symbol_for(label)
            ms = {n: build_measure(sym, p, n) for n in depths}
            for n in depths[:-1]:
                assert ms[n + 1].pushforward().rows == ms[n].rows, (label, p, n)

    def test_good_ordinary_measure_mass(self):
        # 11a1 at p = 3 (good ordinary): mass = (1 - 1/alpha)^2 [0->oo]
        sym = symbol_for("11a1")
        root = unit_root(3, -1, False, prec=14)
        m2 = build_measure(sym, 3, 2, root=root)
        m3 = build_measure(sym, 3, 3, root=root)
        expected = euler_factor(root, 1) * sym.at_zero
        assert (m2.mass() - expected).is_zero
        assert (m3.mass() - expected).is_zero

    def test_good_ordinary_distribution_to_precision(self):
        sym = symbol_for("11a1")
        root = unit_root(3, -1, False, prec=14)
        m1 = build_measure(sym, 3, 1, root=root)
        m2 = build_measure(sym, 3, 2, root=root)
        # == on p-adic values: their difference is zero to the shared precision
        assert m2.pushforward().rows == m1.rows

    def test_additive_prime_rejected(self):
        sym = eigen_symbol(curve_by_label("11a1tw5"))
        with pytest.raises(MeasureError, match="additive"):
            build_measure(sym, 5, 2)

    def test_good_ordinary_root_read_from_hecke(self):
        # 11a1 probes only T_2, so a_3 comes from T_3 on the symbol
        sym = symbol_for("11a1")
        assert 3 not in sym.eigenvalues
        a3 = trace_of_frobenius(curve_by_label("11a1"), 3)
        assert sym.eigenvalue(3) == a3
        m = build_measure(sym, 3, 2)
        hand = build_measure(sym, 3, 2, root=unit_root(3, a3, False, 20))
        assert m.root.to_json() == hand.root.to_json()
        assert {a: v.to_json() for a, v in m.values.items()} == \
            {a: v.to_json() for a, v in hand.values.items()}
        # weights off every eigenline carry no eigenvalue at 3
        mixed = EigenSymbol(sym.space, [v + 1 for v in sym.gen_values], {})
        assert mixed.eigenvalue(3) is None
        with pytest.raises(MeasureError, match="no eigenvalue"):
            build_measure(mixed, 3, 2)


class TestTwistedSymbol:
    """E^D's symbol summed from E's own against the level-N D^2 space of
    the twist, its line isolated by Hecke probes."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("label,d", [
        ("11a1", 5), ("11a1", -4), ("11a1", 8), ("11a1", 13), ("37b1", 5), ("37b1", -3),
        ("14a1", 5), ("15a1", -7), ("17a1", -3), ("21a1", 5),
    ])
    def test_matches_the_twist_level_space(self, label, d, sign):
        curve = curve_by_label(label)
        sym = TwistedSymbol(eigen_symbol(curve, sign if d > 0 else -sign), d)
        space, weights, values = twist_symbol_reference(curve, d, sign)
        assert (sym.level, sym.sign) == (space.level, sign)
        assert sym.gen_values == values
        if label == "11a1" and d in (5, -4):
            for ell in (2, 3, 5, 7, 11, 13):
                want = eigenvalue_reference(weights, space.hecke_matrix(ell))
                assert want is not None and sym.eigenvalue(ell) == want, ell


    def test_has_no_presented_basis(self):
        sym = TwistedSymbol(eigen_symbol(curve_by_label("11a1")), 5)
        with pytest.raises(MeasureError, match="no presented basis"):
            sym.weights


class TestTwistedSymbolEnds:
    def test_each_end_is_summed_once(self, monkeypatch):
        # T(x/y) depends on (x mod y, y) alone, so an end shared by several
        # generators of P^1(Z/11*13^2) is one batch of 12 numerators
        base = eigen_symbol(curve_by_label("11a1"))
        numerators = []
        values_at = base.values_at

        def counting(m, nums):
            nums = list(nums)
            numerators.extend(nums)
            return values_at(m, nums)

        monkeypatch.setattr(base, "values_at", counting)
        TwistedSymbol(base, 13)
        ends = []
        for c, e in P1List(11 * 13 ** 2):
            a = pow(e, -1, c) if c else 1
            ends += [((a * e - 1) // c if c else 0, e), (a, c)]
        distinct = {(x % y, y) for x, y in ends if y}
        assert len(distinct) < len(ends)
        assert len(numerators) == 12 * len(distinct)


class TestStickelberger:
    def test_pushforward_exact(self):
        sym = symbol_for("11a1")
        t3 = stickelberger(build_measure(sym, 11, 3))
        t2 = stickelberger(build_measure(sym, 11, 2))
        assert t3.pushforward().values == t2.values

    def test_chi_orthogonality_quadratic(self):
        # sum chi(a) mu(a+p^n) = alpha^(-n) sum chi(a) [a/p^n] for the
        # quadratic character of conductor p (n = 1)
        for label, p in (("11a1", 11), ("15a1", 5), ("21a1", 3)):
            sym = symbol_for(label)
            m = build_measure(sym, p, 1)
            theta = stickelberger(m)
            chi = lambda a: Fraction(pow(a, (p - 1) // 2, p) == 1 and 1 or -1)
            lhs = sum(v * chi(a) for a, v in theta.values.items())
            alpha = m.root.alpha_exact
            rhs = Fraction(alpha) ** -1 * sum(
                chi(a) * sym.evaluate(Fraction(a, p)) for a in range(1, p)
            )
            assert lhs == rhs

    def test_imprimitive_defect_is_coset_function(self):
        # mu(a + p^n) - alpha^(-n) [a/p^n] only depends on a mod p^(n-1):
        # equivalent to chi-orthogonality for every primitive chi mod p^n
        sym = symbol_for("11a1")
        root = unit_root(3, -1, False, prec=14)
        n = 2
        m = build_measure(sym, 3, n, root=root)
        ai = root.alpha ** (-n)
        defect = {}
        for a, v in m.values.items():
            defect[a] = v - ai * sym.evaluate(Fraction(a, 3 ** n))
        for a in defect:
            for b in defect:
                if a % 3 == b % 3:
                    assert (defect[a] - defect[b]).is_zero

    def test_leading_term_split(self):
        sym = symbol_for("11a1")
        m = build_measure(sym, 11, 2)
        theta = stickelberger(m)
        assert theta.moment(0, prec=15) == 0  # order of vanishing at least 1
        lt = theta.moment(1, prec=15)
        _, l1 = lp_value_and_derivative(m, prec=15)
        # same sum, two packagings (up to the provable-precision cap)
        assert (lt - l1).is_zero

    def test_leading_term_rejects_nonvanishing(self):
        sym = symbol_for("15a1")
        m = build_measure(sym, 3, 2)  # nonsplit: augmentation 2*v0 != 0
        theta = stickelberger(m)
        assert theta.moment(0) != 0  # order of vanishing 0: no leading term at I^1

    def test_leading_term_order_two_moment_test(self):
        # split case: augmentation vanishes but the first moment (the
        # derivative) does not, so the order of vanishing is exactly 1
        sym = symbol_for("11a1")
        theta = stickelberger(build_measure(sym, 11, 2))
        assert theta.moment(0, prec=12) == 0
        assert theta.moment(1, prec=12) != 0

    def test_dual_involution(self):
        sym = symbol_for("11a1")
        m = build_measure(sym, 11, 2)
        t = stickelberger(m)
        td = stickelberger(m, dual=True)
        assert t.mass() == td.mass()
        pn = 11 ** 2
        for a, v in t.values.items():
            assert td.values[pow(a, -1, pn)] == v
        # first moments are negatives of each other
        m1 = t.moment(1, prec=12)
        m1d = td.moment(1, prec=12)
        assert (m1 + m1d).is_zero


class TestLpValues:
    def test_l0_zero_at_split(self):
        m = build_measure(symbol_for("11a1"), 11, 2)
        l0, _ = lp_value_and_derivative(m)
        assert l0 == 0

    def test_depth_stability(self):
        for label, p in (("11a1", 11), ("15a1", 5), ("21a1", 3)):
            sym = symbol_for(label)
            vals = {}
            for n in (2, 3):
                _, l1 = lp_value_and_derivative(build_measure(sym, p, n), prec=18)
                vals[n] = l1
            d = vals[2] - vals[3]
            assert d.is_zero
            assert d.abs_prec >= vals[2].abs_prec

    def test_derivative_precision_capped_at_depth(self):
        m = build_measure(symbol_for("11a1"), 11, 3)
        _, l1 = lp_value_and_derivative(m, prec=20)
        assert l1.abs_prec == 3


class TestRiemannSumOracle:
    """The k log_p(gamma) weighting against one iwasawa_log per unit."""

    @pytest.mark.parametrize("p", [2, 3, 5, 11])
    def test_walk_covers_each_unit_once(self, p):
        # the coordinates zeta gamma^k of a measure's rows
        for n in range(1, 5):
            pn = p ** n
            gamma, torsion = _log_coordinates(p, n)
            order = (pn - pn // p) // len(torsion)
            assert pow(gamma, order, pn) == 1
            for i, zeta in enumerate(torsion):
                assert pow(zeta, 2 if p == 2 else p - 1, pn) == 1
                assert (zeta + torsion[-1 - i]) % pn == 0
            seen = [z * pow(gamma, k, pn) % pn for k in range(order) for z in torsion]
            assert sorted(seen) == [a for a in range(1, pn) if a % p]
            assert seen == [a for _, units in log_walk_reference(p, n) for a in units]

    @pytest.mark.parametrize("label,p,max_depth", [
        ("21a1", 3, 4), ("15a1", 5, 4), ("14a1", 7, 4), ("14a1", 2, 4),
        ("11a1", 11, 3), ("17a1", 17, 2), ("37b1", 37, 2),
    ])
    def test_multiplicative_measures(self, label, p, max_depth):
        sym = symbol_for(label)
        for n in range(1, max_depth + 1):
            for prec in (6, 20):
                self._check(build_measure(sym, p, n, prec=prec), prec)

    def test_good_ordinary_measure(self):
        curve = curve_by_label("11a1")
        root = unit_root(3, trace_of_frobenius(curve, 3), False, prec=14)
        for n in range(1, 5):
            self._check(build_measure(symbol_for("11a1"), 3, n, root=root), 14)

    @staticmethod
    def _check(m, prec):
        p, n = m.p, m.depth
        _, l1 = lp_value_and_derivative(m, prec)
        assert padic_digits(l1) == padic_digits(riemann_sum_reference(m.values, p, n, 1, prec))
        for dual in (False, True):
            theta = stickelberger(m, dual)
            for j in (1, 2):
                want = riemann_sum_reference(theta.values, p, n, j, prec)
                assert padic_digits(theta.moment(j, prec)) == padic_digits(want), (p, n, dual, j)


class TestRows:
    """A measure held as rows in the coordinates zeta gamma^k, against the
    unit-by-unit table: its values, pushforward, dual re-indexing and log
    moments."""

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([2, 3, 5, 7]), n=st.integers(1, 4), rng=st.randoms())
    @example(p=2, n=2, rng=random.Random(0))  # the roots of unity 1, 3 both go to 1
    def test_rows_against_the_table(self, p, n, rng):
        shape = [len(units) for _, units in log_walk_reference(p, n)]
        rows = [[rng.randint(-50, 50) for _ in range(t)] for t in shape]
        m = PadicMeasure(p, n, unit_root(p, 1, True), None, rows)
        values = values_reference(rows, p, n)
        assert list(m.values.items()) == list(values.items())
        assert m.mass() == sum(values.values())
        if n > 1:
            assert m.pushforward().values == pushforward_reference(values, p, n)
        dual = stickelberger(m, True)
        assert dual.values == dual_reference(values, p, n)
        for j in (1, 2):
            for measure, table in ((m, values), (dual, dual.values)):
                want = log_moment_reference(table, p, n, j, 12)
                assert padic_digits(measure.moment(j, 12)) == padic_digits(want), j

    def test_pushforward_at_two_from_depth_two(self):
        m = PadicMeasure(2, 2, unit_root(2, 1, True), None, [[3, -5]])
        assert m.values == {1: 3, 3: -5}
        assert m.pushforward().rows == [[-2]]
        assert m.pushforward().values == {1: -2}


class TestSymmetricFill:
    """build_measure evaluates one unit per orbit and fills the rest by
    mu(p^n - a) = sign * mu(a) and, at level p, mu(a^-1) = -sign * mu(a);
    the reference evaluates every unit on its own Fraction."""

    @staticmethod
    def _check(sym, p, depth):
        m = build_measure(sym, p, depth)
        want = measure_reference(sym, p, depth, m.root)
        assert list(m.values) == list(want)  # every unit, in ascending order
        digits = (lambda v: v) if m.exact else padic_digits
        assert [digits(v) for v in m.values.values()] == [digits(v) for v in want.values()]

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("label,p", SPLIT_PAIRS)
    def test_split_pairs(self, label, p, sign):
        # the CLI refuses sign -1 measures; the symmetry holds for both signs
        sym = eigen_symbol(curve_by_label(label), sign)
        for depth in (1, 2, 3):
            self._check(sym, p, depth)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("label,p,depth", [
        ("11a1", 3, 3), ("37b1", 3, 3),  # good ordinary: two symbol values per cell
        ("14a1", 2, 1),                  # p^n = 2: the unit 1 is its own mirror
    ])
    def test_good_ordinary_and_self_mirrored_unit(self, label, p, depth, sign):
        self._check(eigen_symbol(curve_by_label(label), sign), p, depth)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_benchmark_depth_4(self, sign):
        # ezc-deep's deepest table; its 17a1 and 37b1 tables are
        # test_split_pairs' depth 3
        self._check(eigen_symbol(curve_by_label("11a1"), sign), 11, 4)

    def test_one_walk_per_orbit(self, monkeypatch):
        # every batch goes through `walk`, the tail's by way of `values_at`;
        # a batch is named by its largest denominator, p^n or p^(n-1)
        syms = [eigen_symbol(curve_by_label(label)) for label in ("37b1", "14a1", "11a1")]
        walks = []
        walk = EigenSymbol.walk

        def counting(self, paths):
            paths = list(paths)
            walks.append((max(m for m, _ in paths), len(paths)))
            return walk(self, paths)

        monkeypatch.setattr(EigenSymbol, "walk", counting)
        build_measure(syms[0], 37, 2)  # level p: rows k <= 18 of 37, half of each
        build_measure(syms[1], 7, 3)   # level 14: half of the 294 units
        # good ordinary: each [a/9] that a cell reads once, the units 4^k mod 9
        # (the cells of zeta = -1 are the mirrors of those of zeta = 1)
        build_measure(syms[2], 3, 3)
        assert walks == [(37 ** 2, 19 * 18), (7 ** 3, 147), (27, 9), (9, 3)]


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,argv", [
    ("check_ezc_11a1_p11_d3.json", ["--label", "11a1", "-p", "11", "--depth", "3"]),
    ("check_ezc_37b1_p37_d2.json", ["--label", "37b1", "-p", "37", "--depth", "2"]),
])
def test_check_ezc_golden_output(name, argv):
    # recorded before the Riemann sum was rewritten; a sign flip or a lost
    # digit anywhere in the pipeline changes these bytes
    buf = io.StringIO()
    assert main(["--no-cache", "--no-meta", "check-ezc", *argv], out=buf) == 0
    assert buf.getvalue() == (GOLDEN / name).read_text()


class TestExceptionalZero:
    @pytest.mark.parametrize("label,p", [("11a1", 11), ("15a1", 5), ("21a1", 3), ("14a1", 7)])
    def test_agreement_and_sign(self, label, p):
        rep = exceptional_zero_check(curve_by_label(label), p, depth=3, prec=20)
        assert rep["Lp0_is_zero"]
        assert rep["agreement_digits"] >= 2
        rep2 = exceptional_zero_check(curve_by_label(label), p, depth=2, prec=20)
        assert rep2["matched_sign"] == rep["matched_sign"]

    def test_sign_stable_under_precision(self):
        reps = [exceptional_zero_check(curve_by_label("11a1"), 11, depth=3, prec=n)
                for n in (10, 20, 28)]
        assert len({r["matched_sign"] for r in reps}) == 1

    def test_nonsplit_rejected(self):
        with pytest.raises(MeasureError, match="exceptional"):
            exceptional_zero_check(curve_by_label("15a1"), 3)

    def test_good_prime_rejected(self):
        with pytest.raises(MeasureError):
            exceptional_zero_check(curve_by_label("11a1"), 7)

    def test_wrong_branch_flagged(self):
        # replacing log_p by log_q (branch at the Tate parameter itself)
        # kills the L-invariant, so the ratio comparison must fail
        from plinv.curves import tate_period
        from plinv.periods import Period, li

        curve = curve_by_label("11a1")
        rep = exceptional_zero_check(curve, 11, depth=3)
        _, _, _, ratio, _ = _ezc_sides(curve, build_measure(eigen_symbol(curve), 11, 3), 20)
        q = tate_period(curve, 11, 20)
        broken = li(Period(11, [(q, 1)]), branch=q, prec=20)
        assert broken.is_zero  # log_q(q) = 0
        assert ratio.agreement(broken) < rep["agreement_digits"]

    def test_dual_flips_sign(self):
        rep = exceptional_zero_check(curve_by_label("11a1"), 11, depth=3)
        repd = exceptional_zero_check(curve_by_label("11a1"), 11, depth=3, dual=True)
        assert rep["matched_sign"] != repd["matched_sign"]
        assert repd["agreement_digits"] >= 2

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("label,p", SPLIT_PAIRS)
    def test_matched_sign_is_null_on_a_tie(self, label, p, depth):
        # at depth 1 the ratio is O(p), so it agrees with +LI and -LI to the
        # same digit; deeper, the dual element, which negates L_p'(0),
        # matches the other sign
        curve = curve_by_label(label)
        measure = build_measure(eigen_symbol(curve), p, depth)
        signs = []
        for dual in (False, True):
            theta = stickelberger(measure, dual)
            ratio, li_val = _ezc_sides(curve, theta, 20)[3:]
            plus, minus = ratio.agreement(li_val), ratio.agreement(-li_val)
            rep = ezc_report(curve, theta)
            assert rep["agreement_digits"] == max(plus, minus)
            assert (rep["matched_sign"] is None) == (plus == minus)
            signs.append(rep["matched_sign"])
        if depth == 1:
            assert signs == [None, None]
        else:
            assert sorted(signs) == ["+", "-"]

    def test_dual_report_names_its_indexing(self):
        # at 11a1, p = 11, depth 2 the dual element negates L_p'(0), so the
        # derivative, the ratio and the matched sign differ; of the
        # conventions only sigma_indexing does, and it names a^(-1)
        rep = exceptional_zero_check(curve_by_label("11a1"), 11, depth=2)
        repd = exceptional_zero_check(curve_by_label("11a1"), 11, depth=2, dual=True)
        assert {k for k in rep if rep[k] != repd[k]} == {
            "Lp_derivative", "ratio", "matched_sign", "conventions"}
        assert (rep["matched_sign"], repd["matched_sign"]) == ("+", "-")
        conv, convd = rep["conventions"], repd["conventions"]
        assert list(conv) == list(convd)
        assert {k for k in conv if conv[k] != convd[k]} == {"sigma_indexing"}
        assert conv["sigma_indexing"] == "sigma_a <-> a (pass dual=True for a^(-1))"
        assert convd["sigma_indexing"] == "sigma_a <-> a^(-1) (dual=True)"


class TestTwistChecks:
    def test_split_case(self):
        rep = twist_product_check(curve_by_label("11a1"), 5, 11, depth=3)
        assert rep["case"] == "split"
        assert rep["ratio_agreement_digits"] >= 2
        assert rep["tate_agreement_digits"] >= 18
        assert rep["product_vanishing_order_at_least_2"]

    def test_inert_case(self):
        rep = twist_product_check(curve_by_label("11a1"), -4, 11, depth=2)
        assert rep["case"] == "inert"
        assert rep["factor_two_exact"]
        assert rep["euler_factor"] == "2"
        assert rep["ratio"] == "2"

    def test_inert_case_at_a_good_prime(self):
        # p = 5 is good ordinary for 11a1, so the factor is (1 - 1/alpha)^2,
        # not 2; the reported ratio L_p(0)/[0->oo] is that factor
        def padic(obj):
            return PadicNumber(obj["p"], obj["v"], int(obj["unit"]), obj["n"])

        rep = twist_product_check(curve_by_label("11a1"), -3, 5, depth=2)
        assert rep["case"] == "inert" and not rep["factor_two_exact"]
        assert padic(rep["ratio"]).agreement(padic(rep["euler_factor"])) >= 18

    def test_degenerate_d_rejected(self):
        with pytest.raises(MeasureError, match="fundamental"):
            twist_product_check(curve_by_label("11a1"), 1, 11)

    def test_gcd_violation_rejected(self):
        with pytest.raises(MeasureError, match="coprime"):
            twist_product_check(curve_by_label("11a1"), -11, 11)


class TestPlusSymbolOnly:
    """The verifiers divide by [0 -> oo], which is 0 on every minus
    quotient (`test_modsym.py`), so they take no sign."""

    def test_no_dead_parameters(self):
        import inspect

        from plinv.modsym import build_space, eigen_symbol

        from helpers import j_of_q

        # no space is read from a disk cache, so none of these takes one
        for fn, name in [(exceptional_zero_check, "sign"), (twist_product_check, "sign"),
                         (ezc_report, "conventions"), (twist_product_check, "conventions"),
                         (j_of_q, "nterms"), (exceptional_zero_check, "cache"),
                         (twist_product_check, "cache"), (eigen_symbol, "cache"),
                         (build_space, "cache")]:
            assert name not in inspect.signature(fn).parameters, (fn, name)

    def test_sign_is_a_type_error(self):
        curve = curve_by_label("11a1")
        for call in (lambda: twist_product_check(curve, -4, 11, sign=-1),
                     lambda: exceptional_zero_check(curve, 11, sign=-1),
                     # an old positional sign no longer lands in dual
                     lambda: exceptional_zero_check(curve, 11, 3, 20, -1),
                     lambda: twist_product_check(curve, -4, 11, 3, 20, -1)):
            with pytest.raises(TypeError):
                call()


class TestCyclotomic:
    def test_small_cases(self):
        assert one_minus_zeta_product(2) == 2
        assert one_minus_zeta_product(3) == 3
        assert one_minus_zeta_product(12) == 12

    def test_cyclotomic_polynomials(self):
        assert cyclotomic_polynomial(1) == [-1, 1]
        assert cyclotomic_polynomial(2) == [1, 1]
        assert cyclotomic_polynomial(6) == [1, -1, 1]
        assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError):
            one_minus_zeta_product(1)
