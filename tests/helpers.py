"""Shared test oracles, independent of the library internals."""

import argparse
from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

from plinv import UsageError
from plinv.cli import _depth, _precision, _prime, _sign


def frac_mod(x, p, k):
    """Reduce a Fraction with p-unit denominator modulo p^k."""
    x = Fraction(x)
    m = p ** k
    if x.denominator % p == 0:
        raise ValueError("denominator not a p-unit")
    return x.numerator * pow(x.denominator, -1, m) % m


def unit_coeffs(data, p, f, n):
    """Draw (hypothesis `data`) f coordinates mod p^n, one of them a unit."""
    return data.draw(st.lists(st.integers(0, p ** n - 1), min_size=f, max_size=f)
                     .filter(lambda c: any(x % p for x in c)))


def oracle_log_series(z, terms):
    """Partial sum of log(1+z) = sum (-1)^(k+1) z^k / k as an exact Fraction."""
    z = Fraction(z)
    total = Fraction(0)
    for k in range(1, terms + 1):
        total += Fraction((-1) ** (k + 1)) * z ** k / k
    return total


def oracle_teichmuller(p, a, n):
    """Fixed point of x -> x^p modulo p^n."""
    return teichmuller_reference(p, [a], n)[0]


def _poly_mulmod(x, y, modulus, m):
    """x * y in (Z/m)[t]/(modulus), modulus monic; coordinates low first."""
    f = len(modulus) - 1
    prod = [0] * (2 * f - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    for k in range(2 * f - 2, f - 1, -1):
        for i in range(f):
            prod[k - f + i] -= prod[k] * modulus[i]
    return [c % m for c in prod[:f]]


def _poly_power(x, e, modulus, m):
    """x^e in (Z/m)[t]/(modulus), by square and multiply."""
    out = [1] + [0] * (len(modulus) - 2)
    while e:
        if e & 1:
            out = _poly_mulmod(out, x, modulus, m)
        x, e = _poly_mulmod(x, x, modulus, m), e >> 1
    return out


def teichmuller_reference(p, coords, n, modulus=(0, 1)):
    """The Teichmuller lift of the unit with these coordinates in
    Z_p[t]/(modulus), as its coordinates mod p^n, on ints alone: the fixed
    point of x -> x^(p^f), iterated n times (each iterate pins one more
    digit of the root of unity congruent to the unit mod p)."""
    q, m = p ** (len(modulus) - 1), p ** n
    x = [c % m for c in coords]
    for _ in range(n):
        x = _poly_power(x, q, modulus, m)
    assert _poly_power(x, q, modulus, m) == x
    return x


def log_reference(p, coords, n, modulus=(0, 1)):
    """The Iwasawa log of the unit with these coordinates mod p^n in
    Z_p[t]/(modulus) (Q_p for the default t, Q_{p^f} for a modulus of
    degree f irreducible mod p), as its coordinates mod p^n, on ints alone.

    Divides u by its Teichmuller lift w, the fixed point of x -> x^(p^f),
    then sums log(1 + z) at z = u/w - 1 to every term that is nonzero mod
    p^n.  At p = 2 it sums the series at u^2, which is known mod 2^(n+1),
    and halves."""
    f = len(modulus) - 1
    a = n + 1 if p == 2 else n
    mod = p ** a
    u = [c % mod for c in coords]
    if p == 2:
        u = _poly_mulmod(u, u, modulus, mod)
    w = teichmuller_reference(p, u, a, modulus)
    z = _poly_mulmod(u, _poly_power(w, p ** f - 2, modulus, mod), modulus, mod)  # u/w, as w^(p^f - 1) = 1
    z[0] = (z[0] - 1) % mod
    if not any(z):
        return [0] * f
    m = min(_val(c, p) for c in z if c)
    # term j has valuation >= j m - floor(log_p j), which does not decrease in j
    terms = 1
    while terms * m - _floor_log(terms, p) < a:
        terms += 1
    big = p ** (a + terms.bit_length())  # absorbs the divisions by j < terms
    total, zj = [0] * f, z
    for j in range(1, terms):
        v = _val(j, p)
        inv = pow(j // p ** v, -1, big) * (-1) ** (j + 1)
        total = [(t + x // p ** v * inv) % big for t, x in zip(total, zj)]
        zj = _poly_mulmod(zj, z, modulus, big)
    if p == 2:
        total = [t // 2 for t in total]
    return [t % p ** n for t in total]


def log_coordinates(x, n):
    """A log known to absolute precision n, as its coordinates mod p^n."""
    assert x.abs_prec == n
    return [c * x.p ** x.v % x.p ** n for c in x._coords()]


def _val(k, p):
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v


def _floor_log(k, p):
    e = 0
    while p ** (e + 1) <= k:
        e += 1
    return e


def provably_equal(a, b, prec):
    """a = b to prec less 2 digits, which total_ord and a branch change may eat."""
    return a == b and a.agreement(b) >= prec - 2


def branch_change_holds(q, x, y, prec):
    """The change-of-branch law LI_y(q) = LI_x(q) - LI_x(y), provably."""
    from plinv.periods import Period, li

    rhs = li(q, branch=x, prec=prec) - li(Period(q.p, [(y, 1)], ctx=q.ctx), branch=x, prec=prec)
    return provably_equal(li(q, branch=y, prec=prec), rhs, prec)


def ugly_c(qB, d, prec):
    """c in the quadratic f(T) = T^2 - cT: LI_p of the period qB over
    Q_{p^f}, normed factorwise to Q_{p^d} (over Q_p, d = 1: LI_p(qB))."""
    from plinv.periods import Period, li

    if qB.ctx is None:
        return li(qB, "p", prec)

    def normed(b):  # an exact base, at the working precision li itself uses
        work = prec + 3
        x = b.to_padic(work) if hasattr(b, "to_padic") else qB.ctx.from_vector([Fraction(b)], work)
        return x.norm(d)

    return li(Period(qB.p, [(normed(b), e) for b, e in qB.factors], ctx=qB.ctx), "p", prec)


def assert_same(a, b, min_abs_prec=None):
    """Assert two PadicNumbers agree on all shared provable digits."""
    d = a - b
    assert d.is_zero, f"{a} != {b} (difference {d})"
    if min_abs_prec is not None:
        assert d.abs_prec >= min_abs_prec, (
            f"only provable mod p^{d.abs_prec}, wanted p^{min_abs_prec}"
        )


# -- analytic oracle: L(E,1) and the real period by quadrature ----------


def dirichlet_an(curve, conductor, n, ap_fn):
    """Multiplicative a_n from traces of Frobenius."""
    if n == 1:
        return 1
    m, p = n, 2
    while m % p:
        p += 1
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    ap = ap_fn(curve, p)
    if conductor % p == 0:
        ape = ap ** e
    else:
        prev, cur = 1, ap
        for _ in range(e - 1):
            prev, cur = cur, ap * cur - p * prev
        ape = cur
    return ape * dirichlet_an(curve, conductor, m, ap_fn)


def l_value_at_one(curve, conductor, ap_fn, terms=600):
    """2 sum a_n/n exp(-2 pi n / sqrt(N)); valid for root number +1."""
    import mpmath as mp

    mp.mp.dps = 30
    return 2 * mp.fsum(
        mp.mpf(dirichlet_an(curve, conductor, n, ap_fn)) / n
        * mp.e ** (-2 * mp.pi * n / mp.sqrt(conductor))
        for n in range(1, terms + 1)
    )


def real_period(curve):
    """2 * integral over the identity component of dx/(2y + a1 x + a3)."""
    import mpmath as mp

    mp.mp.dps = 30
    b2, b4, b6, _ = curve.b_invariants
    roots = mp.polyroots([4, b2, 2 * b4, b6], maxsteps=200, extraprec=200)
    real_roots = sorted(
        [r.real for r in roots if abs(r.imag) < 1e-10 * (1 + abs(r))], reverse=True
    )
    e1 = real_roots[0]
    # divide out the root: g(x) = (x - e1) h(x), substitute x = e1 + t^2
    c1 = b2 + 4 * e1
    c0 = 2 * b4 + c1 * e1
    h = lambda x: 4 * x * x + c1 * x + c0
    return 2 * mp.quad(lambda t: 2 / mp.sqrt(h(e1 + t * t)), [0, 1, 10, 1000, mp.inf])


# -- Riemann-sum oracle: one Teichmuller lift and one log per unit --------


def riemann_sum_reference(values, p, n, j=1, prec=20):
    """sum values[a] * log_p<a>^j with one iwasawa_log per unit a, capped
    at absolute precision n - loss, where p^loss bounds the denominators."""
    from plinv.padic import PadicNumber, int_val, iwasawa_log

    total = PadicNumber.zero(p)
    loss = 0
    for a, v in values.items():
        total = total + iwasawa_log(PadicNumber.from_int(p, a, prec)) ** j * v
        if isinstance(v, (int, Fraction)):
            if v:
                loss = max(loss, int_val(v.denominator, p))
        elif not v.is_zero:
            loss = max(loss, -v.ord())
    return total.cap_abs_prec(n - loss)


def log_walk_reference(p, n):
    """Yield (k, units) for k = 0, 1, ...: the units zeta gamma^k of Z/p^n
    over the roots of unity zeta of Z_p^* in their order in a measure's
    rows (the Teichmuller lifts of 1, ..., p - 1; 1 and -1 when p = 2),
    with gamma = 1 + p (5 when p = 2), until gamma^k is 1 again."""
    pn = p ** n
    gamma = 5 if p == 2 else 1 + p
    torsion = sorted({1, pn - 1}) if p == 2 else [oracle_teichmuller(p, t, n) for t in range(1, p)]
    g, k = 1, 0
    while True:
        yield k, [z * g % pn for z in torsion]
        g, k = g * gamma % pn, k + 1
        if g == 1:
            return


def values_reference(rows, p, n):
    """The table a -> value of a measure's rows, ascending in a."""
    walk = log_walk_reference(p, n)
    return dict(sorted((a, v) for (_, units), row in zip(walk, rows) for a, v in zip(units, row)))


def pushforward_reference(values, p, n):
    """The image of a table at depth n under (Z/p^n)^* -> (Z/p^(n-1))^*,
    summed unit by unit."""
    pm = p ** (n - 1)
    out = {}
    for a, v in values.items():
        b = a % pm
        out[b] = out[b] + v if b in out else v
    return out


def dual_reference(values, p, n):
    """The table re-indexed by a -> a^(-1) mod p^n."""
    return {pow(a, -1, p ** n): v for a, v in values.items()}


def log_moment_reference(values, p, n, j, prec):
    """sum values[a] * (k log_p(gamma))^j over the units a = zeta gamma^k of
    `log_walk_reference`, capped at absolute precision n; a table of ints."""
    from plinv.padic import PadicNumber, iwasawa_log

    s = 0
    for k, units in log_walk_reference(p, n):
        if k:
            s += k ** j * sum(map(values.__getitem__, units))
    log_gamma = iwasawa_log(PadicNumber.from_int(p, 5 if p == 2 else 1 + p, prec))
    return (log_gamma ** j * s).cap_abs_prec(n)


def forward_value(symbol, a, m):
    """[a/m] summed from `gen_values` over the forward continued fraction
    of `manin_pieces`: a walk independent of `EigenSymbol.walk`."""
    p1 = symbol.space.p1
    return sum(symbol.gen_values[p1.index(c, d)] for c, d in manin_pieces(a, m))


def measure_reference(symbol, p, n, root):
    """The measure table of `build_measure` with every unit a evaluated on
    its own path {a/p^n -> oo} by `forward_value`: no use of
    mu(p^n - a) = sign * mu(a), and no use of `EigenSymbol.walk`."""
    pn = p ** n
    values = {}
    for a in range(1, pn):
        if a % p == 0:
            continue
        lead = forward_value(symbol, a, pn)
        if root.multiplicative:
            values[a] = root.alpha_exact ** n * lead
        else:
            tail = forward_value(symbol, a, pn // p)
            values[a] = root.alpha ** -n * lead - root.alpha ** (-n - 1) * tail
    return values


def padic_digits(x):
    """(v, u, n): the exact stored form of a PadicNumber."""
    return x.v, x.u, x.n


# -- symbol-space oracles: rational path coordinates, brute-force P^1 ------


INF = None  # the cusp at infinity


def manin_pieces(a, m):
    """Bottom rows (c, d) of the unimodular paths summing to {a/m -> oo},
    for ints a and m > 0 (not necessarily coprime): with convergent
    denominators q_k of a/m, the k-th piece is (q_(k-1), (-1)^k q_k)."""
    x, y = m, a % m
    c, d, sign = 0, 1, 1
    yield c, d
    while y:
        q, x, y = x // y, y, x % y
        c, d, sign = d, q * d + c, -sign
        yield c, sign * d


def mobius(num_a, num_b, den_a, den_b, z):
    """(num_a z + num_b) / (den_a z + den_b) on Q u {oo}."""
    if z is INF:
        return INF if den_a == 0 else Fraction(num_a, den_a)
    z = Fraction(z)
    den = den_a * z + den_b
    if den == 0:
        return INF
    return (num_a * z + num_b) / den


def hecke_images(alpha, beta, ell, level):
    """Endpoint pairs of the degree-ell Hecke correspondence on the path
    {alpha -> beta}: the ell paths moved by [[1, k], [0, ell]], and the
    one moved by [[ell, 0], [0, 1]] when ell does not divide the level."""
    out = [(mobius(1, k, 0, ell, alpha), mobius(1, k, 0, ell, beta)) for k in range(ell)]
    if level % ell:
        out.append((mobius(ell, 0, 0, 1, alpha), mobius(ell, 0, 0, 1, beta)))
    return out


def path_to_infinity(space, r):
    """Coordinates of the path {r -> oo} on the free basis of `space`: the
    sum of the rational generator coordinates over the Manin pieces."""
    if r is INF:
        return {}
    r = Fraction(r)
    total = {}
    for c, d in manin_pieces(r.numerator, r.denominator):
        for pos, val in space.gen_coords(space.p1.index(c, d)).items():
            total[pos] = total.get(pos, 0) + val
    return {k: v for k, v in total.items() if v}


def lift_to_sl2z(c, d, n):
    """A matrix [[a, b], [c', d']] in SL_2(Z) whose bottom row is
    projectively congruent to (c:d) mod n; any such lift represents the
    same Gamma_0(n)-coset."""
    if n == 1:
        return (1, 0, 0, 1)
    c %= n
    d %= n
    if c == 0:
        if gcd(d, n) != 1:
            raise ValueError("not liftable")
        return (1, 0, 0, 1)  # (0:d) ~ (0:1)
    k = 0
    dd = d
    while gcd(c, dd) != 1:
        k += 1
        dd = d + k * n
    a = pow(dd, -1, c)  # then b = (a*dd - 1)/c gives a*dd - b*c = 1
    return (a, (a * dd - 1) // c, c, dd)


def generator_endpoints(space, i):
    """(alpha, beta) with Manin generator i = {alpha -> beta}: the images
    of 0 and oo under a lift of its bottom row to SL_2(Z)."""
    a, b, c, d = lift_to_sl2z(*space.p1[i], space.level)
    return mobius(a, b, c, d, 0), mobius(a, b, c, d, INF)


def cusp_inverse_numerator(z):
    """(m, s) for a cusp z = a/m in lowest terms, m >= 0: s a = 1 mod m,
    and (0, 1) for oo."""
    if z is INF:
        return 0, 1
    z = Fraction(z)
    return z.denominator, _inverse(z.numerator, z.denominator)


def hecke_matrix_reference(space, ell):
    """T_ell (U_ell when ell divides the level) from the rational
    coordinates of every image path, {a -> b} = {a -> oo} - {b -> oo}."""
    dim = space.dimension
    cols = []
    for k in range(dim):
        alpha, beta = generator_endpoints(space, space.basis_generator(k))
        total = {}
        for img_a, img_b in hecke_images(alpha, beta, ell, space.level):
            for r, sgn in ((img_a, 1), (img_b, -1)):
                for pos, val in path_to_infinity(space, r).items():
                    total[pos] = total.get(pos, 0) + sgn * val
        cols.append(total)
    return [[cols[j].get(i, 0) for j in range(dim)] for i in range(dim)]


def eigenvalue_reference(weights, mat):
    """The eigenvalue of `mat` on the row vector `weights`, in Fraction
    arithmetic, or None when `weights` is not a left eigenvector of it."""
    w = [Fraction(x) for x in weights]
    img = [sum((x * row[j] for x, row in zip(w, mat)), Fraction(0)) for j in range(len(w))]
    k = next(i for i, x in enumerate(w) if x)
    mu = img[k] / w[k]
    return mu if img == [mu * x for x in w] else None


def twist_symbol_reference(curve, d, sign=1):
    """(space, weights, generator values) of the quadratic twist E^D on the
    space of level N D^2, its line isolated by T_ell probes with the twist's
    point counts through `linalg.left_eigen_space`; the values have
    content 1, and the value at (0:1) is nonnegative (if it is 0, the
    first nonzero value is positive)."""
    from plinv import linalg
    from plinv.curves import curve_level, trace_of_frobenius
    from plinv.modsym import SymbolSpace
    from plinv.twists import quadratic_twist

    twist = quadratic_twist(curve, d)
    space = SymbolSpace(curve_level(curve) * d * d, sign)
    basis = None
    for ell in range(2, 51):
        if space.level % ell and all(ell % q for q in range(2, ell)):
            basis = linalg.left_eigen_space(space.hecke_matrix(ell),
                                            trace_of_frobenius(twist, ell), basis)
            if len(basis) == 1:
                break
    assert len(basis) == 1, "eigenline not isolated by ell <= 50"
    w = [Fraction(x) for x in basis[0]]
    vals = [sum((w[k] * v for k, v in space.gen_coords(i).items()), Fraction(0))
            for i in range(len(space.p1))]
    den = 1
    for v in vals:
        den = den * v.denominator // gcd(den, v.denominator)
    num = 0
    for v in vals:
        num = gcd(num, (v * den).numerator)
    vals = [int(v * den / num) for v in vals]
    v0 = vals[space.p1.index(0, 1)]
    if v0 < 0 or (v0 == 0 and next(v for v in vals if v) < 0):
        vals = [-v for v in vals]
    return space, basis[0], vals


def p1_orbit_minima(n):
    """P^1(Z/N) by brute force over all N^2 pairs: each point (c:d) as the
    lexicographically least pair (s c mod N, s d mod N) over the units s.

    That least pair is Stein's canonical form: its first entry is
    gcd(c, N) (0 when N | c), and its second the least one reachable."""
    if n == 1:
        return [(0, 0)]
    units = [s for s in range(1, n) if gcd(s, n) == 1]
    seen = bytearray(n * n)
    reps = []
    for c in range(n):
        for d in range(n):
            if seen[c * n + d] or gcd(gcd(c, d), n) != 1:
                continue
            reps.append((c, d))
            for s in units:
                seen[s * c % n * n + s * d % n] = 1
    return reps


def p1_reduce_reference(n, c, d):
    """The least pair of the unit orbit of (c, d) mod N, by brute force."""
    return min((s * c % n, s * d % n) for s in range(1, max(n, 2)) if gcd(s, n) == 1)


def cusps_equivalent(a1, m1, a2, m2, n):
    """Gamma_0(N)-equivalence of the cusps a1/m1 and a2/m2 by Cremona's
    criterion s1 m2 = s2 m1 mod gcd(m1 m2, N), where s_i a_i = 1 mod m_i
    (Algorithms for Modular Elliptic Curves, 2.2), tested pair by pair."""
    g1 = gcd(a1, m1)
    a1, m1 = a1 // g1, m1 // g1
    g2 = gcd(a2, m2)
    a2, m2 = a2 // g2, m2 // g2
    if m1 < 0:
        a1, m1 = -a1, -m1
    if m2 < 0:
        a2, m2 = -a2, -m2
    return (_inverse(a1, m1) * m2 - _inverse(a2, m2) * m1) % gcd(n, m1 * m2) == 0


def _inverse(a, m):
    """s with s a = 1 mod m, by the extended Euclidean algorithm (s = 1
    when m = 0, where a = +-1)."""
    x0, x1 = 1, 0
    while m:
        q, a, m = a // m, m, a % m
        x0, x1 = x1, x0 - q * x1
    return x0


# -- j-series oracle: the product multiplied out factor by factor ----------


def j_q_product_reference(nterms):
    """c(0..nterms) of j(q) = 1/q + sum c(n) q^n as E4^3 / prod (1-q^n)^24,
    with each (1-q^n)^24 expanded by the binomial theorem and multiplied
    in one at a time: O(nterms^3) integer operations."""
    from math import comb

    m = nterms + 2

    def mul(a, b):
        out = [0] * m
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b[: m - i]):
                    out[i + j] += ai * bj
        return out

    e4 = [1] + [240 * sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
                for n in range(1, m)]
    eta24 = [1] + [0] * (m - 1)
    for n in range(1, m):
        factor = [0] * m
        for k in range(min(24, (m - 1) // n) + 1):
            factor[n * k] = (-1) ** k * comb(24, k)
        eta24 = mul(eta24, factor)
    inv = [1] + [0] * (m - 1)
    for k in range(1, m):
        inv[k] = -sum(eta24[i] * inv[k - i] for i in range(1, k + 1))
    jq = mul(mul(mul(e4, e4), e4), inv)
    return jq[1 : nterms + 2]


def j_invariant(curve):
    """j = c4^3 / disc, as a Fraction: the curve's `to_json` prints it."""
    return Fraction(curve.c4 ** 3, curve.discriminant)


def j_of_q(q):
    """The j-series of `curves.j_q_coefficients` evaluated at a p-adic q,
    for round trips of `tate_period`."""
    from plinv.curves import j_q_coefficients

    m = q.ord()
    nterms = (q.n + m) // m + 2
    coeffs = j_q_coefficients(nterms)
    s = coeffs[nterms] * q
    for n in range(nterms - 1, 0, -1):
        s = (s + coeffs[n]) * q
    return 1 / q + 744 + s


# -- exact cyclotomic identity -----------------------------------------------


def _poly_divmod_z(num, den):
    """Exact division of integer polynomials, den monic."""
    num = list(num)
    dn = len(den) - 1
    q = [0] * max(0, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q[i - dn] = c
        for k in range(dn + 1):
            num[i - dn + k] -= c * den[k]
    while num and num[-1] == 0:
        num.pop()
    return q, num


def cyclotomic_polynomial(n):
    """Integer coefficients of Phi_n, by exact division of x^n - 1."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod_z(poly, cyclotomic_polynomial(d))
            assert not r
            poly = q
    return poly


def one_minus_zeta_product(n):
    """prod_{i=1}^{n-1} (1 - zeta_n^i) computed exactly in Z[x]/Phi_n(x);
    the classical value is n."""
    if n < 2:
        raise ValueError("need n >= 2")
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1

    def reduce_mod_phi(poly):
        _, r = _poly_divmod_z(poly, phi)
        return r + [0] * (deg - len(r))

    acc = [1] + [0] * (deg - 1) if deg > 1 else [1]
    for i in range(1, n):
        factor = [1] + [0] * (i - 1) + [-1]  # 1 - x^i
        prod = [0] * (len(acc) + len(factor) - 1)
        for a, ca in enumerate(acc):
            if ca:
                for b, cb in enumerate(factor):
                    prod[a + b] += ca * cb
        acc = reduce_mod_phi(prod)
    if any(acc[1:]):
        raise ValueError("product did not reduce to a constant")
    return acc[0]


# -- linear-algebra oracles: elimination over Q with Fraction pivots ------


def rref_reference(rows):
    """Reduced row echelon form over Q, every pivot scaled to 1; returns
    (rows, pivot_columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def kernel_basis_reference(a):
    """Basis of {x : a x = 0} over Q, with a 1 in each free column."""
    if not a:
        return []
    ncols = len(a[0])
    red, pivots = rref_reference(a)
    basis = []
    for fcol in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            vec[pcol] = -red[r][fcol]
        basis.append(vec)
    return basis


def rank_reference(a):
    return len(rref_reference(a)[0]) if a else 0


def fraction_space(level, sign=1):
    """The SymbolSpace of (level, sign) presented by Manin-relation
    elimination over Q: every relation is derived once per generator, not
    once per orbit, every 3-term row is scaled by the inverse of its
    pivot, whatever that pivot is, and all coordinates are Fractions."""
    from plinv.modsym import S_MAT, T_MAT, ETA_MAT, SymbolSpace, _SignedUF

    class FractionSymbolSpace(SymbolSpace):
        def _build(self):
            p1 = self.p1
            ngen = len(p1)
            uf = _SignedUF(ngen)
            for i in range(ngen):
                uf.union(i, p1.act_right(i, S_MAT), -1)
                uf.union(i, p1.act_right(i, ETA_MAT), self.sign)
            live, col = [], {}
            for i in range(ngen):
                r, _ = uf.find(i)
                if r not in uf.dead and r not in col:
                    col[r] = len(live)
                    live.append(r)
            rows = set()
            for i in range(ngen):
                it = p1.act_right(i, T_MAT)
                row = {}
                for j in (i, it, p1.act_right(it, T_MAT)):
                    r, s = uf.find(j)
                    if r not in uf.dead:
                        row[col[r]] = row.get(col[r], 0) + s
                row = {c: v for c, v in row.items() if v}
                if row:
                    rows.add(tuple(sorted(row.items())))
            pivots = {}
            for row in sorted(rows, key=len):
                row = {c: Fraction(v) for c, v in row}
                for c in [c for c in row if c in pivots]:
                    f = row.pop(c)
                    for cc, vv in pivots[c].items():
                        row[cc] = row.get(cc, 0) - f * vv
                row = {c: v for c, v in row.items() if v}
                if not row:
                    continue
                pc = min(row)
                inv = Fraction(1) / row[pc]
                row = {c: v * inv for c, v in row.items() if c != pc}
                for opc in list(pivots):
                    orow = pivots[opc]
                    if pc in orow:
                        f = orow.pop(pc)
                        for c, v in row.items():
                            orow[c] = orow.get(c, Fraction(0)) - f * v
                        pivots[opc] = {c: v for c, v in orow.items() if v}
                pivots[pc] = row
            free = [c for c in range(len(live)) if c not in pivots]
            free_pos = {c: k for k, c in enumerate(free)}
            coords = []
            for i in range(ngen):
                r, s = uf.find(i)
                if r in uf.dead:
                    coords.append({})
                elif col[r] in pivots:
                    coords.append({free_pos[cc]: -s * vv for cc, vv in pivots[col[r]].items()})
                else:
                    coords.append({free_pos[col[r]]: Fraction(s)})
            self._gen_coords = coords
            self._basis = [live[c] for c in free]
            self.dimension = len(free)

    return FractionSymbolSpace(level, sign)


def to_payload(space):
    """The payload of a format-3 space file, as the retired store wrote it
    (coordinates as strings): tests plant such files in a cache directory
    to check that no command reads them."""
    return {
        "level": space.level,
        "sign": space.sign,
        "p1": [list(cd) for cd in space.p1],
        "gen_coords": [{str(k): str(v) for k, v in c.items()} for c in space._gen_coords],
        "basis": space._basis,
    }


def kronecker_reference(d, n):
    """Kronecker symbol (d/n) for n > 0 without factoring n: (d/2)^k for
    the 2-part 2^k of n, times the Jacobi symbol of d over the odd part,
    by quadratic reciprocity."""
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    if k and d % 2 == 0:
        return 0
    result = -1 if k % 2 and d % 8 in (3, 5) else 1
    a = d % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# -- descent oracle: the u = p substitution searched over a wide box --------


def descend_once_reference(a_invariants, p):
    """The lexicographically first (s, r, t) with 0 <= s < p^4 and
    0 <= r, t < p^6 making the substitution x = p^2 x' + r,
    y = p^3 y' + s p^2 x' + t integral, as (r, s, t); None if there is
    none.  For p in {2, 3}; at p = 3 the t with a3 + r a1 + 2t = 0 mod 27
    are stepped through directly, as 2 is a unit."""
    a1, a2, a3, a4, a6 = a_invariants
    for s in range(p ** 4):
        if (a1 + 2 * s) % p:
            continue
        for r in range(p ** 6):
            if (a2 - s * a1 + 3 * r - s * s) % p ** 2:
                continue
            first = 0 if p == 2 else -(a3 + r * a1) * pow(2, -1, p ** 3) % p ** 3
            for t in range(first, p ** 6, 1 if p == 2 else p ** 3):
                if ((a3 + r * a1 + 2 * t) % p ** 3 == 0
                        and (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r
                             - 2 * s * t) % p ** 4 == 0
                        and (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t
                             - r * t * a1) % p ** 6 == 0):
                    return (r, s, t)
    return None


# The argparse parser that plinv.cli used before its option table: the
# oracle of tests/test_parser.py.


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_curve_args(sub):
    sub.add_argument("--label", help="curve label from the bundled table")
    sub.add_argument("--curve", help="a1,a2,a3,a4,a6 (integral model)")


def build_parser():
    ap = _Parser(prog="plinv", description=__doc__)
    ap.add_argument("--cache-dir", default=None, help="override the cache directory")
    ap.add_argument("--no-cache", action="store_true", help="disable the disk cache")
    ap.add_argument("--no-meta", action="store_true", help="suppress the timestamp block")
    ap.add_argument("--format", choices=("json", "table"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("li-period", help="L-invariant of a period literal")
    s.add_argument("literal")
    s.add_argument("-p", type=_prime, required=True)
    s.add_argument("--branch", default="p", help="p | cyc | a rational literal with ord != 0")
    s.add_argument("--prec", type=_precision, default=20)

    s = sub.add_parser("li-curve", help="Tate period and its L-invariant")
    _add_curve_args(s)
    s.add_argument("-p", type=_prime, required=True)
    s.add_argument("--prec", type=_precision, default=20)

    s = sub.add_parser("check-ezc", help="exceptional-zero comparison")
    _add_curve_args(s)
    s.add_argument("-p", type=_prime, required=True)
    s.add_argument("--depth", type=_depth, default=3)
    s.add_argument("--prec", type=_precision, default=20)
    s.add_argument("--dual", action="store_true")

    s = sub.add_parser("check-twist", help="quadratic-twist product bookkeeping")
    _add_curve_args(s)
    s.add_argument("-D", type=int, required=True, dest="disc")
    s.add_argument("-p", type=_prime, required=True)
    s.add_argument("--depth", type=_depth, default=3)
    s.add_argument("--prec", type=_precision, default=20)

    s = sub.add_parser("stickelberger", help="Stickelberger element at depth n")
    _add_curve_args(s)
    s.add_argument("-p", type=_prime, required=True)
    s.add_argument("-n", "--depth", type=_depth, default=2)
    s.add_argument("--prec", type=_precision, default=20)
    s.add_argument("--dual", action="store_true")

    s = sub.add_parser("lp", help="p-adic L-value and derivative data")
    _add_curve_args(s)
    s.add_argument("-p", type=_prime, required=True)
    s.add_argument("--depth", type=_depth, default=3)
    s.add_argument("--prec", type=_precision, default=20)
    s.add_argument("--table", action="store_true", help="include the measure table")
    s.add_argument("--dual", action="store_true")

    s = sub.add_parser("import-curve", help="validate and register a table row")
    s.add_argument("--row", required=True,
                   help='"label a1,a2,a3,a4,a6"; derived data is recomputed')

    s = sub.add_parser("modsym", help="modular symbol spaces")
    s2 = s.add_subparsers(dest="modsym_command", required=True)
    d = s2.add_parser("dump", help="presentation and Hecke matrices")
    d.add_argument("--level", type=int, required=True)
    d.add_argument("--sign", type=_sign, default=1)
    d.add_argument("--hecke", default="2,3", help="comma-separated primes")

    return ap
