"""Shared test oracles, independent of the library internals."""

from fractions import Fraction


def frac_mod(x, p, k):
    """Reduce a Fraction with p-unit denominator modulo p^k."""
    x = Fraction(x)
    m = p ** k
    if x.denominator % p == 0:
        raise ValueError("denominator not a p-unit")
    return x.numerator * pow(x.denominator, -1, m) % m


def oracle_log_series(z, terms):
    """Partial sum of log(1+z) = sum (-1)^(k+1) z^k / k as an exact Fraction."""
    z = Fraction(z)
    total = Fraction(0)
    for k in range(1, terms + 1):
        total += Fraction((-1) ** (k + 1)) * z ** k / k
    return total


def oracle_teichmuller(p, a, n):
    """Fixed point of x -> x^p modulo p^n."""
    m = p ** n
    x = a % m
    for _ in range(n + 2):
        x = pow(x, p, m)
    assert pow(x, p, m) == x
    return x


def padic_of_fraction(padicnum_cls, p, x, n):
    return padicnum_cls.from_fraction(p, x, n)


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
        if isinstance(v, Fraction):
            if v:
                loss = max(loss, int_val(v.denominator, p))
        elif not v.is_zero:
            loss = max(loss, -v.ord())
    return total.cap_abs_prec(n - loss)


def padic_digits(x):
    """(v, u, n): the exact stored form of a PadicNumber."""
    return x.v, x.u, x.n


# -- symbol-space oracles: rational path coordinates, brute-force P^1 ------


def path_to_infinity(space, r):
    """Coordinates of the path {r -> oo} on the free basis of `space`: the
    sum of the rational generator coordinates over the Manin pieces."""
    from plinv.modsym import INF, _manin_pieces

    if r is INF:
        return {}
    total = {}
    for c, d in _manin_pieces(Fraction(r)):
        for pos, val in space.gen_coords(space.p1.index(c, d)).items():
            total[pos] = total.get(pos, Fraction(0)) + val
    return {k: v for k, v in total.items() if v}


def hecke_matrix_reference(space, ell):
    """T_ell (U_ell when ell divides the level) from the rational
    coordinates of every image path, {a -> b} = {a -> oo} - {b -> oo}."""
    from plinv.modsym import _hecke_images

    dim = space.dimension
    cols = []
    for k in range(dim):
        alpha, beta = space.generator_endpoints(space.basis_generator(k))
        total = {}
        for img_a, img_b in _hecke_images(alpha, beta, ell, space.level):
            for r, sgn in ((img_a, 1), (img_b, -1)):
                for pos, val in path_to_infinity(space, r).items():
                    total[pos] = total.get(pos, Fraction(0)) + sgn * val
        cols.append(total)
    return [[cols[j].get(i, Fraction(0)) for j in range(dim)] for i in range(dim)]


def p1_orbit_minima(n):
    """P^1(Z/N) by brute force over all N^2 pairs: each point (c:d) as the
    lexicographically least pair (s c mod N, s d mod N) over the units s.

    That least pair is Stein's canonical form: its first entry is
    gcd(c, N) (0 when N | c), and its second the least one reachable."""
    if n == 1:
        return [(0, 0)]
    from math import gcd

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
    from math import gcd

    return min((s * c % n, s * d % n) for s in range(1, max(n, 2)) if gcd(s, n) == 1)
