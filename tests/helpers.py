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
        if isinstance(v, (int, Fraction)):
            if v:
                loss = max(loss, int_val(v.denominator, p))
        elif not v.is_zero:
            loss = max(loss, -v.ord())
    return total.cap_abs_prec(n - loss)


def measure_reference(symbol, p, n, root):
    """The measure table of `build_measure` with every unit a evaluated on
    its own Fraction a/p^n: no use of mu(p^n - a) = sign * mu(a)."""
    pn = p ** n
    values = {}
    for a in range(1, pn):
        if a % p == 0:
            continue
        lead = symbol.evaluate(Fraction(a, pn))
        if root.multiplicative:
            values[a] = root.alpha_exact ** n * lead
        else:
            tail = symbol.evaluate(Fraction(a % (pn // p), pn // p))
            values[a] = root.alpha ** -n * lead - root.alpha ** (-n - 1) * tail
    return values


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
    r = Fraction(r)
    total = {}
    for c, d in _manin_pieces(r.numerator, r.denominator):
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
    elimination over Q: every 3-term row is scaled by the inverse of its
    pivot, whatever that pivot is, and all coordinates are Fractions."""
    from plinv.modsym import S_MAT, T_MAT, ETA_MAT, SymbolSpace, _SignedUF

    class FractionSymbolSpace(SymbolSpace):
        def _build(self):
            p1 = self.p1
            ngen = len(p1)
            uf = _SignedUF.create(ngen)
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
