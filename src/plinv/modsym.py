"""Weight-2 modular symbols for Gamma_0(N) via Manin symbols.

The symbol space is presented on P^1(Z/N), enumerated by one orbit sieve
per divisor of N: two-term (S and sign) relations are folded in by a
signed union-find, the three-term T-relations by exact sparse elimination
over Z, dividing only at a pivot other than +-1 (Stein, Modular Forms: A
Computational Approach, ch. 8).  A space keeps only the result: the
coordinates of every Manin generator on a free basis and a generator for
every basis vector.  That, with the Hecke matrices computed so far, is
also what the disk cache stores; this module alone names the cache files
and writes them.  Hecke operators act through paths: a Manin generator
is a unimodular path, its Hecke image is a sum of paths, and Manin's
continued-fraction trick splits each path into generators, which are
counted as integers before they are mapped to coordinates.  All
arithmetic is exact, and on ints wherever the values are integers."""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .cache import CacheError
from .linalg import left_eigen_space, primitive, rank, vec_mat
from .curves import conductor, curve_table, trace_of_frobenius
from .padic import _is_probable_prime, factor


class ModSymError(ValueError):
    pass


INF = None  # the cusp at infinity in path endpoints


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _lift_unit(a, d, n):
    """Lift a unit a mod d (d | n) to a unit mod n."""
    if d == n:
        return a % n
    u, v = 1, n
    g = gcd(v, d)
    while g > 1:
        u *= g
        v //= g
        g = gcd(v, g)
    # n = u*v with u supported on primes of d and gcd(v, d) = 1
    _, x, y = _xgcd(u, v)
    return (u * x + a % n * y * v) % n


class P1List:
    """Representatives of P^1(Z/N) in the canonical form of Stein's
    Algorithm 8.29, enumerated by divisor (Cremona, Algorithms for Modular
    Elliptic Curves, 2.2): (0:1), every (1:v), and for each divisor
    1 < g < N the (g:v) with gcd(v, g) = 1 and v least in its orbit under
    the units t = 1 mod N/g.  One sieve per g walks v upwards: an unmarked
    v is a new representative, since a smaller member of its orbit would
    have marked it, and its whole orbit is marked with it.  `reduce` reads
    the marks `_canon[g][v]`, so the two cannot disagree.  O(N d(N)) work.
    """

    def __init__(self, n):
        if n < 1:
            raise ModSymError("level must be positive")
        self.N = n
        self._canon = {}
        reps = [(0, 0)] if n == 1 else [(0, 1)] + [(1, v) for v in range(n)]
        for g in range(2, n):
            if n % g:
                continue
            units = [t for t in range(1, n, n // g) if gcd(t, n) == 1]
            canon = self._canon[g] = [None] * n
            for v in range(n):
                if canon[v] is None and gcd(v, g) == 1:
                    reps.append((g, v))
                    for t in units:
                        canon[v * t % n] = v
        self._reps = reps
        self._index = {cd: i for i, cd in enumerate(reps)}

    def __len__(self):
        return len(self._reps)

    def __getitem__(self, i):
        return self._reps[i]

    def reduce(self, u, v):
        """Canonical representative of (u:v); Stein, Algorithm 8.29."""
        n = self.N
        if n == 1:
            return (0, 0)
        u %= n
        v %= n
        if u == 0:
            if gcd(v, n) != 1:
                raise ModSymError("not a projective point")
            return (0, 1)
        g, _, s = _xgcd(n, u)
        if gcd(g, v) > 1:
            raise ModSymError("not a projective point")
        s = _lift_unit(s % n, n // g, n)
        v = s * v % n
        if g == 1:
            return (1, v)
        return (g, self._canon[g][v])

    def index(self, u, v):
        return self._index[self.reduce(u, v)]

    def act_right(self, i, mat):
        """Index of (c:d)*mat for mat = [[a, b], [c, d]] acting on rows."""
        c, d = self._reps[i]
        a, b, cc, dd = mat
        return self.index(c * a + d * cc, c * b + d * dd)


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
            raise ModSymError("not liftable")
        return (1, 0, 0, 1)  # (0:d) ~ (0:1)
    k = 0
    dd = d
    while gcd(c, dd) != 1:
        k += 1
        dd = d + k * n
    g, x, y = _xgcd(c, dd)
    assert g == 1
    # y*dd + x*c = 1: take a = y, b = -x so a*dd - b*c = 1
    return (y, -x, c, dd)


def _manin_pieces(a, m):
    """Bottom rows (c, d) of the unimodular paths summing to {a/m -> oo},
    for ints a and m > 0 (not necessarily coprime).

    Manin's continued-fraction trick: with convergent denominators q_k of
    a/m, the k-th piece has bottom row (q_(k-1), (-1)^k q_k).  Euclid runs
    on the two ints, so no Fraction is built.
    """
    x, y = m, a % m
    c, d, sign = 0, 1, 1
    yield c, d
    while y:
        q, x, y = x // y, y, x % y
        c, d, sign = d, q * d + c, -sign
        yield c, sign * d


@dataclass
class _SignedUF:
    parent: list
    sgn: list
    dead: set

    @classmethod
    def create(cls, n):
        return cls(list(range(n)), [1] * n, set())

    def find(self, i):
        s = 1
        while self.parent[i] != i:
            s *= self.sgn[i]
            i = self.parent[i]
        return i, s

    def union(self, i, j, sign):
        """Impose x_i = sign * x_j."""
        ri, si = self.find(i)
        rj, sj = self.find(j)
        if ri == rj:
            if si != sign * sj:
                self.dead.add(ri)
            return
        # x_ri = (1/si) x_i = (sign * sj / si) x_rj
        self.parent[ri] = rj
        self.sgn[ri] = sign * sj * si  # signs are +-1: 1/si = si
        if ri in self.dead:
            self.dead.discard(ri)
            self.dead.add(rj)


S_MAT = (0, -1, 1, 0)
T_MAT = (0, -1, 1, -1)
ETA_MAT = (-1, 0, 0, 1)


class SymbolSpace:
    """The sign-quotient of weight-2 modular symbols for Gamma_0(N), held
    as its resolved presentation: the coordinates of every Manin generator
    on a free basis, and a Manin generator for every basis vector."""

    def __init__(self, level, sign=1):
        if sign not in (1, -1):
            raise ModSymError("sign must be +1 or -1")
        self.level = level
        self.sign = sign
        self.p1 = P1List(level)
        self._hecke = {}
        self._stored = None  # Hecke matrices in the disk copy; None: no copy
        self._build()

    # -- presentation ----------------------------------------------------

    def _build(self):
        p1 = self.p1
        ngen = len(p1)
        uf = _SignedUF.create(ngen)
        for i in range(ngen):
            uf.union(i, p1.act_right(i, S_MAT), -1)
            uf.union(i, p1.act_right(i, ETA_MAT), self.sign)
        live = []
        col = {}
        for i in range(ngen):
            r, _ = uf.find(i)
            if r not in uf.dead and r not in col:
                col[r] = len(live)
                live.append(r)
        rows = set()
        for i in range(ngen):
            it = p1.act_right(i, T_MAT)
            itt = p1.act_right(it, T_MAT)
            row = {}
            for j in (i, it, itt):
                r, s = uf.find(j)
                if r in uf.dead:
                    continue
                row[col[r]] = row.get(col[r], 0) + s
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.add(tuple(sorted(row.items())))
        # pivot rows are kept fully reduced: they hold free columns only, as
        # ints unless a pivot other than +-1 divides them
        pivots = {}
        for row in sorted(rows, key=len):
            row = dict(row)
            for c in [c for c in row if c in pivots]:
                f = row.pop(c)
                for cc, vv in pivots[c].items():
                    row[cc] = row.get(cc, 0) - f * vv
            row = _nonzero(row)
            if not row:
                continue
            pc = min(row)
            piv = row.pop(pc)
            inv = piv if piv in (1, -1) else Fraction(1, piv)  # +-1 is its own inverse
            row = _nonzero({c: v * inv for c, v in row.items()})
            for opc in list(pivots):
                orow = pivots[opc]
                if pc in orow:
                    f = orow.pop(pc)
                    for c, v in row.items():
                        orow[c] = orow.get(c, 0) - f * v
                    pivots[opc] = _nonzero(orow)
            pivots[pc] = row
        free = [c for c in range(len(live)) if c not in pivots]
        free_pos = {c: k for k, c in enumerate(free)}
        coords = []
        for i in range(ngen):
            r, s = uf.find(i)
            if r in uf.dead:
                coords.append({})
            elif col[r] in pivots:
                # x_c = -sum vv * x_cc
                coords.append({free_pos[cc]: -s * vv for cc, vv in pivots[col[r]].items()})
            else:
                coords.append({free_pos[col[r]]: s})
        self._gen_coords = coords
        self._basis = [live[c] for c in free]
        self.dimension = len(free)

    def gen_coords(self, i):
        """Coordinates of Manin generator i on the free basis."""
        return self._gen_coords[i]

    def basis_generator(self, k):
        """A Manin generator mapping to the k-th basis vector."""
        return self._basis[k]

    # -- paths -----------------------------------------------------------

    def generator_endpoints(self, i):
        """(alpha, beta) with generator i = {alpha -> beta}."""
        c, d = self.p1[i]
        a, b, cc, dd = lift_to_sl2z(c, d, self.level)
        alpha = INF if dd == 0 else Fraction(b, dd)
        beta = INF if cc == 0 else Fraction(a, cc)
        return alpha, beta

    # -- Hecke operators ---------------------------------------------------

    def hecke_matrix(self, ell):
        """T_ell for ell prime to the level, U_ell for ell dividing it.  A
        column counts the Manin generators on the image paths as integers,
        then maps each distinct generator to coordinates once."""
        if ell in self._hecke:
            return self._hecke[ell]
        dim = self.dimension
        index = self.p1.index
        cols = []
        for k in range(dim):
            alpha, beta = self.generator_endpoints(self.basis_generator(k))
            counts = {}
            for img_a, img_b in _hecke_images(alpha, beta, ell, self.level):
                for r, sgn in ((img_a, 1), (img_b, -1)):
                    if r is INF:
                        continue
                    for c, d in _manin_pieces(r.numerator, r.denominator):
                        i = index(c, d)
                        counts[i] = counts.get(i, 0) + sgn
            total = {}
            for i, m in counts.items():
                if m:
                    for pos, val in self.gen_coords(i).items():
                        total[pos] = total.get(pos, 0) + m * val
            cols.append(total)
        mat = [[cols[j].get(i, 0) for j in range(dim)] for i in range(dim)]
        self._hecke[ell] = mat
        return mat

    # -- the cuspidal subspace ---------------------------------------------

    @property
    def cuspidal_dimension(self):
        """dimension - rank of the boundary map to the sign-quotient of the
        cusp space, where [cusp] = sign * [-cusp]; a self-negating cusp
        dies when sign = -1."""
        n = self.level
        cusps = []
        dead = set()

        def cusp_index(cusp):
            a, m = (1, 0) if cusp is INF else (cusp.numerator, cusp.denominator)
            for idx, (aa, mm) in enumerate(cusps):
                if _cusps_equivalent(a, m, aa, mm, n):
                    return idx, 0 if idx in dead else 1
                if _cusps_equivalent(-a, m, aa, mm, n):
                    return idx, 0 if idx in dead else self.sign
            cusps.append((a, m))
            if self.sign == -1 and _cusps_equivalent(a, m, -a, m, n):
                dead.add(len(cusps) - 1)
                return len(cusps) - 1, 0
            return len(cusps) - 1, 1

        rows = {}
        for k, gen in enumerate(self._basis):
            alpha, beta = self.generator_endpoints(gen)
            for cusp, sgn in ((beta, 1), (alpha, -1)):
                idx, s = cusp_index(cusp)
                rows.setdefault(idx, [0] * self.dimension)[k] += sgn * s
        return self.dimension - rank(list(rows.values()))

    def to_json(self):
        return {
            "level": self.level,
            "sign": self.sign,
            "p1_size": len(self.p1),
            "dimension": self.dimension,
            "cuspidal_dimension": self.cuspidal_dimension,
            "generators": [list(self.p1[i]) for i in range(len(self.p1))],
            "gen_coords": _encode_coords(self._gen_coords),
        }

    # -- disk serialization (exact; Fractions as strings) ----------------

    def to_payload(self):
        return {
            "level": self.level,
            "sign": self.sign,
            "p1": [list(cd) for cd in self.p1],
            "gen_coords": _encode_coords(self._gen_coords),
            "basis": self._basis,
            "hecke": {
                str(l): [[str(x) for x in row] for row in mat]
                for l, mat in self._hecke.items()
            },
        }

    @classmethod
    def from_payload(cls, payload):
        self = cls.__new__(cls)
        self.level = payload["level"]
        self.sign = payload["sign"]
        self.p1 = P1List(self.level)
        if payload["p1"] != [list(cd) for cd in self.p1]:
            raise CacheError(f"stale P^1 list in the cached level-{self.level} space")
        self._gen_coords = [{int(k): _rational(v) for k, v in c.items()}
                            for c in payload["gen_coords"]]
        self._basis = list(payload["basis"])
        self.dimension = len(self._basis)
        used = 1 + max((k for c in self._gen_coords for k in c), default=-1)
        if len(self._gen_coords) != len(self.p1) or used != self.dimension:
            raise CacheError(f"inconsistent cached level-{self.level} space")
        self._hecke = {
            int(l): [[_rational(x) for x in row] for row in mat]
            for l, mat in payload["hecke"].items()
        }
        self._stored = len(self._hecke)
        return self


def _encode_coords(coords):
    return [{str(k): str(v) for k, v in c.items()} for c in coords]


def _rational(text):
    """An int for an integral string such as "3", else a Fraction."""
    return Fraction(text) if "/" in text else int(text)


def _nonzero(row):
    """`row` without zero entries, integral Fractions turned into ints."""
    return {c: v if type(v) is int else (v.numerator if v.denominator == 1 else v)
            for c, v in row.items() if v}


def _mobius(num_a, num_b, den_a, den_b, z):
    """(num_a z + num_b) / (den_a z + den_b) on Q u {oo}."""
    if z is INF:
        if den_a == 0:
            return INF
        return Fraction(num_a, den_a)
    z = Fraction(z)
    den = den_a * z + den_b
    if den == 0:
        return INF
    return (num_a * z + num_b) / den


def _hecke_images(alpha, beta, ell, level):
    """Endpoint pairs of the degree-ell Hecke correspondence."""
    out = []
    for k in range(ell):
        out.append((_mobius(1, k, 0, ell, alpha), _mobius(1, k, 0, ell, beta)))
    if level % ell:
        out.append((_mobius(ell, 0, 0, 1, alpha), _mobius(ell, 0, 0, 1, beta)))
    return out


def _cusps_equivalent(a1, m1, a2, m2, n):
    """Gamma_0(N)-equivalence of cusps a1/m1 and a2/m2 (lowest terms)."""
    g1 = gcd(a1, m1)
    a1, m1 = a1 // g1, m1 // g1
    g2 = gcd(a2, m2)
    a2, m2 = a2 // g2, m2 // g2
    if m1 < 0:
        a1, m1 = -a1, -m1
    if m2 < 0:
        a2, m2 = -a2, -m2
    _, s1, _ = _xgcd(a1, m1)
    _, s2, _ = _xgcd(a2, m2)
    g = gcd(n, m1 * m2)
    return (s1 * m2 - s2 * m1) % g == 0


# -- spaces are memoized per (level, sign, cache directory) -------------

_space_memo = {}


def _space_cache_name(level, sign):
    return f"modsym_{level}_{'plus' if sign == 1 else 'minus'}"


def build_space(level, sign=1, cache=None):
    """The space of (level, sign): read from `cache` when it holds it,
    else built; memoized per cache directory.  A space reaches the cache
    once, through `store_spaces` when the command ends, with every Hecke
    matrix the command computed."""
    key = (level, sign, None if cache is None else cache.directory)
    if key in _space_memo:
        return _space_memo[key]
    payload = None if cache is None else cache.load(_space_cache_name(level, sign), "modsym")
    space = SymbolSpace.from_payload(payload) if payload is not None else SymbolSpace(level, sign)
    _space_memo[key] = space
    return space


def store_spaces(cache):
    """Store each space memoized under `cache` whose disk copy is missing
    or holds fewer Hecke matrices than the space."""
    for (level, sign, directory), space in _space_memo.items():
        held = len(space._hecke)
        if directory == cache.directory and (space._stored is None or held > space._stored):
            cache.store(_space_cache_name(level, sign), "modsym", space.to_payload())
            space._stored = held


# -- eigen-symbols -------------------------------------------------------


@dataclass
class EigenSymbol:
    level: int
    sign: int
    space: SymbolSpace
    weights: list            # left eigenvector on the basis
    gen_values: list         # integer value at every Manin generator (content 1)
    eigenvalues: dict
    label: str = ""
    _piece_index: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def evaluate(self, a, m=1):
        """Value on the path {a/m -> oo}: a numerator a and a denominator
        m > 0 as ints, or one rational a (int or Fraction); an int, since
        the generator values are.

        Sums the generator values over the Manin pieces of the path, walked
        on ints; the generator of each piece is memoised on its bottom row
        mod N, packed into the int c*N + d.  The sign quotient gives
        [-r] = sign [r] (eta) and [r + 1] = [r] (translation), so
        [(m - a)/m] = sign [a/m]: `build_measure` evaluates half the units.
        """
        if a is INF:
            return 0
        if type(a) is not int:
            a, m = a.numerator, m * a.denominator
        memo, vals, n = self._piece_index, self.gen_values, self.level
        total = 0
        for c, d in _manin_pieces(a, m):
            key = c % n * n + d % n
            i = memo.get(key)
            if i is None:
                i = memo[key] = self.space.p1.index(c, d)
            total += vals[i]
        return total

    def hecke_eigenvalue(self, ell):
        """The eigenvalue of T_ell (U_ell for ell dividing the level) on
        `weights`, or None when `weights` is not an eigenvector of it."""
        w = self.weights
        img = vec_mat(w, self.space.hecke_matrix(ell))
        k = next(i for i, x in enumerate(w) if x)
        mu = Fraction(img[k], w[k])
        return mu if img == [mu * x for x in w] else None

    def evaluate_path(self, alpha, beta):
        return self.evaluate(alpha) - self.evaluate(beta)

    @property
    def at_zero(self):
        return self.evaluate(0)

    def to_json(self):
        return {
            "level": self.level,
            "sign": self.sign,
            "label": self.label or None,
            "weights": [str(w) for w in self.weights],
            "eigenvalues": {str(k): str(v) for k, v in self.eigenvalues.items()},
            "value_at_zero": str(self.at_zero),
        }


EIGEN_LMAX = 50  # the largest prime probed to isolate an eigenline


def eigen_symbol(curve, sign=1, level=None, cache=None, _eigen_override=None):
    """The rational Hecke eigen-functional attached to an elliptic curve.

    Probes T_ell for good primes ell until the joint left-eigenspace is a
    line; values are normalized to content 1 with value at {0 -> oo}
    nonnegative.
    """
    if level is None:
        label = getattr(curve, "label", "")
        table = curve_table()
        if label and label in table:
            level = table[label][1]
        else:
            level = conductor(curve)
    space = build_space(level, sign, cache)
    basis = None
    probes = {}
    ell = 2
    while ell <= EIGEN_LMAX:
        if level % ell:
            a_ell = _eigen_override.get(ell) if _eigen_override else trace_of_frobenius(curve, ell)
            probes[ell] = a_ell
            mat = space.hecke_matrix(ell)
            basis = left_eigen_space(mat, a_ell, basis)
            if not basis:
                raise ModSymError("curve not found at this level")
            if len(basis) == 1:
                break
        ell = _next_prime(ell)
    else:
        raise ModSymError("eigenline not isolated by ell <= %d" % EIGEN_LMAX)
    w = list(basis[0])
    vals = []
    for i in range(len(space.p1)):
        coords = space.gen_coords(i)
        vals.append(sum(w[k] * v for k, v in coords.items()))
    # content-1 normalization over all generator values, kept as integers;
    # the weights take the same positive scale
    scaled = primitive(vals)
    k = next((i for i, v in enumerate(vals) if v), None)
    if k is not None:
        w = [x * Fraction(scaled[k], vals[k]) for x in w]
    vals = scaled
    sym = EigenSymbol(level, sign, space, w, vals, probes,
                      label=getattr(curve, "label", ""))
    # record U_ell eigenvalues at bad primes (diagnostics and tests)
    for ell in factor(level):
        mu = sym.hecke_eigenvalue(ell)
        if mu is not None:
            probes[ell] = mu
    v0 = sym.at_zero
    flip = v0 < 0 or (v0 == 0 and next((v for v in vals if v), 0) < 0)
    if flip:
        sym.weights = [-x for x in sym.weights]
        sym.gen_values = [-v for v in vals]
    return sym


def _next_prime(n):
    n += 1
    while not _is_probable_prime(n):
        n += 1
    return n
