"""Weight-2 modular symbols for Gamma_0(N) via Manin symbols.

The symbol space is presented on P^1(Z/N), enumerated by one orbit sieve
per divisor of N: two-term (S and sign) relations are folded in by a
signed union-find, once per pair, the three-term T-relations, one row per
T-orbit, by `linalg.echelon`, the one elimination over Z (Stein, Modular
Forms: A Computational Approach, ch. 8).  A space keeps only the result:
the coordinates of every Manin generator on a free basis and a generator
for every basis vector.  That alone is what the disk cache stores, once,
when the space is built; this module alone names the cache files and
writes them.  Hecke operators act on Manin symbols directly, by Merel's
matrices, and are never read from disk: the images of a generator are
counted as integers before they are mapped to coordinates.  An
eigen-symbol is its content-1 integer value at every Manin generator, on
the space of its curve's own level (a quadratic twist's is summed from its
curve's, `measures.TwistedSymbol`); its weights are the values at the
basis generators, and a Hecke eigenvalue is computed only when asked for.
Manin's continued-fraction trick is used only to evaluate a symbol on a
path {a/m -> oo}.  Cusps are classed by a (g, x) key, `_cusp_key`, not by
pairwise tests, and a generator (c:d) keys both of its ends from c and d,
with no lift to SL_2(Z).  All arithmetic is exact, and on ints wherever
the values are integers."""

from functools import cached_property, lru_cache
from math import gcd

from . import CacheError, DomainError, _is_probable_prime, linalg
from .linalg import echelon, fraction, mat_mul, primitive, rank


class ModSymError(DomainError):
    pass


class P1List:
    """Representatives of P^1(Z/N) in the canonical form of Stein's
    Algorithm 8.29, enumerated by divisor (Cremona, Algorithms for Modular
    Elliptic Curves, 2.2): (0:1), every (1:v), and for each divisor
    1 < g < N the (g:v) with gcd(v, g) = 1 and v least in its orbit under
    the units t = 1 mod N/g.  One sieve per g walks v upwards: an unmarked
    v is a new representative, since a smaller member of its orbit would
    have marked it, and its whole orbit is marked with its position.

    `index` reads two tables built with the list: per residue u mod N, a
    unit s with s u = g = gcd(u, N) mod N, and per divisor g the position
    of (g : v) for every v (None when gcd(v, g) > 1).  (u:v) is the point
    (g : s v); any such s gives the same point, as two of them differ by
    a unit t = 1 mod N/g.  O(N d(N)) work, O(1) per lookup.
    """

    def __init__(self, n):
        if n < 1:
            raise ModSymError("level must be positive")
        self.N = n
        reps = [(0, 0)] if n == 1 else [(0, 1)] + [(1, v) for v in range(n)]
        pos = {1: list(range(1, n + 1))}
        for g in range(2, n):
            if n % g:
                continue
            units = [t for t in range(1, n, n // g) if gcd(t, n) == 1]
            marks = pos[g] = [None] * n
            for v in range(n):
                if marks[v] is None and gcd(v, g) == 1:
                    i = len(reps)
                    for t in units:
                        marks[v * t % n] = i
                    reps.append((g, v))
        pos[n] = [0 if gcd(v, n) == 1 else None for v in range(n)]  # (0:v) = (0:1)
        unit = []
        for u in range(n):
            g = gcd(u, n)
            s = pow(u // g, -1, n // g)
            while gcd(s, n) != 1:
                s += n // g
            unit.append((s, pos[g]))
        self._reps = reps
        self._pos = pos
        self._unit = unit

    def __len__(self):
        return len(self._reps)

    def __getitem__(self, i):
        return self._reps[i]

    def position(self, u, v):
        """Index of (u:v), or None when gcd(u, v, N) > 1."""
        s, pos = self._unit[u % self.N]
        return pos[s * v % self.N]

    def index(self, u, v):
        i = self.position(u, v)
        if i is None:
            raise ModSymError("not a projective point")
        return i

    def reduce(self, u, v):
        """Canonical representative of (u:v); Stein, Algorithm 8.29."""
        return self._reps[self.index(u, v)]

    def act_right(self, i, mat):
        """Index of (c:d)*mat for mat = [[a, b], [c, d]] acting on rows."""
        c, d = self._reps[i]
        a, b, cc, dd = mat
        return self.index(c * a + d * cc, c * b + d * dd)


@lru_cache(maxsize=None)
def merel_matrices(ell):
    """Merel's set X_ell of the [[a, b], [c, d]] with a > b >= 0,
    d > c >= 0 and ad - bc = ell, as (a, b, c, d) tuples, cached per ell
    (Merel, Universal Fourier expansions of modular forms, LNM 1585, 1994;
    Stein, Modular Forms: A Computational Approach, 8.3).

    a + d - 1 <= ell bounds a.  For b = 0, a divides ell and c is free
    below d = ell/a.  For b > 0, with g = gcd(a, b) dividing ell, the d
    solving (a/g) d = ell/g mod b/g form one residue class mod b/g, and
    c >= 0, c < d confine d to [ell/a, ell/(a - b)): O(ell^2) work."""
    out = []
    for a in range(1, ell + 1):
        if ell % a == 0:
            out += [(a, 0, c, ell // a) for c in range(ell // a)]
        for b in range(1, a):
            g = gcd(a, b)
            if ell % g:
                continue
            a1, b1, l1 = a // g, b // g, ell // g
            lo = -(-l1 // a1)
            lo += (l1 * pow(a1, -1, b1) - lo) % b1
            for d in range(lo, (l1 - 1) // (a1 - b1) + 1, b1):
                out.append((a, b, (a1 * d - l1) // b1, d))
    return tuple(out)  # cached: shared by every caller


class _SignedUF:
    """Union-find over generators with a sign on every parent link; a
    root in `dead` is forced to 0."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.sgn = [1] * n
        self.dead = set()

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
        self._build()

    # -- presentation ----------------------------------------------------

    def _build(self):
        p1 = self.p1
        ngen = len(p1)
        uf = _SignedUF(ngen)
        for i in range(ngen):  # S and eta are involutions: one union per pair
            for mat, sign in ((S_MAT, -1), (ETA_MAT, self.sign)):
                j = p1.act_right(i, mat)
                if j >= i:
                    uf.union(i, j, sign)
        found = [uf.find(i) for i in range(ngen)]  # (root, sign) per generator
        live = []
        col = {}
        for r, _ in found:
            if r not in uf.dead and r not in col:
                col[r] = len(live)
                live.append(r)
        rows = set()
        seen = bytearray(ngen)  # T has order 3: one row per orbit {i, iT, iT^2}
        for i in range(ngen):
            if seen[i]:
                continue
            it = p1.act_right(i, T_MAT)
            itt = p1.act_right(it, T_MAT)
            seen[it] = seen[itt] = 1
            row = {}
            for j in (i, it, itt):
                r, s = found[j]
                if r in uf.dead:
                    continue
                row[col[r]] = row.get(col[r], 0) + s
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.add(tuple(sorted(row.items())))
        pivots = echelon(rows)
        free = [c for c in range(len(live)) if c not in pivots]
        free_pos = {c: k for k, c in enumerate(free)}
        coords = []
        for r, s in found:
            if r in uf.dead:
                coords.append({})
            elif col[r] in pivots:
                # p x_c = -sum vv * x_cc; a Fraction only where p does not divide
                p, prow = pivots[col[r]]
                coords.append({free_pos[cc]: -s * vv for cc, vv in prow.items()} if p == 1 else
                              {free_pos[cc]: fraction(-s * vv, p) if vv % p else -s * vv // p
                               for cc, vv in prow.items()})
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

    # -- Hecke operators ---------------------------------------------------

    def hecke_matrix(self, ell):
        """T_ell for ell prime to the level, U_ell for ell dividing it, by
        Merel's formula T_ell (c:d) = sum of (c:d) h over h in X_ell; for
        U_ell the images that are not projective points are dropped.  A
        column counts the image generators as integers, then maps each
        distinct generator to coordinates once."""
        if ell in self._hecke:
            return self._hecke[ell]
        dim = self.dimension
        position = self.p1.position
        merel = merel_matrices(ell)
        cols = []
        for k in range(dim):
            c, d = self.p1[self.basis_generator(k)]
            counts = {}
            for a, b, cc, dd in merel:
                i = position(c * a + d * cc, c * b + d * dd)
                if i is not None:
                    counts[i] = counts.get(i, 0) + 1
            col = [0] * dim
            for i, m in counts.items():
                for pos, val in self.gen_coords(i).items():
                    col[pos] += m * val
            cols.append(col)
        mat = [list(row) for row in zip(*cols)]
        self._hecke[ell] = mat
        return mat

    # -- the cuspidal subspace ---------------------------------------------

    def boundary_rows(self):
        """The boundary map to the cusps, [cusp] = sign * [-cusp], as rows on
        the basis, one per `_cusp_key` class pair; a self-negating cusp dies
        when sign = -1.  Filing -cusp with 1 instead of the sign keeps the
        rank at every level tried, but from level 27 on (sign -1) its kernel
        is no longer the Hecke-stable cuspidal subspace."""
        n = self.level
        classes = {}  # cusp key -> (row, factor)
        rows = {}
        for k, gen in enumerate(self._basis):
            c, d = self.p1[gen]
            # (c:d) = {b/d -> a/c} for [[a, b], [c, d]] in SL_2(Z), where
            # a d = 1 mod c and -b c = 1 mod d
            for m, s, sgn in ((d, -c, -1), (c, d, 1)):
                key = _cusp_key(m, s, n)
                if key not in classes:
                    neg = _cusp_key(m, -s, n)
                    classes[neg] = key, self.sign
                    classes[key] = key, 0 if neg == key and self.sign == -1 else 1
                row, factor = classes[key]
                rows.setdefault(row, [0] * self.dimension)[k] += sgn * factor
        return list(rows.values())

    @property
    def cuspidal_dimension(self):
        return self.dimension - rank(self.boundary_rows())

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
        }

    @classmethod
    def from_payload(cls, payload, level, sign):
        """The (level, sign) space stored in `payload`; CacheError when the
        payload holds another space, another key, or does not decode to one."""
        try:
            if sorted(payload) != ["basis", "gen_coords", "level", "p1", "sign"]:
                raise CacheError(f"the cached level-{level} space holds the keys "
                                 f"{sorted(payload)}")
            if (payload["level"], payload["sign"]) != (level, sign):
                raise CacheError(f"the cached level-{level} space holds level "
                                 f"{payload['level']}, sign {payload['sign']}")
            self = cls.__new__(cls)
            self.level, self.sign = level, sign
            self.p1 = P1List(level)
            if payload["p1"] != [list(cd) for cd in self.p1]:
                raise CacheError(f"stale P^1 list in the cached level-{level} space")
            self._gen_coords = [{int(k): _rational(v) for k, v in c.items()}
                                for c in payload["gen_coords"]]
            self._basis = list(payload["basis"])
            self.dimension = len(self._basis)
            self._hecke = {}
            used = 1 + max((k for c in self._gen_coords for k in c), default=-1)
            if (len(self._gen_coords) != len(self.p1) or used != self.dimension
                    or any(self._gen_coords[g] != {k: 1} for k, g in enumerate(self._basis))):
                raise CacheError(f"inconsistent cached level-{level} space")
        except (LookupError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
            raise CacheError(f"undecodable cached level-{level} space: {exc!r}") from exc
        return self


def _encode_coords(coords):
    return [{str(k): str(v) for k, v in c.items()} for c in coords]


def _rational(text):
    """An int for an integral string such as "3", else a Fraction."""
    return fraction(text) if "/" in text else int(text)


def _cusp_key(m, s, n):
    """The Gamma_0(N)-class of a cusp a/m (gcd(a, m) = 1, oo = 1/0) from its
    denominator m and an inverse s a = 1 mod m of its numerator, as (g, x):
    g = gcd(m, N), x = s (m/g)^-1 mod gcd(g, N/g).  Cusps are equivalent
    iff s1 m2 = s2 m1 mod gcd(m1 m2, N) (Cremona, Algorithms for Modular
    Elliptic Curves, 2.2): that is g1 = g2, x1 = x2."""
    g = gcd(m, n)
    h = gcd(g, n // g)
    return g, s * pow(m // g, -1, h) % h


# -- spaces are memoized per (level, sign, cache directory) -------------

_space_memo = {}


def _space_cache_name(level, sign):
    return f"modsym_{level}_{'plus' if sign == 1 else 'minus'}"


def build_space(level, sign=1, cache=None):
    """The space of (level, sign): read from `cache` when it holds it, else
    built and, under a cache, stored at once; memoized per cache directory.
    The presentation is all a space ever holds on disk, so it is written
    once, even when the command that built it goes on to fail."""
    key = (level, sign, None if cache is None else cache.directory)
    if key in _space_memo:
        return _space_memo[key]
    name = _space_cache_name(level, sign)
    payload = None if cache is None else cache.load(name, "modsym")
    if payload is None:
        space = SymbolSpace(level, sign)
        if cache is not None:
            cache.store(name, "modsym", space.to_payload())
    else:
        space = SymbolSpace.from_payload(payload, level, sign)
    _space_memo[key] = space
    return space


# -- eigen-symbols -------------------------------------------------------


class EigenSymbol:
    """A Hecke eigen-functional on a symbol space, held as `gen_values`, its
    integer value at every Manin generator (content 1).  Its `weights`, a
    left eigenvector on the basis, are the values at the basis generators,
    each of which has coordinates {k: 1}.  `eigenvalues` holds the T_ell
    (U_ell) eigenvalues known so far; `eigenvalue` computes any other on
    demand."""

    def __init__(self, space, gen_values, eigenvalues, label=""):
        self.space = space
        self.gen_values = gen_values
        self.eigenvalues = eigenvalues
        self.label = label

    @property
    def level(self):
        return self.space.level

    @property
    def sign(self):
        return self.space.sign

    @property
    def weights(self):
        return [self.gen_values[g] for g in self.space._basis]

    @cached_property
    def _walk_table(self):
        """The (s, row) per residue c mod N that `values_at` reads."""
        n, p1, vals = self.level, self.space.p1, self.gen_values
        rows = {g: [0 if i is None else vals[i] for i in pos] for g, pos in p1._pos.items()}
        return [(s, rows[gcd(u, n)]) for u, (s, _) in enumerate(p1._unit)]

    def evaluate(self, a, m=1):
        """Value on the path {a/m -> oo}: a numerator a and a denominator
        m > 0 as ints, or one rational a (int or Fraction); an int, since
        the generator values are.  The one-path case of `values_at`."""
        if type(a) is not int:
            a, m = a.numerator, m * a.denominator
        return self.values_at(m, (a,))[0]

    def values_at(self, m, numerators):
        """The values on the paths {a/m -> oo}, one per int a, for one
        denominator m > 0.

        Manin's continued-fraction trick, walked on the two ints: with
        convergent denominators q_k of a/m, the k-th piece is the generator
        (q_(k-1) : (-1)^k q_k), whose value is read in two steps from one
        table per symbol: per residue c mod N, a unit s and the row of
        generator values over the divisor gcd(c, N), so that (c:d) has the
        value row[s d mod N].  The table is built from `gen_values` once, on
        first use.  The sign quotient gives [-r] = sign [r] (eta) and
        [r + 1] = [r] (translation).
        """
        n, table = self.level, self._walk_table
        s, row = table[0]
        first = row[s % n]  # the piece (0:1)
        out = []
        for a in numerators:
            x, y = m, a % m
            c, d, sign, total = 0, 1, 1, first
            while y:
                q, x, y = x // y, y, x % y
                c, d, sign = d, q * d + c, -sign
                s, row = table[c % n]
                total += row[s * sign * d % n]
            out.append(total)
        return out

    def eigenvalue(self, ell):
        """The eigenvalue of T_ell (U_ell for ell dividing the level) on
        `weights`, memoised in `eigenvalues`, or None when `weights` is not
        an eigenvector of it.  The image of the integer row is tested by
        cross-multiplication; only the quotient is a Fraction."""
        if ell not in self.eigenvalues:
            w = self.weights
            img = mat_mul([w], self.space.hecke_matrix(ell))[0]
            k = next(i for i, x in enumerate(w) if x)
            if any(y * w[k] != img[k] * x for x, y in zip(w, img)):
                return None
            self.eigenvalues[ell] = fraction(img[k], w[k])
        return self.eigenvalues[ell]

    @property
    def at_zero(self):
        return self.evaluate(0)


EIGEN_LMAX = 50  # the largest prime probed to isolate an eigenline


def eigen_symbol(curve, sign=1, cache=None):
    """The integer Hecke eigen-symbol attached to an elliptic curve, on the
    space of its own level.

    Probes T_ell for good primes ell until the joint left-eigenspace is a
    line, and computes no other Hecke matrix; values are normalized by
    `normalized`.
    """
    from .curves import curve_level, trace_of_frobenius  # not on `modsym dump`

    level = curve_level(curve)
    space = build_space(level, sign, cache)
    basis = None
    probes = {}
    ell = 2
    while ell <= EIGEN_LMAX:
        if level % ell:
            probes[ell] = a_ell = trace_of_frobenius(curve, ell)
            basis = linalg.left_eigen_space(space.hecke_matrix(ell), a_ell, basis)
            if not basis:
                raise ModSymError("curve not found at this level")
            if len(basis) == 1:
                break
        ell = _next_prime(ell)
    else:
        raise ModSymError("eigenline not isolated by ell <= %d" % EIGEN_LMAX)
    w = basis[0]
    vals = normalized([sum(w[k] * v for k, v in space.gen_coords(i).items())
                       for i in range(len(space.p1))])
    return EigenSymbol(space, vals, probes, label=getattr(curve, "label", ""))


def normalized(values):
    """Generator values scaled to content 1, with the first nonzero one
    positive: the value at (0:1) = {0 -> oo}, the first generator, is then
    nonnegative."""
    values = primitive(values)
    return [-v for v in values] if next((v for v in values if v), 0) < 0 else values


def _next_prime(n):
    n += 1
    while not _is_probable_prime(n):
        n += 1
    return n
