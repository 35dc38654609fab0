"""Weight-2 modular symbols for Gamma_0(N) via Manin symbols.

The symbol space is presented on P^1(Z/N), enumerated by one orbit sieve
per divisor of N: two-term (S and sign) relations are folded in by a
signed union-find, once per pair, the three-term T-relations, one row per
T-orbit, by `linalg.echelon`, the one elimination over Z (Stein, Modular
Forms: A Computational Approach, ch. 8).  A space keeps only the result:
the coordinates of every Manin generator on a free basis, one read-only
vector per (root, sign) class of the two-term relations, and a generator
for every basis vector.  A space is built in process on every run and
memoised per (level, sign); no file is read or written.  Hecke operators
act on Manin symbols directly, by Merel's matrices: the images of a
generator are counted as integers before they are mapped to coordinates.  An
eigen-symbol is its content-1 integer value at every Manin generator, on
the space of its curve's own level (a quadratic twist's is summed from its
curve's, `twists.TwistedSymbol`); its weights are the values at the
basis generators, and a Hecke eigenvalue is computed only when asked for.
Manin's continued-fraction trick is used only to evaluate a symbol on a
path {a/m -> oo}, down Euclid's remainders on (m, a^-1 mod m): the
convergent denominators of a/m read backwards, the k-th piece carrying
eps^k on the sign-eps quotient.  Cusps are classed by a (g, x) key,
`_cusp_key`, not by pairwise tests, and a generator (c:d) keys both of its
ends from c and d, with no lift to SL_2(Z).  All arithmetic is exact, and
on ints wherever the values are integers."""

from functools import cached_property, lru_cache
from math import gcd

from . import DomainError, Quoted, _is_probable_prime, linalg
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
    on a free basis, and a Manin generator for every basis vector.  Each
    (root, sign) class shares one read-only dict, as do equal vectors."""

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
        coords, shared = {}, {}  # one vector per (root, sign) class; equal ones are one
        for r, s in dict.fromkeys(found):
            if r in uf.dead:
                v = {}
            elif col[r] in pivots:
                # p x_c = -sum vv * x_cc; a Fraction only where p does not divide
                p, prow = pivots[col[r]]
                v = ({free_pos[cc]: -s * vv for cc, vv in prow.items()} if p == 1 else
                     {free_pos[cc]: fraction(-s * vv, p) if vv % p else -s * vv // p
                      for cc, vv in prow.items()})
            else:
                v = {free_pos[col[r]]: s}
            coords[r, s] = shared.setdefault(tuple(v.items()), v)
        self._gen_coords = [coords[key] for key in found]
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
        distinct generator to coordinates once, straight into the matrix."""
        if ell in self._hecke:
            return self._hecke[ell]
        dim = self.dimension
        position = self.p1.position
        merel = merel_matrices(ell)
        mat = [[0] * dim for _ in range(dim)]
        for k in range(dim):
            c, d = self.p1[self.basis_generator(k)]
            counts = {}
            for a, b, cc, dd in merel:
                i = position(c * a + d * cc, c * b + d * dd)
                if i is not None:
                    counts[i] = counts.get(i, 0) + 1
            for i, m in counts.items():
                for pos, val in self.gen_coords(i).items():
                    mat[pos][k] += m * val
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
            "generators": self.p1._reps,
            "gen_coords": Quoted(self._gen_coords),
        }

    @classmethod
    def from_payload(cls, payload, level, sign):
        """The (level, sign) space stored in `payload`; CacheError when the
        payload holds another space, another key, or does not decode to one.
        No command reads a space from disk: `build_space` always builds."""
        from .cache import CacheError

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
            decode = lru_cache(maxsize=None)(lambda kv: {  # "3" an int, "3/2" a Fraction
                int(k): fraction(v) if "/" in v else int(v) for k, v in kv})
            self._gen_coords = [decode(tuple(c.items())) for c in payload["gen_coords"]]
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


def _cusp_key(m, s, n):
    """The Gamma_0(N)-class of a cusp a/m (gcd(a, m) = 1, oo = 1/0) from its
    denominator m and an inverse s a = 1 mod m of its numerator, as (g, x):
    g = gcd(m, N), x = s (m/g)^-1 mod gcd(g, N/g).  Cusps are equivalent
    iff s1 m2 = s2 m1 mod gcd(m1 m2, N) (Cremona, Algorithms for Modular
    Elliptic Curves, 2.2): that is g1 = g2, x1 = x2."""
    g = gcd(m, n)
    h = gcd(g, n // g)
    return g, s * pow(m // g, -1, h) % h


# -- spaces are memoized per (level, sign) -------------------------------

_space_memo = {}


def build_space(level, sign=1):
    """The space of (level, sign), built once per process."""
    key = (level, sign)
    if key not in _space_memo:
        _space_memo[key] = SymbolSpace(level, sign)
    return _space_memo[key]


# -- eigen-symbols -------------------------------------------------------


class EigenSymbol:
    """A Hecke eigen-functional on a symbol space, held as `gen_values`, its
    integer value at every Manin generator (content 1).  Its `weights`, a
    left eigenvector on the basis, are the values at the basis generators,
    each of which has coordinates {k: 1}.  `eigenvalues` holds the T_ell
    (U_ell) eigenvalues known so far; `eigenvalue` computes any other on
    demand."""

    def __init__(self, space, gen_values, eigenvalues):
        self.space = space
        self.gen_values = gen_values
        self.eigenvalues = eigenvalues

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
        """Per residue c mod N, a unit s and the row of generator values
        over gcd(c, N), so that (c:d) has the value row[s d mod N]."""
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
        """The values on the paths {a/m -> oo}, one per int a, for one m > 0."""
        return self.walk(inverse_paths(m, numerators))

    def walk(self, paths):
        """The values [b^-1/m], one per pair (m, b) of an int m > 0 and a
        unit 0 <= b < m.  Euclid's remainders on (m, b) are the convergent
        denominators q_K = m, ..., q_0 = 1 of a/m, a = (-1)^(K-1) b^-1, read
        backwards (Knuth, TAOCP 2, 4.5.3); Manin's k-th piece of {a/m -> oo}
        is (q_(k-1) : (-1)^k q_k), after (0:1).  As x(c : -d) = eps x(c : d)
        on the sign-eps quotient, [b^-1/m] = x(0:1) + eps E + O, with E and O
        the sums of x(y : x) over consecutive remainders (x, y) at even and
        odd steps from (m, b); x(0:1) = 0 when eps = -1."""
        n, table, plus = self.level, self._walk_table, self.sign == 1
        first, out = self.gen_values[0], []  # x(0:1): (0:1) is the first generator
        for x, y in paths:
            even = odd = 0
            while y:
                s, row = table[y % n]
                even += row[s * x % n]
                x, y = y, x % y
                if not y:
                    break
                s, row = table[y % n]
                odd += row[s * x % n]
                x, y = y, x % y
            out.append(first + odd + (even if plus else -even))
        return out

    def eigenvalue(self, ell):
        """The eigenvalue of T_ell (U_ell for ell dividing the level) on
        `weights`, memoised in `eigenvalues`, or None when `weights` is not
        an eigenvector of it.  The image of the integer row is tested by
        cross-multiplication; the quotient is an int, or a Fraction where
        it is not integral."""
        if ell not in self.eigenvalues:
            w = self.weights
            img = mat_mul([w], self.space.hecke_matrix(ell))[0]
            k = next(i for i, x in enumerate(w) if x)
            if any(y * w[k] != img[k] * x for x, y in zip(w, img)):
                return None
            q, r = divmod(img[k], w[k])
            self.eigenvalues[ell] = fraction(img[k], w[k]) if r else q
        return self.eigenvalues[ell]

    @property
    def at_zero(self):
        return self.evaluate(0)


def inverse_paths(m, numerators):
    """The pairs (m', a'^-1 mod m') that `walk` takes for the paths
    {a/m -> oo}, one per int a, for one m > 0, with a'/m' the reduced a/m."""
    paths = []
    for a in numerators:
        g = gcd(a, m)
        paths.append((m, pow(a, -1, m)) if g == 1 else (m // g, pow(a // g, -1, m // g)))
    return paths


EIGEN_LMAX = 50  # the largest prime probed to isolate an eigenline


def eigen_symbol(curve, sign=1):
    """The integer Hecke eigen-symbol attached to an elliptic curve, on the
    space of its own level.

    Probes T_ell for good primes ell until the joint left-eigenspace is a
    line, and computes no other Hecke matrix; values are normalized by
    `normalized`.
    """
    from .curves import curve_level, trace_of_frobenius  # not on `modsym dump`

    level = curve_level(curve)
    space = build_space(level, sign)
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
    return EigenSymbol(space, vals, probes)


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
