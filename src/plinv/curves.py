"""Integral Weierstrass models over Q: invariants, local minimal models,
reduction types, Tate periods and their L-invariants log_p(q)/ord_p(q),
taken here without the formal products of `periods`.  Quadratic twists
are in `twists`, which only `check-twist` loads.
"""

import os
from functools import lru_cache

from . import DomainError, check_prime, padic
from .padic import PadicNumber, factor, hensel, int_val, rational


class CurveError(DomainError):
    pass


def _vp(n, p):
    """Valuation with v(0) treated as +infinity (as a big sentinel)."""
    if n == 0:
        return 10 ** 9
    return int_val(n, p)


class WeierstrassCurve:
    """An integral model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6;
    immutable, and equal to another model with the same a-invariants and
    label."""

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "label")

    def __init__(self, a1, a2, a3, a4, a6, label=""):
        for name, value in zip(self.__slots__, (a1, a2, a3, a4, a6, label)):
            object.__setattr__(self, name, value)
        if self.discriminant == 0:
            raise CurveError("singular model")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _key(self):
        return self.a1, self.a2, self.a3, self.a4, self.a6, self.label

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def a_invariants(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.a_invariants
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return (b2, b4, b6, b8)

    @property
    def c4(self):
        b2, b4, _, _ = self.b_invariants
        return b2 * b2 - 24 * b4

    @property
    def c6(self):
        b2, b4, b6, _ = self.b_invariants
        return -b2 ** 3 + 36 * b2 * b4 - 216 * b6

    @property
    def discriminant(self):
        b2, b4, b6, b8 = self.b_invariants
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def transform(self, u=1, r=0, s=0, t=0):
        """The substitution x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
        a1, a2, a3, a4, a6 = self.a_invariants
        b1 = a1 + 2 * s
        b2 = a2 - s * a1 + 3 * r - s * s
        b3 = a3 + r * a1 + 2 * t
        b4 = a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t
        b6 = a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1
        for val, power in ((b1, 1), (b2, 2), (b3, 3), (b4, 4), (b6, 6)):
            if val % u ** power:
                raise CurveError("transform is not integral")
        return WeierstrassCurve(
            b1 // u, b2 // u ** 2, b3 // u ** 3, b4 // u ** 4, b6 // u ** 6
        )

    def __repr__(self):
        tag = f" {self.label}" if self.label else ""
        return f"EllipticCurve{list(self.a_invariants)}{tag}"

    def to_json(self):
        return {
            "label": self.label or None,
            "a_invariants": list(self.a_invariants),
            "c4": self.c4,
            "c6": self.c6,
            "disc": self.discriminant,
            "j": rational(self.c4 ** 3, self.discriminant),
        }


def _descend_once(curve, p):
    """Find (r, s, t) making the u = p substitution integral, or None.

    For p >= 5 the translation is forced by invertibility of 2 and 3.
    For p in {2, 3} a complete search over s mod p, r mod p^2 and t mod p^3
    returns the lexicographically first (s, r, t) with s, r, t >= 0.  That
    box suffices: following [p, r, s, t] by an integral [1, r', s', t']
    gives [p, r + p^2 r', s + p s', t + p^2 s r' + p^3 t'], so the
    solutions are unions of such classes, and every class meets the box.
    """
    a1, a2, a3, a4, a6 = curve.a_invariants
    if p >= 5:
        s = -a1 * pow(2, -1, p) % p
        r = (s * s + s * a1 - a2) * pow(3, -1, p * p) % (p * p)
        t = -(a3 + r * a1) * pow(2, -1, p ** 3) % p ** 3
        return (r, s, t)
    p2, p3, p4, p6 = p ** 2, p ** 3, p ** 4, p ** 6
    for s in range(p):
        if (a1 + 2 * s) % p:
            continue
        for r in range(p2):
            if (a2 - s * a1 + 3 * r - s * s) % p2:
                continue
            for t in range(p3):
                if (a3 + r * a1 + 2 * t) % p3:
                    continue
                if (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) % p4:
                    continue
                if (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1) % p6:
                    continue
                return (r, s, t)
    return None


def minimal_model_at(curve, p):
    """A model with v_p(disc) minimal among integral models.

    Descends u = p while v(c4) >= 4 and v(c6) >= 6 permit an integral
    substitution; at p in {2, 3} the substitution search is exhaustive,
    so failure proves p-minimality.
    """
    check_prime(p)
    while True:
        if _vp(curve.c4, p) < 4 or _vp(curve.c6, p) < 6:
            return curve
        rst = _descend_once(curve, p)
        if rst is None:
            return curve
        r, s, t = rst
        curve = curve.transform(u=p, r=r, s=s, t=t)


def _legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def point_count(curve, p):
    """The number of points of the reduction of `curve` mod p, by direct
    counting: every point, the point at infinity and a singular point
    included.  On a minimal model with good or multiplicative reduction
    that is p + 1 - a_p: p at a split node, p + 2 at a nonsplit one."""
    a1, a2, a3, a4, a6 = curve.a_invariants
    if p == 2:
        count = 1
        for x in range(2):
            for y in range(2):
                if (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % 2 == 0:
                    count += 1
        return count
    b2, b4, b6, _ = curve.b_invariants
    count = p + 1
    for x in range(p):
        g = (4 * x ** 3 + b2 * x * x + 2 * b4 * x + b6) % p
        count += _legendre(g, p)
    return count


GOOD, SPLIT, NONSPLIT, ADDITIVE = (
    "good",
    "split-multiplicative",
    "nonsplit-multiplicative",
    "additive",
)


class ReductionInfo:
    """The reduction of a curve at p, read off its p-minimal model."""

    def __init__(self, p, kind, v_delta, v_j, ap, minimal):
        self.p = p
        self.kind = kind
        self.v_delta = v_delta
        self.v_j = v_j
        self.ap = ap
        self.minimal = minimal

    @property
    def is_multiplicative(self):
        return self.kind in (SPLIT, NONSPLIT)

    def to_json(self):
        return {
            "p": self.p,
            "kind": self.kind,
            "v_delta": self.v_delta,
            "v_j": self.v_j,
            "ap": self.ap,
        }


def reduction_type(curve, p):
    check_prime(p)
    e = minimal_model_at(curve, p)
    vd = _vp(e.discriminant, p)
    vj = 3 * _vp(e.c4, p) - vd if e.c4 else 10 ** 9
    if vd == 0:
        ap = p + 1 - point_count(e, p)
        return ReductionInfo(p, GOOD, 0, vj, ap, e)
    if _vp(e.c4, p) == 0:
        # Split iff -c4/c6 is a square in Q_p (Silverman, Advanced Topics,
        # ch. V, section 5).  c4^3/c6^2 = 1 + 1728 disc/c6^2 is = 1 mod p
        # (mod 2^7 at p = 2), so the unit c4 is a square and the test is on
        # -c6: a square mod p for odd p, = 1 mod 8 for p = 2.
        split = -e.c6 % 8 == 1 if p == 2 else _legendre(-e.c6, p) == 1
        kind = SPLIT if split else NONSPLIT
        return ReductionInfo(p, kind, vd, vj, 1 if split else -1, e)
    return ReductionInfo(p, ADDITIVE, vd, vj, 0, e)


def trace_of_frobenius(curve, p):
    return reduction_type(curve, p).ap


def bad_primes(curve):
    """The ReductionInfo of `curve` at each of its bad primes, p ascending."""
    reds = (reduction_type(curve, q) for q in factor(abs(curve.discriminant)))
    return [red for red in reds if red.kind != GOOD]


def _conductor_exponent(red):
    """f_p at a bad prime p: 1 where the reduction is multiplicative, 2
    where it is additive and p >= 5, None at an additive 2 or 3, which is
    out of reach of this implementation (no Tate algorithm)."""
    if red.is_multiplicative:
        return 1
    return 2 if red.p >= 5 else None


def conductor(curve, bad=None):
    """prod p^{f_p} over `bad`, the curve's `bad_primes` unless given;
    raises where an f_p is out of reach."""
    n = 1
    for red in bad_primes(curve) if bad is None else bad:
        f = _conductor_exponent(red)
        if f is None:
            raise CurveError(f"conductor exponent at additive p={red.p} not implemented")
        n *= red.p ** f
    return n


# -- j-invariant q-expansion and the Tate parameter --------------------


def _series_mul(a, b, m):
    out = [0] * m
    for i, ai in enumerate(a[:m]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: m - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def j_q_coefficients(nterms):
    """Integer coefficients c(0..nterms) of j(q) = 1/q + sum c(n) q^n.

    q j(q) = E4^3 g with g = 1/prod (1-q^n)^24, in O(nterms^2) integer
    operations.  The log-derivative q g'/g = 24 sum sigma_1(k) q^k gives
    n g_n = 24 sum_(k=1..n) sigma_1(k) g_(n-k), and one divisor sieve
    gives sigma_1 and the sigma_3 of E4 = 1 + 240 sum sigma_3(n) q^n.
    """
    m = nterms + 2
    sigma1, sigma3 = [0] * m, [0] * m
    for d in range(1, m):
        for k in range(d, m, d):
            sigma1[k] += d
            sigma3[k] += d ** 3
    g = [1] + [0] * (m - 1)
    for n in range(1, m):
        g[n] = 24 * sum(sigma1[k] * g[n - k] for k in range(1, n + 1)) // n
    e4 = [1] + [240 * s for s in sigma3[1:]]
    jq = _series_mul(_series_mul(_series_mul(e4, e4, m), e4, m), g, m)
    # jq[k] = c(k-1): coefficient of q^k in q*j(q)
    assert jq[0] == 1 and jq[1] == 744
    return jq[1 : nterms + 2]


def tate_period(curve, p, prec=20):
    """The parameter q with j(q) = j(E), ord(q) = m = v_p(disc_min) > 0:
    the root of G(q) = q - u q j(q), u = 1/j = disc/c4^3 with c4 a unit.
    v(u) = m, so G' = 1 mod p and Newton lifts q = 0 mod p (Silverman,
    Advanced Topics, ch. V).  Terms u c(n) q^(n+1) with n > prec/m - 2
    vanish mod p^(m+prec), the precision of q to prec digits."""
    red = reduction_type(curve, p)
    if not red.is_multiplicative:
        raise CurveError("no Tate period")
    m, e = red.v_delta, red.minimal
    top = p ** (m + prec)
    u = e.discriminant * pow(e.c4 ** 3, -1, top) % top
    coeffs = [1] + j_q_coefficients(prec // m)  # q j(q), constant term first

    def step(q, k, mod):
        # Horner for the series and its derivative over the terms seen mod
        # p^k.  q is the root mod p^ceil(k/2), so v(q) >= min(m, ceil(k/2)):
        # a term u c_j q^j with j >= k // m + 2 has valuation at least
        # m + j min(m, ceil(k/2)) >= k, and so does its u j c_j q^(j-1):
        # dropping them leaves the step unchanged mod p^k
        g = dg = 0
        for c in reversed(coeffs[: k // m + 2]):
            g, dg = (g * q + c) % mod, (dg * q + g) % mod
        return (q - (q - u * g) * pow(1 - u * dg, -1, mod)) % mod

    q = hensel(step, 0, p, m + prec)
    assert int_val(q, p) == m
    return PadicNumber(p, m, q // p ** m, prec)


def tate_l_invariant(q):
    """log_p(q)/ord_p(q) to the digits of a Tate period q: `periods.li` of q^1."""
    return padic.iwasawa_log(q) / q.ord()


def curve_l_invariant(curve, p, prec=20):
    """LI_p of the Tate period: log_p(q)/ord_p(q)."""
    return tate_l_invariant(tate_period(curve, p, prec))


# -- bundled curve table ------------------------------------------------


def _table_lines(path):
    """(line number from 1, row) for the rows of a curve table file: its
    lines less blanks and # comments."""
    with open(path, "r", encoding="utf-8") as fh:
        return [(i, line) for i, line in enumerate(map(str.strip, fh), 1)
                if line and not line.startswith("#")]


@lru_cache(maxsize=1)
def curve_table():
    """label -> (curve, conductor); derived data is recomputed, never
    trusted from the file."""
    table = {}
    for _, line in _table_lines(os.path.join(os.path.dirname(__file__), "curves.tsv")):
        curve, cond = parse_table_row(line), int(line.split("\t")[2])
        _validate_conductor(curve, cond)
        table[curve.label] = (curve, cond)
    return table


def curve_level(curve):
    """The conductor of `curve`, from the bundled table if it is there."""
    table = curve_table()
    label = getattr(curve, "label", "")
    return table[label][1] if label in table else conductor(curve)


def _validate_conductor(curve, cond):
    leftover = cond
    for red in bad_primes(curve):
        p = red.p
        f, e = _conductor_exponent(red), _vp(cond, p)
        if f is not None and e != f:
            raise CurveError(f"{curve.label}: conductor exponent at {p} should be {f}")
        if f is None and not 2 <= e <= (8 if p == 2 else 5):
            raise CurveError(f"{curve.label}: implausible conductor exponent at {p}")
        leftover //= p ** e
    if leftover != 1:
        raise CurveError(f"{curve.label}: conductor has spurious prime factors")


def parse_table_row(row):
    """Parse `label <sep> a1,a2,a3,a4,a6` (tab or whitespace separated);
    derived data, such as the bundled table's conductor, is never read."""
    parts = row.replace("\t", " ").split()
    if len(parts) < 2:
        raise CurveError("row wants: label a1,a2,a3,a4,a6")
    label = parts[0]
    if label.startswith("#"):
        raise CurveError("a label cannot start with '#', which marks a comment row")
    try:
        ainvs = [int(x) for x in parts[1].split(",")]
    except ValueError as exc:
        raise CurveError(f"bad a-invariants: {exc}") from exc
    if len(ainvs) != 5:
        raise CurveError("need five a-invariants")
    return WeierstrassCurve(*ainvs, label=label)


def load_user_table(path):
    """label -> curve of the optional user table, a later row of a label
    replacing an earlier one; rows are validated as the bundled ones, and
    a malformed one is refused with the file and its line."""
    if not os.path.exists(path):
        return {}
    table = {}
    for i, line in _table_lines(path):
        try:
            curve = parse_table_row(line)
        except CurveError as exc:
            raise CurveError(f"{path}, line {i}: {exc}") from None
        table[curve.label] = curve
    return table


def add_user_row(curve, path):
    """Append the row of `curve` to the user table at `path` (None: none)
    unless its label resolves to this model there already, and say whether
    that table now holds it.  A bundled label is never appended: with the
    bundled model it resolves as it is, and with another model, which the
    bundled curve would shadow, it is refused."""
    bundled = curve_table().get(curve.label)
    if bundled:
        if bundled[0] != curve:
            raise CurveError(f"label {curve.label!r} is bundled with another model")
        return False
    if path is not None and load_user_table(path).get(curve.label) != curve:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{curve.label}\t{','.join(map(str, curve.a_invariants))}\n")
    return path is not None


def curve_by_label(label, user_table_path=None):
    table = curve_table()
    if label in table:
        return table[label][0]
    user = load_user_table(user_table_path) if user_table_path else {}
    if label in user:
        return user[label]
    raise CurveError(f"unknown curve label {label!r}")
