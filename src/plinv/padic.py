"""Fixed-precision arithmetic in Q_p.

A nonzero element is stored as p^v * u with u a unit known modulo p^n;
n is the number of significant (relative) p-adic digits, so the value is
pinned down modulo p^(v+n).  A "zero" element carries no unit: it only
records that the value is congruent to 0 modulo p^A for some absolute
precision A (A = +infinity for an exact zero).  All operations propagate
precision pessimistically, so every reported digit is provable.
"""

from fractions import Fraction
from math import inf


class PadicError(ValueError):
    pass


def _is_probable_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p):
    if not isinstance(p, int) or not _is_probable_prime(p):
        raise PadicError(f"{p} is not prime")
    return p


def int_val(n, p):
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise PadicError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def frac_val(x, p):
    """p-adic valuation of a nonzero Fraction or int."""
    x = Fraction(x)
    if x == 0:
        raise PadicError("valuation of zero")
    return int_val(x.numerator, p) - int_val(x.denominator, p)


class PadicNumber:
    """Element of Q_p known to finitely many significant digits."""

    __slots__ = ("p", "v", "u", "n")

    def __init__(self, p, v, u, n):
        # Trusted raw constructor; use from_int/from_fraction/zero instead.
        self.p = p
        self.v = v
        self.u = u
        self.n = n

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, p, abs_prec=inf):
        """The element known to vanish modulo p^abs_prec."""
        return cls(p, abs_prec, 0, 0)

    @classmethod
    def _make(cls, p, v, u, n):
        """Normalize a candidate p^v * (u mod p^n)."""
        if n <= 0:
            return cls.zero(p, v + n)
        u %= p ** n
        if u == 0:
            return cls.zero(p, v + n)
        t = int_val(u, p)
        if t:
            return cls(p, v + t, u // p ** t, n - t)
        return cls(p, v, u, n)

    @classmethod
    def from_int(cls, p, a, n):
        check_prime(p)
        if n < 1:
            raise PadicError("need at least one significant digit")
        if a == 0:
            return cls.zero(p)
        v = int_val(a, p)
        return cls(p, v, (a // p ** v) % p ** n, n)

    @classmethod
    def from_fraction(cls, p, x, n):
        x = Fraction(x)
        if x == 0:
            return cls.zero(check_prime(p))
        check_prime(p)
        if n < 1:
            raise PadicError("need at least one significant digit")
        num, den = x.numerator, x.denominator
        vn = int_val(num, p) if num else 0
        vd = int_val(den, p)
        num //= p ** vn
        den //= p ** vd
        m = p ** n
        u = num % m * pow(den, -1, m) % m
        return cls(p, vn - vd, u, n)

    # -- predicates / accessors ---------------------------------------

    @property
    def is_zero(self):
        """True when no nonzero digit is known (value ≡ 0 to precision)."""
        return self.u == 0

    @property
    def is_exact_zero(self):
        return self.u == 0 and self.v == inf

    @property
    def abs_prec(self):
        """Value is pinned down modulo p**abs_prec."""
        return self.v + self.n if self.u else self.v

    def ord(self):
        if self.u == 0:
            raise PadicError("valuation of zero")
        return self.v

    def unit_part(self):
        if self.u == 0:
            raise PadicError("unit part of zero")
        return self.u

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            if other.p != self.p:
                raise PadicError("mixed primes")
            return other
        if isinstance(other, (int, Fraction)):
            # Exact scalars keep precision decisions on the p-adic side.
            n = self.n if self.u else 64
            return PadicNumber.from_fraction(self.p, other, max(n, 1))
        return None

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        a = self
        ap, bp = a.abs_prec, b.abs_prec
        prec = min(ap, bp)
        if a.u == 0 and b.u == 0:
            return PadicNumber.zero(a.p, prec)
        if a.u == 0:
            return PadicNumber._make(a.p, b.v, b.u, min(b.n, prec - b.v))
        if b.u == 0:
            return PadicNumber._make(a.p, a.v, a.u, min(a.n, prec - a.v))
        v0 = min(a.v, b.v)
        k = prec - v0
        if k <= 0:
            return PadicNumber.zero(a.p, prec)
        m = a.p ** k
        s = (a.u * a.p ** (a.v - v0) + b.u * b.p ** (b.v - v0)) % m
        return PadicNumber._make(a.p, v0, s, k)

    __radd__ = __add__

    def __neg__(self):
        if self.u == 0:
            return self
        return PadicNumber(self.p, self.v, self.p ** self.n - self.u, self.n)

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self + (-b)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return PadicNumber.zero(self.p)
            if self.u == 0:
                return PadicNumber.zero(self.p, self.v + frac_val(other, self.p))
            w = frac_val(other, self.p)
            unit = other / Fraction(self.p) ** w
            m = self.p ** self.n
            u = self.u * (unit.numerator % m) * pow(unit.denominator, -1, m) % m
            return PadicNumber._make(self.p, self.v + w, u, self.n)
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        a = self
        if a.u == 0 or b.u == 0:
            # 0*x is 0 to the best provable absolute precision
            if a.u == 0 and b.u == 0:
                return PadicNumber.zero(a.p, a.v + b.v)
            z, x = (a, b) if a.u == 0 else (b, a)
            return PadicNumber.zero(a.p, z.v + x.v)
        n = min(a.n, b.n)
        return PadicNumber._make(a.p, a.v + b.v, a.u * b.u, n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise PadicError("division by zero")
            return self * (Fraction(1) / Fraction(other))
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        if b.u == 0:
            raise PadicError("division by zero")
        a = self
        if a.u == 0:
            return PadicNumber.zero(a.p, a.v - b.v)
        n = min(a.n, b.n)
        m = a.p ** n
        return PadicNumber._make(a.p, a.v - b.v, a.u * pow(b.u % m, -1, m), n)

    def __rtruediv__(self, other):
        b = self._coerce(other)
        return b / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return PadicNumber.from_int(self.p, 1, self.n if self.u else 64)
        if self.u == 0:
            if k < 0:
                raise PadicError("division by zero")
            return PadicNumber.zero(self.p, self.v * k)
        m = self.p ** self.n
        u = pow(self.u, k, m) if k > 0 else pow(pow(self.u, -1, m), -k, m)
        return PadicNumber._make(self.p, self.v * k, u, self.n)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        """Indistinguishable on the shared provable digits."""
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return (self - b).is_zero

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    # -- rounding / display ---------------------------------------------

    def truncate(self, n):
        """Drop to at most n significant digits."""
        if self.u == 0:
            return self
        if n >= self.n:
            return self
        return PadicNumber._make(self.p, self.v, self.u % self.p ** n, n)

    def cap_abs_prec(self, a):
        """Forget digits beyond absolute precision a."""
        if self.abs_prec <= a:
            return self
        if self.u == 0:
            return PadicNumber.zero(self.p, a)
        return PadicNumber._make(self.p, self.v, self.u, a - self.v)

    def lift(self):
        """Smallest nonnegative integer representative of p^v*u (v >= 0)."""
        if self.u == 0:
            return 0
        if self.v < 0:
            raise PadicError("negative valuation has no integer lift")
        return self.u * self.p ** self.v

    def digits(self):
        """Significant digits, least significant first."""
        out = []
        u = self.u
        for _ in range(self.n):
            u, r = divmod(u, self.p)
            out.append(r)
        return out

    def __repr__(self):
        if self.u == 0:
            if self.v == inf:
                return f"0 (exact, p={self.p})"
            return f"O({self.p}^{self.v})"
        ds = " ".join(str(d) for d in self.digits())
        return f"({ds})*{self.p}^{self.v} + O({self.p}^{self.abs_prec})"

    def to_json(self):
        if self.u == 0:
            return {
                "p": self.p,
                "zero": True,
                "abs_prec": None if self.v == inf else self.v,
            }
        return {
            "p": self.p,
            "v": self.v,
            "unit": str(self.u),
            "n": self.n,
            "digits": self.digits(),
        }


def ordp(x, p=None):
    """Normalized valuation; errors on zero input."""
    if isinstance(x, PadicNumber):
        return x.ord()
    return frac_val(x, p)


def teichmuller(p, a, n):
    """Teichmuller lift w(a): the (p-1)-st root of unity congruent to a mod p.

    Newton iteration on x^(p-1) - 1; the x -> x^p fixed-point iteration is
    kept in the test suite as an independent oracle.
    """
    check_prime(p)
    if n < 1:
        raise PadicError("need at least one significant digit")
    a %= p
    if a == 0:
        raise PadicError("Teichmuller lift of a non-unit")
    if p == 2:
        return PadicNumber.from_int(2, 1, n)
    m = p ** n
    x = a
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        mm = p ** prec
        fx = (pow(x, p - 1, mm) - 1) % mm
        dfx = (p - 1) * pow(x, p - 2, mm) % mm
        x = (x - fx * pow(dfx, -1, mm)) % mm
    assert pow(x, p, m) == x % m
    return PadicNumber.from_int(p, x % m, n)


def _log_one_plus(p, z, aprec):
    """log(1+z) mod p^aprec for an integer z with ord_p(z) big enough.

    Requires ord(z) >= 1 for odd p and ord(z) >= 2 for p = 2.
    """
    if z == 0:
        return 0
    m = int_val(z, p)
    if m < (2 if p == 2 else 1):
        raise PadicError("log series does not converge")
    # working modulus absorbs the divisions by k
    guard = 1
    while p ** guard <= aprec + 4 * guard:
        guard += 1
    work = aprec + guard
    mod = p ** work
    z %= mod
    total = 0
    k = 1
    zk = z % mod
    while k * m - guard < aprec:
        vk = int_val(k, p) if k % p == 0 else 0
        kk = k // p ** vk
        term = zk // p ** vk * pow(kk, -1, mod) % mod
        if k % 2 == 1:
            total = (total + term) % mod
        else:
            total = (total - term) % mod
        k += 1
        zk = zk * z % mod
    return total % p ** aprec


def iwasawa_log(x):
    """Branch of log with log(p) = 0 and log(w(a)) = 0.

    Kills the uniformizer and Teichmuller torsion, then sums the usual
    series on the 1-unit part.  The result is provable to the absolute
    precision n (the relative precision of x).
    """
    if not isinstance(x, PadicNumber):
        raise PadicError("iwasawa_log expects a PadicNumber")
    if x.u == 0:
        raise PadicError("log of zero")
    p, n, u = x.p, x.n, x.u
    if n < 1:
        raise PadicError("no significant digits")
    if p == 2:
        # odd u: u^2 is a 1-unit mod 8 and is known mod 2^(n+1), so the
        # halving in log u = log(u^2)/2 costs no provable digit.
        z = (pow(u, 2, 2 ** (n + 1)) - 1) % 2 ** (n + 1)
        val = _log_one_plus(2, z, n + 1)
        assert val % 2 == 0
        half = val // 2 % 2 ** n
        return PadicNumber._make(2, 0, half, n) if half else PadicNumber.zero(2, n)
    w = teichmuller(p, u % p, n).u
    m = p ** n
    z = (u * pow(w, -1, m) - 1) % m
    val = _log_one_plus(p, z, n)
    if val == 0:
        return PadicNumber.zero(p, n)
    return PadicNumber._make(p, 0, val, n)


def branch_log(x, y):
    """log_x(y) for the branch of log normalized by log_x(x) = 0.

    log_x(y) = log(y) - (ord(y)/ord(x)) * log(x); requires ord(x) != 0.
    """
    if not isinstance(x, PadicNumber) or not isinstance(y, PadicNumber):
        raise PadicError("branch_log expects PadicNumbers")
    vx = x.ord()
    if vx == 0:
        raise PadicError("not a branch direction")
    vy = y.ord()
    return iwasawa_log(y) - iwasawa_log(x) * Fraction(vy, vx)
