"""Fixed-precision arithmetic in Q_p, and the precision model that Q_p and
its unramified extensions share.

One model serves both fields (`PadicElement`).  A nonzero element is stored
as p^v * u with u a unit known modulo p^n; n is the number of significant
(relative) p-adic digits, so the value is pinned down modulo p^(v+n), its
absolute precision.  A "zero" element carries no unit: it only records that
the value is congruent to 0 modulo p^A for some absolute precision A
(A = +infinity for an exact zero).  Every operation propagates precision
pessimistically, so every reported digit is provable:

  * x + y is known to min(abs_prec(x), abs_prec(y));
  * x * y and x / y keep min(n_x, n_y) significant digits;
  * x ** k keeps n_x significant digits;
  * agreement(x, y) is the absolute precision to which x and y provably
    agree: abs_prec(x - y) when the difference is zero to precision,
    else its valuation.

An exact scalar (int or Fraction) has as many digits as anyone asks for, so
it takes the precision of the element x it meets: in x * c and x / c the
relative precision n of x, in x + c, x - c and x == c the absolute precision
of x (at least one significant digit either way).  Exact 0 stays exact,
and so do 0 * c and 0 / c for an exact zero.  Precision is never capped:
an exact scalar that meets an exact zero in +, - or ==, and zero ** 0,
raise PadicError instead of inventing digits.
"""

from fractions import Fraction
from math import gcd, inf, isqrt

from . import DomainError, _is_probable_prime, check_prime


class PadicError(DomainError):
    pass


def int_val(n, p):
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise PadicError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def factor(n):
    """{prime: exponent} of an integer n >= 1, primes ascending.

    Trial division by the integers below 1000, then Pollard-Brent rho
    splits what is left.  Each cofactor is tested by `_is_probable_prime`:
    the primes reported are proven below 3.3e24 and probable above."""
    if n < 1:
        raise PadicError(f"cannot factor {n}")
    out = {}
    q = 2
    while q < 1000 and q * q <= n:
        if n % q == 0:
            out[q] = int_val(n, q)
            n //= q ** out[q]
        q += 1 if q == 2 else 2
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            rest += [d, m // d]
    return dict(sorted(out.items()))


def _rho_divisor(n):
    """A proper divisor of an odd composite n, by Brent's cycle finding on
    x -> x^2 + c with the gcds batched 128 at a time; c = 1, 2, ... until a
    walk splits n."""
    c = 0
    while True:
        c += 1
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = gcd(prod, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: replay it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def decimal(n):
    """str(n) for an int n >= 0 of any size.  Python refuses to convert an
    int longer than sys.get_int_max_str_digits() (4300 digits by default,
    at least 640), so a long one is split at a power of 10 first."""
    if n.bit_length() <= 2000:  # at most 603 digits
        return str(n)
    k = n.bit_length() * 3 // 20  # about half its digits
    hi, lo = divmod(n, 10 ** k)
    return decimal(hi) + decimal(lo).zfill(k)


def frac_val(x, p):
    """p-adic valuation of a nonzero Fraction or int."""
    x = Fraction(x)
    if x == 0:
        raise PadicError("valuation of zero")
    return int_val(x.numerator, p) - int_val(x.denominator, p)


class PadicElement:
    """The precision bookkeeping of an element p^v * unit of Q_p or Q_{p^f}.

    A subclass stores v, n and the unit in its own slots and supplies the
    unit arithmetic:

      _coords()             the unit's integer coordinates (zeros for zero)
      _with(v, coords, n)   an element of the same field, not normalized
      _lift(other)          a non-scalar operand in this field, or None
      _exact(x, n)          the exact Fraction x to n significant digits
      _mul_units(a, b, m)   the product of two coordinate vectors mod m
      _inv_unit(n)          the inverse of the unit mod p^n
      _pow_unit(k, m)       the unit to the k-th power mod m
    """

    __slots__ = ()

    # -- normal form ----------------------------------------------------

    def _make(self, v, coords, n):
        """Normalize a candidate p^v * (coords mod p^n)."""
        if n <= 0:
            return self._zero(v + n)
        p = self.p
        m = p ** n
        coords = [c % m for c in coords]
        if not any(coords):
            return self._zero(v + n)
        t = min(int_val(c, p) for c in coords if c)
        if t:
            coords = [c // p ** t for c in coords]
        return self._with(v + t, coords, n - t)

    def _zero(self, abs_prec):
        return self._with(abs_prec, [0] * len(self._coords()), 0)

    # -- predicates / accessors ---------------------------------------

    @property
    def is_zero(self):
        """True when no nonzero digit is known (value ≡ 0 to precision)."""
        return not any(self._coords())

    @property
    def is_exact_zero(self):
        return self.is_zero and self.v == inf

    @property
    def abs_prec(self):
        """Value is pinned down modulo p**abs_prec."""
        return self.v if self.is_zero else self.v + self.n

    def ord(self):
        if self.is_zero:
            raise PadicError("valuation of zero")
        return self.v

    def agreement(self, other):
        """The absolute precision to which self and other provably agree."""
        d = self - other
        return d.abs_prec if d.is_zero else d.v

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other, relative=False):
        # relative: x * c and x / c (see the module docstring)
        if not isinstance(other, (int, Fraction)):
            return self._lift(other)
        if other == 0:
            return self._zero(inf)
        if relative and (self.v == inf or not self.is_zero):
            # an exact zero times or over c is exactly 0: any precision will do
            return self._exact(Fraction(other), max(self.n, 1))
        if self.v == inf:
            raise PadicError("an exact scalar meets an exact zero: no precision to give it")
        return self._exact(Fraction(other), max(self.abs_prec - frac_val(other, self.p), 1))

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        prec = min(self.abs_prec, b.abs_prec)
        terms = [x for x in (self, b) if not x.is_zero]
        v0 = min((x.v for x in terms), default=prec)
        if v0 >= prec:
            return self._zero(prec)
        total = [0] * len(self._coords())
        for x in terms:
            shift = self.p ** (x.v - v0)
            total = [t + c * shift for t, c in zip(total, x._coords())]
        return self._make(v0, total, prec - v0)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        m = self.p ** self.n
        return self._with(self.v, [-c % m for c in self._coords()], self.n)

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self + (-b)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        b = self._coerce(other, relative=True)
        if b is None:
            return NotImplemented
        if self.is_zero or b.is_zero:
            # 0*x is 0 to the best provable absolute precision
            return self._zero(self.v + b.v)
        n = min(self.n, b.n)
        return self._make(self.v + b.v, self._mul_units(self._coords(), b._coords(), self.p ** n), n)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise PadicError("division by zero")
        return self._make(-self.v, self._inv_unit(self.n), self.n)

    def __truediv__(self, other):
        b = self._coerce(other, relative=True)
        if b is None:
            return NotImplemented
        return self * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** -k
        if self.is_zero:
            if k == 0:
                raise PadicError("zero ** 0 has no precision")
            return self._zero(self.v * k)
        return self._make(self.v * k, self._pow_unit(k, self.p ** self.n), self.n)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        """Indistinguishable on the shared provable digits."""
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return (self - b).is_zero

    # -- rounding ------------------------------------------------------

    def cap_abs_prec(self, a):
        """Forget digits beyond absolute precision a."""
        if self.abs_prec <= a:
            return self
        if self.is_zero:
            return self._zero(a)
        return self._make(self.v, self._coords(), a - self.v)

    # -- Teichmuller lift and logarithm -------------------------------

    def teichmuller(self):
        """omega(x): the (p^f - 1)-st root of unity congruent to the unit
        mod p, to n digits.  Newton on y^q - 1, q = p^f - 1, dividing by
        q y^-1 for the derivative q y^(q-1): the two agree to the half
        precision a step needs.  At q = 1 (Q_2) the step gives 1."""
        if self.is_zero:
            raise PadicError("Teichmuller lift of zero")
        p, n = self.p, self.n
        q = p ** len(self._coords()) - 1

        def step(y, _, m):
            e = list(self._with(0, y, n)._pow_unit(q, m))
            e[0] -= 1
            c = pow(q, -1, m)
            return [(a - c * b) % m for a, b in zip(y, self._mul_units(y, e, m))]

        w = self._make(0, hensel(step, [c % p for c in self._coords()], p, n), n)
        assert w ** (q + 1) == w
        return w

    def _log(self):
        """Iwasawa log: log(p) = 0 and log kills every root of unity, so
        log(u) = log(u^e)/e for the unit u and e = (p^f - 1) p^k, with f
        coordinates and k = isqrt(n).  z = u^e - 1 has valuation at least
        k + 1, and the power p^k makes it known mod p^(n+k): the series
        log(1 + z) needs about sqrt(n) terms, and dividing by e costs just
        the k digits that the power gained.  The result is provable to
        absolute precision n, for every p and f."""
        if self.is_zero:
            raise PadicError("log of zero")
        p, n, k = self.p, self.n, isqrt(self.n)
        q, aprec = p ** len(self._coords()) - 1, n + k
        z = list(self._pow_unit(q * p ** k, p ** aprec))
        z[0] -= 1
        if not any(z):
            return self._zero(n)
        m = min(int_val(c, p) for c in z if c)
        # working modulus absorbs the divisions by j
        guard = 1
        while p ** guard <= aprec + 4 * guard:
            guard += 1
        mod = p ** (aprec + guard)
        total, zj, j = [0] * len(z), z, 1
        while j * m - guard < aprec:
            vj = int_val(j, p)
            inv = pow(j // p ** vj, -1, mod) * (-1) ** (j + 1)
            total = [(t + x // p ** vj * inv) % mod for t, x in zip(total, zj)]
            j += 1
            zj = self._mul_units(zj, z, mod)
        # total = e log(u) mod p^aprec, so p^k divides it exactly
        inv = pow(q, -1, p ** n)
        return self._make(0, [t // p ** k * inv for t in total], n)


class PadicNumber(PadicElement):
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

    # -- unit arithmetic ----------------------------------------------

    def _coords(self):
        return (self.u,)

    def _with(self, v, coords, n):
        return PadicNumber(self.p, v, coords[0], n)

    def _lift(self, other):
        if not isinstance(other, PadicNumber):
            return None
        if other.p != self.p:
            raise PadicError("mixed primes")
        return other

    def _exact(self, x, n):
        return PadicNumber.from_fraction(self.p, x, n)

    @staticmethod
    def _mul_units(a, b, m):
        return (a[0] * b[0] % m,)

    def _inv_unit(self, n):
        return (pow(self.u, -1, self.p ** n),)

    def _pow_unit(self, k, m):
        return (pow(self.u, k, m),)

    def log(self):
        return iwasawa_log(self)

    # -- accessors / display --------------------------------------------

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
            "unit": decimal(self.u),
            "n": self.n,
            "digits": self.digits(),
        }


def ordp(x, p=None):
    """Normalized valuation: x.ord() for anything that has one (a field
    element, an exact element of Q_{p^f}), else that of a nonzero int or
    Fraction at p; errors on zero input."""
    if hasattr(x, "ord"):
        return x.ord()
    return frac_val(x, p)


def hensel(step, x, p, n):
    """Lift x, a simple root mod p, to the root mod p^n by Newton's method.

    step(x, k, m) is one Newton step mod m = p^k: given the root mod
    p^ceil(k/2) it returns the root mod p^k, so each call doubles the
    digits known.
    """
    k = 1
    while k < n:
        k = min(2 * k, n)
        x = step(x, k, p ** k)
    return x


def teichmuller(p, a, n):
    """Teichmuller lift w(a): the (p-1)-st root of unity congruent to a mod p
    (`PadicElement.teichmuller`).  The x -> x^p fixed-point iteration is
    kept in the test suite as an independent oracle."""
    check_prime(p)
    if n < 1:
        raise PadicError("need at least one significant digit")
    if a % p == 0:
        raise PadicError("Teichmuller lift of a non-unit")
    return PadicNumber(p, 0, a % p, n).teichmuller()


def iwasawa_log(x):
    """Branch of log with log(p) = 0 and log(w(a)) = 0 (`_log`), provable
    to the absolute precision n (the relative precision of x)."""
    if not isinstance(x, PadicNumber):
        raise PadicError("iwasawa_log expects a PadicNumber")
    return x._log()


def branch_logs(x, ys):
    """[log_x(y) for y in ys], with log(x) computed once: log_x is the
    branch of log normalized by log_x(x) = 0, for x and every y in one
    field (Q_p or Q_{p^f}).

    log_x(y) = log(y) - (ord(y)/ord(x)) * log(x); requires ord(x) != 0.
    """
    if not all(isinstance(z, PadicElement) for z in (x, *ys)):
        raise PadicError("branch_logs expects p-adic field elements")
    if x.ord() == 0:
        raise PadicError("not a branch direction")
    log_x = x.log()
    return [y.log() - log_x * Fraction(y.ord(), x.ord()) for y in ys]
