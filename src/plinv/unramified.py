"""Unramified extensions Q_{p^f} = Q_p[t]/(g), Frobenius, norm and trace.

Elements follow the precision model of padic.PadicElement, shared with
PadicNumber; only the unit differs: a coefficient vector modulo p^n on
the power basis 1, t, ..., t^(f-1).  Because the extension is unramified,
ord extends Z-valued: ord(x) is the minimum of the coefficient
valuations, so every nonzero element factors as p^v * (unit vector).
"""

from fractions import Fraction
from math import inf

from .padic import PadicElement, PadicError, PadicNumber, check_prime, factor, hensel, int_val


# -- polynomial helpers over Z/p^k ------------------------------------


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a, b, g, m):
    """a*b mod (g, m) for monic integer g; coefficient lists, low first."""
    f = len(g) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % m
    for k in range(len(prod) - 1, f - 1, -1):
        c = prod[k]
        if c == 0:
            continue
        prod[k] = 0
        for i in range(f):
            prod[k - f + i] = (prod[k - f + i] - c * g[i]) % m
    prod = prod[:f] + [0] * max(0, f - len(prod))
    return [x % m for x in prod]


def _poly_powmod(a, e, g, m):
    result = [1]
    base = list(a)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, g, m)
        base = _poly_mulmod(base, base, g, m)
        e >>= 1
    f = len(g) - 1
    return result[:f] + [0] * max(0, f - len(result))


def _poly_gcd_fp(a, b, p):
    a = [x % p for x in a]
    b = [x % p for x in b]
    _poly_trim(a)
    _poly_trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        b = [x * inv % p for x in b]
        while len(a) >= len(b):
            if a[-1]:
                c = a[-1]
                off = len(a) - len(b)
                for i in range(len(b)):
                    a[off + i] = (a[off + i] - c * b[i]) % p
            _poly_trim(a)
            if not a:
                break
            if len(a) < len(b):
                break
        a, b = b, a
    return a


def is_irreducible_mod_p(g, p):
    """Rabin test: g monic of degree f irreducible over F_p."""
    f = len(g) - 1
    if f < 1:
        return False
    x = [0, 1]
    xq = _poly_powmod(x, p ** f, g, p)
    diff = [(xq[i] - x[i] if i < len(x) else xq[i]) % p for i in range(len(xq))]
    if any(diff):
        return False
    for ell in factor(f):
        xq = _poly_powmod(x, p ** (f // ell), g, p)
        diff = [(xq[i] - (x[i] if i < len(x) else 0)) % p for i in range(len(xq))]
        h = _poly_gcd_fp(diff, g, p)
        if len(h) - 1 > 0:
            return False
    return True


def default_modulus(p, f):
    """Smallest monic degree-f polynomial irreducible mod p.

    Candidates t^f + a_{f-1} t^{f-1} + ... + a_0 are ordered by the value
    of the base-p digit string a_{f-1}...a_1 a_0, so runs are reproducible.
    """
    check_prime(p)
    if f == 1:
        return (0, 1)  # t itself: Q_p, for uniformity
    for code in range(p ** f):
        digits = []
        c = code
        for _ in range(f):
            digits.append(c % p)
            c //= p
        # digits[0] = a_0, ..., digits[f-1] = a_{f-1}
        g = digits + [1]
        if is_irreducible_mod_p(g, p):
            return tuple(g)
    raise PadicError("no irreducible polynomial found")  # unreachable


class UnramifiedContext:
    """The field Q_{p^f} presented by a monic integer polynomial g,
    irreducible mod p (checked at construction)."""

    def __init__(self, p, f, modulus=None):
        check_prime(p)
        if f < 1:
            raise PadicError("degree must be positive")
        self.p = p
        self.f = f
        if modulus is None:
            modulus = default_modulus(p, f)
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != f + 1 or modulus[-1] != 1:
            raise PadicError("modulus must be monic of degree f")
        if f > 1 and not is_irreducible_mod_p(list(modulus), p):
            raise PadicError("modulus is reducible mod p")
        self.modulus = modulus
        self._frob_cache = {}

    def __repr__(self):
        return f"Q_{self.p}^{self.f} mod {list(self.modulus)}"

    def to_json(self):
        return {"p": self.p, "f": self.f, "modulus": list(self.modulus)}

    def one(self, n):
        return UnramifiedElement(self, 0, (1,) + (0,) * (self.f - 1), n)

    def from_vector(self, coeffs, n):
        """Element with exact rational coefficients, to n digits."""
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > self.f:
            raise PadicError("too many coefficients")
        coeffs += [Fraction(0)] * (self.f - len(coeffs))
        if all(c == 0 for c in coeffs):
            return UnramifiedElement(self, inf, (0,) * self.f, 0)
        v = min(
            int_val(c.numerator, self.p) - int_val(c.denominator, self.p)
            for c in coeffs
            if c != 0
        )
        m = self.p ** n
        pv = Fraction(self.p) ** v
        unit = []
        for c in coeffs:
            c = c / pv
            unit.append(c.numerator % m * pow(c.denominator, -1, m) % m)
        return UnramifiedElement(self, v, tuple(unit), n)

    def frobenius_root(self, n):
        """The root of the modulus congruent to t^p mod p, to n digits:
        Newton on g from t^p over F_p."""
        if n in self._frob_cache:
            return self._frob_cache[n]
        p, g = self.p, list(self.modulus)
        dg = [i * g[i] for i in range(1, len(g))]

        def step(y, k, m):
            inv = self._inv_unit_vector(self._eval_poly(dg, y, m), k)
            corr = _poly_mulmod(self._eval_poly(g, y, m), inv, g, m)
            return [(a - b) % m for a, b in zip(y, corr)]

        y = hensel(step, _poly_powmod([0, 1], p, g, p), p, n)
        assert all(c % p ** n == 0 for c in self._eval_poly(g, y, p ** n))
        self._frob_cache[n] = y
        return y

    def _eval_poly(self, poly, x, m):
        """poly(x) in Z[t]/(modulus, m) by Horner."""
        g = list(self.modulus)
        acc = [0] * self.f
        for c in reversed(poly):
            acc = _poly_mulmod(acc, x, g, m)
            acc[0] = (acc[0] + c) % m
        return acc

    def _inv_unit_vector(self, vec, n):
        """Inverse of a unit coefficient vector mod (modulus, p^n): the
        inverse in the residue field, lifted by Newton on 1/x."""
        p, g = self.p, list(self.modulus)

        def step(inv, _, m):
            t = [-c % m for c in _poly_mulmod(vec, inv, g, m)]
            t[0] = (t[0] + 2) % m
            return _poly_mulmod(inv, t, g, m)

        return hensel(step, self._invert_mod_p(vec), p, n)

    def _invert_mod_p(self, vec):
        """Inverse of a vector in the field F_p[t]/(modulus), by Fermat:
        vec^(p^f - 2)."""
        p = self.p
        if not any(c % p for c in vec):
            raise PadicError("vector is not a unit")
        return _poly_powmod(vec, p ** self.f - 2, list(self.modulus), p)


class UnramifiedElement(PadicElement):
    """p^v * (unit coefficient vector mod p^n) in Q_{p^f}."""

    __slots__ = ("ctx", "v", "coeffs", "n")

    def __init__(self, ctx, v, coeffs, n):
        self.ctx = ctx
        self.v = v
        self.coeffs = tuple(coeffs)
        self.n = n

    @property
    def p(self):
        return self.ctx.p

    # -- unit arithmetic ----------------------------------------------

    def _coords(self):
        return self.coeffs

    def _with(self, v, coords, n):
        return UnramifiedElement(self.ctx, v, coords, n)

    def _lift(self, other):
        if isinstance(other, UnramifiedElement):
            if other.ctx is not self.ctx and other.ctx.to_json() != self.ctx.to_json():
                raise PadicError("mixed contexts")
            return other
        if isinstance(other, PadicNumber):
            if other.p != self.p:
                raise PadicError("mixed primes")
            return self._with(other.v, (other.u,) + (0,) * (self.ctx.f - 1), other.n)
        return None

    def _exact(self, x, n):
        return self.ctx.from_vector([x], n)

    def _mul_units(self, a, b, m):
        return _poly_mulmod(a, b, self.ctx.modulus, m)

    def _inv_unit(self, n):
        return self.ctx._inv_unit_vector(self.coeffs, n)

    def _pow_unit(self, k, m):
        return _poly_powmod(self.coeffs, k, self.ctx.modulus, m)

    # -- Galois structure -----------------------------------------------

    def frobenius(self):
        """The lift of x -> x^p fixing Q_p; phi^f = id."""
        if self.is_zero:
            return self
        ctx = self.ctx
        if ctx.f == 1:
            return self
        y = ctx.frobenius_root(self.n)
        m = ctx.p ** self.n
        img = ctx._eval_poly(list(self.coeffs), y, m)
        return self._make(self.v, img, self.n)

    def norm(self, subfield_degree=1):
        """prod of phi^(d*i)(x) over i < f/d: the norm to Q_{p^d}."""
        d = subfield_degree
        if self.ctx.f % d:
            raise PadicError("not a subfield degree")
        steps = self.ctx.f // d
        if self.is_zero:
            return self._zero(self.v * steps)
        acc = self.ctx.one(self.n)
        cur = self
        for _ in range(steps):
            acc = acc * cur
            for _ in range(d):
                cur = cur.frobenius()
        return acc

    def trace(self, subfield_degree=1):
        d = subfield_degree
        if self.ctx.f % d:
            raise PadicError("not a subfield degree")
        steps = self.ctx.f // d
        acc = self._zero(self.abs_prec)
        cur = self
        for _ in range(steps):
            acc = acc + cur
            for _ in range(d):
                cur = cur.frobenius()
        return acc

    def as_padic(self, slack=1):
        """Coerce a base-field element to a PadicNumber.

        Coefficients 1..f-1 must vanish to precision (up to `slack`
        trailing digits of computational noise, which are reported as
        lost precision).
        """
        ctx = self.ctx
        if self.is_zero:
            return PadicNumber.zero(ctx.p, self.v)
        noise = 0
        for c in self.coeffs[1:]:
            if c:
                w = int_val(c, ctx.p)
                if self.n - w > slack:
                    raise PadicError("element does not lie in Q_p")
                noise = max(noise, self.n - w)
        return PadicNumber(ctx.p, self.v, self.coeffs[0], self.n).truncate(self.n - noise)

    def teichmuller_part(self):
        """omega(x mod p): the (p^f - 1)-st root of unity congruent to
        the reduction of the unit part."""
        if self.is_zero:
            raise PadicError("Teichmuller lift of zero")
        ctx, n = self.ctx, self.n
        p, g = ctx.p, list(ctx.modulus)
        q = p ** ctx.f - 1

        def step(y, _, m):
            # Newton on y^q - 1, dividing by q y^-1 for the derivative
            # q y^(q-1): the two agree to the half precision a step needs
            e = _poly_powmod(y, q, g, m)
            e[0] -= 1
            c = pow(q, -1, m)
            return [(a - c * b) % m for a, b in zip(y, _poly_mulmod(y, e, g, m))]

        return self._make(0, hensel(step, [c % p for c in self.coeffs], p, n), n)

    def log(self):
        """Iwasawa branch: log(p) = 0, Teichmuller part killed."""
        return self._log(UnramifiedElement.teichmuller_part)

    def __repr__(self):
        if self.is_zero:
            return f"O({self.ctx.p}^{self.v}) in {self.ctx!r}"
        return f"{self.ctx.p}^{self.v}*{list(self.coeffs)} + O(^{self.abs_prec})"

    def to_json(self):
        return {
            "ctx": self.ctx.to_json(),
            "zero": self.is_zero,
            "v": None if self.v == inf else self.v,
            "coeffs": [str(c) for c in self.coeffs],
            "n": self.n,
        }


def norm_trace(x):
    """Full norm and trace down to Q_p, as PadicNumbers."""
    if isinstance(x, PadicNumber):
        return x, x
    n = x.norm().as_padic()
    t = x.trace().as_padic()
    return n, t


class ExactUnramified:
    """Element of Q_{p^f} with exact rational coefficients.

    Period bases are stored this way so they can be re-evaluated at any
    precision.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > ctx.f:
            raise PadicError("too many coefficients")
        coeffs += [Fraction(0)] * (ctx.f - len(coeffs))
        if all(c == 0 for c in coeffs):
            raise PadicError("zero is not a field element")
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    def ord(self):
        p = self.ctx.p
        return min(
            int_val(c.numerator, p) - int_val(c.denominator, p)
            for c in self.coeffs
            if c != 0
        )

    def to_padic(self, n):
        return self.ctx.from_vector(self.coeffs, n)

    def __eq__(self, other):
        return (
            isinstance(other, ExactUnramified)
            and self.ctx.to_json() == other.ctx.to_json()
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.f, self.ctx.modulus, self.coeffs))

    def __repr__(self):
        return f"Exact{list(map(str, self.coeffs))} in {self.ctx!r}"

    def to_json(self):
        return {"ctx": self.ctx.to_json(), "coeffs": [str(c) for c in self.coeffs]}
