"""Output checks for benchmark commands.

Every report is validated against its JSON schema from the package's
`schemas` directory, then against exact oracles that do not call plinv:
the genus of X_0(N) and |P^1(Z/N)| for `modsym dump`, the exceptional
zero for split `check-ezc` and `lp`, the twist identities, projection
compatibility for `stickelberger`, and digit prefixes across precisions
for `li-curve`.
"""

import json
from math import gcd, prod
from pathlib import Path

from jsonschema import Draft7Validator
from referencing import Registry, Resource

SCHEMAS = {
    "li-period": "li_period.json",
    "li-curve": "li_curve.json",
    "check-ezc": "check_ezc.json",
    "check-twist": "check_twist.json",
    "stickelberger": "stickelberger.json",
    "lp": "lp.json",
    "modsym": "modsym_dump.json",
}


def _prime_factors(n):
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + ([n] if n > 1 else [])


def _kronecker(d, p):
    """(d/p) for d in {-3, -4} and a prime p."""
    if d % p == 0:
        return 0
    if p == 2:
        return -1 if d % 8 == 5 else 1
    return 1 if pow(d % p, (p - 1) // 2, p) == 1 else -1


def p1_size(n):
    """|P^1(Z/N)| = N prod_{p | N} (1 + 1/p)."""
    out = n
    for p in _prime_factors(n):
        out = out // p * (p + 1)
    return out


def genus_x0(n):
    """Genus of X_0(N) from the index, elliptic points and cusps."""
    primes = _prime_factors(n)
    nu2 = 0 if n % 4 == 0 else prod(1 + _kronecker(-4, p) for p in primes)
    nu3 = 0 if n % 9 == 0 else prod(1 + _kronecker(-3, p) for p in primes)
    cusps = sum(_phi(gcd(d, n // d)) for d in range(1, n + 1) if n % d == 0)
    twelve_g = 12 + p1_size(n) - 3 * nu2 - 4 * nu3 - 6 * cusps
    assert twelve_g % 12 == 0
    return twelve_g // 12


def _phi(n):
    out = n
    for p in _prime_factors(n):
        out = out // p * (p - 1)
    return out


def _opt(argv, *flags):
    for flag in flags:
        if flag in argv:
            return argv[argv.index(flag) + 1]
    return None


class Checker:
    """Checks one run's outputs; keeps li-curve digits across precisions."""

    def __init__(self, schema_dir):
        schema_dir = Path(schema_dir)
        common = Resource.from_contents(json.loads((schema_dir / "common.json").read_text()))
        registry = Registry().with_resource("plinv/common.json", common)
        self.validators = {
            command: Draft7Validator(json.loads((schema_dir / name).read_text()),
                                     registry=registry)
            for command, name in SCHEMAS.items()
        }
        self._tate = {}  # (label, p) -> {prec: (tate_period, li)}

    def check(self, argv, returncode, stdout):
        """None if the output is correct, else the reason it is not."""
        if returncode != 0:
            return f"exit code {returncode}"
        try:
            out = json.loads(stdout)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        command = next(a for a in argv if not a.startswith("-"))
        errors = sorted(e.message for e in self.validators[command].iter_errors(out))
        if errors:
            return f"schema: {errors[0]}"
        return getattr(self, "_" + command.replace("-", "_"))(argv, out)

    def _modsym(self, argv, out):
        n = int(_opt(argv, "--level"))
        if out["p1_size"] != p1_size(n):
            return f"p1_size {out['p1_size']} != mu({n}) = {p1_size(n)}"
        if out["cuspidal_dimension"] != genus_x0(n):
            return f"cuspidal_dimension {out['cuspidal_dimension']} != genus {genus_x0(n)}"
        return None

    @staticmethod
    def _exceptional_zero(report, depth):
        if report["Lp0_is_zero"] is not True:
            return "L_p(0) is not zero at a split prime"
        if report["agreement_digits"] < depth:
            return f"agreement_digits {report['agreement_digits']} < depth {depth}"
        return None

    def _check_ezc(self, argv, out):
        return self._exceptional_zero(out, int(_opt(argv, "--depth")))

    def _lp(self, argv, out):
        if "exceptional_zero" not in out:
            return "no exceptional_zero block at a split prime"
        return self._exceptional_zero(out["exceptional_zero"], int(_opt(argv, "--depth")))

    def _check_twist(self, argv, out):
        flag = {"5": "product_vanishing_order_at_least_2", "-4": "factor_two_exact"}
        key = flag[_opt(argv, "-D")]
        return None if out.get(key) is True else f"{key} is not true"

    def _stickelberger(self, argv, out):
        if out.get("projection_compatible") is not True:
            return "projection_compatible is not true"
        return None

    def _li_period(self, argv, out):
        return None

    def _li_curve(self, argv, out):
        """Digits at a lower precision must be a prefix of those at a higher one."""
        if out["reduction"]["kind"] != "split-multiplicative":
            return f"reduction {out['reduction']['kind']} at a split pair"
        seen = self._tate.setdefault((_opt(argv, "--label"), _opt(argv, "-p")), {})
        prec = int(_opt(argv, "--prec"))
        mine = (out["tate_period"], out["li"])
        for other, theirs in seen.items():
            lo, hi = (mine, theirs) if prec < other else (theirs, mine)
            for key, a, b in zip(("tate_period", "li"), lo, hi):
                short, long = a.get("digits", []), b.get("digits", [])
                if a.get("v") != b.get("v") or long[:len(short)] != short:
                    return f"{key} digits at prec {prec} disagree with prec {other}"
        seen[prec] = mine
        return None
