"""Command-line interface.

Exit codes: 0 success, 2 domain errors (not a period, no Tate period,
unknown label, ...), 3 parse/usage errors, 4 cache corruption.

Each command imports the modules it runs when it runs, and only a cached
run loads `cache`, so `--no-cache modsym dump` loads modsym and linalg
alone: no p-adic code, `fractions` or `fcntl`.  Reports are written out
piece by piece as they are formatted, in either --format.
"""

import argparse
import json
import sys
from collections import Counter
from functools import lru_cache
from itertools import chain

from . import CacheError, DomainError, Quoted, UsageError, __version__, check_prime


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- argument plumbing ----------------------------------------------------


def _prime(text):
    try:
        return check_prime(int(text))
    except ValueError as exc:  # DomainError is one
        raise UsageError(f"-p wants a prime: {exc}") from exc


def _precision(text):
    n = int(text)
    if n < 5:
        raise UsageError("--prec must be at least 5")
    return n


def _depth(text):
    n = int(text)
    if not 1 <= n <= 4:
        raise UsageError("--depth must be between 1 and 4")
    return n


def _sign(text):
    if text in ("+", "+1", "1"):
        return 1
    if text in ("-", "-1"):
        return -1
    raise UsageError("--sign must be + or -")


def _user_table_path(cache):
    import os

    if cache is None:
        return None
    return os.path.join(cache.directory, "user_curves.tsv")


def _resolve_curve(args, cache=None):
    from .curves import curve_by_label, curve_from_ainvs

    if getattr(args, "label", None):
        return curve_by_label(args.label, _user_table_path(cache))
    if getattr(args, "curve", None):
        parts = args.curve.split(",")
        if len(parts) != 5:
            raise UsageError("--curve wants a1,a2,a3,a4,a6")
        try:
            ainvs = [int(x) for x in parts]
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        return curve_from_ainvs(ainvs)
    raise UsageError("provide --label or --curve")


def _add_curve_args(sub):
    sub.add_argument("--label", help="curve label from the bundled table")
    sub.add_argument("--curve", help="a1,a2,a3,a4,a6 (integral model)")


def build_parser():
    ap = _Parser(prog="plinv", description=__doc__)
    ap.add_argument("--cache-dir", default=None, help="override the cache directory")
    ap.add_argument("--no-cache", action="store_true", help="disable the disk cache")
    ap.add_argument("--no-meta", action="store_true", help="suppress the timestamp block")
    ap.add_argument("--format", choices=("json", "table"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("li-period", help="L-invariant of a period literal")
    s.add_argument("literal")
    s.add_argument("-p", type=_prime, required=True)
    s.add_argument("--branch", default="p", help="p | cyc | a rational literal with ord != 0")
    s.add_argument("--prec", type=_precision, default=20)

    s = sub.add_parser("li-curve", help="Tate period and its L-invariant")
    _add_curve_args(s)
    s.add_argument("-p", type=_prime, required=True)
    s.add_argument("--prec", type=_precision, default=20)

    s = sub.add_parser("check-ezc", help="exceptional-zero comparison")
    _add_curve_args(s)
    s.add_argument("-p", type=_prime, required=True)
    s.add_argument("--depth", type=_depth, default=3)
    s.add_argument("--prec", type=_precision, default=20)
    s.add_argument("--dual", action="store_true")

    s = sub.add_parser("check-twist", help="quadratic-twist product bookkeeping")
    _add_curve_args(s)
    s.add_argument("-D", type=int, required=True, dest="disc")
    s.add_argument("-p", type=_prime, required=True)
    s.add_argument("--depth", type=_depth, default=3)
    s.add_argument("--prec", type=_precision, default=20)

    s = sub.add_parser("stickelberger", help="Stickelberger element at depth n")
    _add_curve_args(s)
    s.add_argument("-p", type=_prime, required=True)
    s.add_argument("-n", "--depth", type=_depth, default=2)
    s.add_argument("--prec", type=_precision, default=20)
    s.add_argument("--dual", action="store_true")

    s = sub.add_parser("lp", help="p-adic L-value and derivative data")
    _add_curve_args(s)
    s.add_argument("-p", type=_prime, required=True)
    s.add_argument("--depth", type=_depth, default=3)
    s.add_argument("--prec", type=_precision, default=20)
    s.add_argument("--table", action="store_true", help="include the measure table")
    s.add_argument("--dual", action="store_true")

    s = sub.add_parser("import-curve", help="validate and register a table row")
    s.add_argument("--row", required=True,
                   help='"label a1,a2,a3,a4,a6"; derived data is recomputed')

    s = sub.add_parser("modsym", help="modular symbol spaces")
    s2 = s.add_subparsers(dest="modsym_command", required=True)
    d = s2.add_parser("dump", help="presentation and Hecke matrices")
    d.add_argument("--level", type=int, required=True)
    d.add_argument("--sign", type=_sign, default=1)
    d.add_argument("--hecke", default="2,3", help="comma-separated primes")

    return ap


# -- command handlers -------------------------------------------------------


def cmd_li_period(args, cache):
    from .periods import li, parse_branch, parse_period_literal

    period = parse_period_literal(args.literal, args.p)
    branch = parse_branch(args.branch, args.p)
    value = li(period, branch=branch, prec=args.prec)
    return {
        "command": "li-period",
        "p": args.p,
        "period": period.to_json(),
        "branch": args.branch,
        "prec": args.prec,
        "li": value.to_json(),
    }


def cmd_li_curve(args, cache):
    from .curves import reduction_type, tate_period
    from .periods import li

    curve = _resolve_curve(args, cache)
    red = reduction_type(curve, args.p)
    tp = tate_period(curve, args.p, args.prec)
    value = li(tp.period, "iwasawa", prec=args.prec)
    return {
        "command": "li-curve",
        "curve": curve.to_json(),
        "reduction": red.to_json(),
        "tate_period": tp.q.to_json(),
        "li": value.to_json(),
        "prec": args.prec,
    }


def cmd_check_ezc(args, cache):
    from .measures import exceptional_zero_check

    curve = _resolve_curve(args, cache)
    rep = exceptional_zero_check(curve, args.p, args.depth, args.prec,
                                 dual=args.dual, cache=cache)
    return {"command": "check-ezc", **rep.to_json()}


def cmd_check_twist(args, cache):
    from .measures import twist_product_check

    curve = _resolve_curve(args, cache)
    rep = twist_product_check(curve, args.disc, args.p, args.depth, args.prec,
                              cache=cache)
    return {"command": "check-twist", **rep.to_json()}


def _symbol_and_measure(args, cache):
    from .measures import build_measure
    from .modsym import eigen_symbol

    curve = _resolve_curve(args, cache)
    symbol = eigen_symbol(curve, cache=cache)
    measure = build_measure(symbol, args.p, args.depth, prec=args.prec)
    return curve, symbol, measure


def cmd_stickelberger(args, cache):
    from .measures import build_measure, stickelberger

    curve, symbol, measure = _symbol_and_measure(args, cache)
    theta = stickelberger(measure, dual=args.dual)
    out = {
        "command": "stickelberger",
        "curve": curve.to_json(),
        "p": args.p,
        "depth": args.depth,
        "theta": theta.to_json(element=True),
    }
    if args.depth >= 2:
        coarser = build_measure(symbol, args.p, args.depth - 1, prec=args.prec)
        out["projection_compatible"] = (stickelberger(coarser, dual=args.dual).rows
                                        == theta.pushforward().rows)
    return out


def cmd_lp(args, cache):
    from .curves import SPLIT, reduction_type
    from .measures import _encode, ezc_report, lp_value_and_derivative, stickelberger

    curve, symbol, measure = _symbol_and_measure(args, cache)
    theta = stickelberger(measure, args.dual)
    split = reduction_type(curve, args.p).kind == SPLIT
    rep = ezc_report(curve, theta, args.prec) if split else None
    l0, l1 = (rep.lp0, rep.derivative) if split else lp_value_and_derivative(theta, args.prec)
    out = {
        "command": "lp",
        "curve": curve.to_json(),
        "p": args.p,
        "depth": args.depth,
        "prec": args.prec,
        "Lp0": _encode(l0),
        "Lp0_is_zero": l0 == 0,
        "Lp_derivative": l1.to_json(),
        "augmentation": _encode(l0),
        "unit_root": measure.root.to_json(),
        "value_at_zero": str(symbol.at_zero),
    }
    if args.table:
        out["measure"] = measure.to_json()
    if split:
        out["exceptional_zero"] = rep.to_json()
    return out


def cmd_modsym_dump(args, cache):
    from .modsym import build_space

    space = build_space(args.level, args.sign, cache)
    primes = [_prime(tok.strip()) for tok in args.hecke.split(",") if tok.strip()]
    return {**space.to_json(), "command": "modsym dump",
            "hecke": {str(l): Quoted(space.hecke_matrix(l)) for l in primes}}


def cmd_import_curve(args, cache):
    from .curves import (CurveError, add_user_row, bad_primes, conductor, parse_table_row,
                         reduction_type)

    curve = parse_table_row(args.row)
    try:
        n = conductor(curve)
    except CurveError:
        n = None  # additive at 2 or 3: stored without a conductor claim
    entry = {
        "command": "import-curve",
        "curve": curve.to_json(),
        "conductor": n,
        "bad_primes": {str(p): reduction_type(curve, p).kind for p in bad_primes(curve)},
    }
    path = _user_table_path(cache)
    if add_user_row(curve, path):
        entry["registered"] = path
    return entry


HANDLERS = {
    "li-period": cmd_li_period,
    "li-curve": cmd_li_curve,
    "check-ezc": cmd_check_ezc,
    "check-twist": cmd_check_twist,
    "stickelberger": cmd_stickelberger,
    "lp": cmd_lp,
    "import-curve": cmd_import_curve,
    "modsym": cmd_modsym_dump,
}


_SCALARS = frozenset((str, int, float, bool, type(None)))


@lru_cache(maxsize=None)
def _encoder(sep):
    """json's C encoder, with sorted keys and `sep` between items."""
    return json.JSONEncoder(sort_keys=True, separators=(sep, ": ")).encode


def _quote(row, nl):
    """The text of a nonempty `Quoted` row, its items on lines beginning nl;
    '"' sorts below every digit and '-', so an entry sorts as its key does."""
    o, c = "{}" if isinstance(row, dict) else "[]"
    items = sorted([f'{k}": "{v}' for k, v in row.items()]) if o == "{" else [f"{v}" for v in row]
    return o + nl + '"' + ('",' + (nl or " ") + '"').join(items) + '"' + nl[:-2] + c


def _write(x, write, nl="\n  "):
    """Write json.dumps(x, indent=2, sort_keys=True), or with nl = ""
    json.dumps(x, sort_keys=True), byte for byte and piece by piece, x's
    items on lines beginning nl.  json's C encoder writes a container of
    scalars, and a list of them whole before its brackets are broken open
    (encoded strings hold no raw newline); `_quote` formats a `Quoted` row."""
    sep, inner = "," + (nl or " "), nl and nl + "  "
    encode = _encoder(sep)
    if not isinstance(x, (dict, list, tuple)) or not x:
        return write(encode(x))
    o, c = "{}" if isinstance(x, dict) else "[]"
    kinds = set(map(type, x.values() if o == "{" else x))
    if kinds <= _SCALARS:
        return write(o + nl + encode(x)[1:-1] + nl[:-2] + c)
    if (o == "[" and not isinstance(x, Quoted) and (kinds <= {list, tuple} or kinds == {dict})
            and _SCALARS.issuperset(map(type, chain.from_iterable(
                map(dict.values, x) if dict in kinds else x)))):
        i, j = "{}" if dict in kinds else "[]"
        sep1 = "," + (inner or " ")
        body = _encoder(sep1)(x)[2:-2].replace(j + sep1 + i, nl + j + sep + i + inner)
        return write((o + nl + i + inner + body + nl + j).replace(i + inner + nl + j, i + j)
                     + nl[:-2] + c)  # the second replace closes empty items again
    memo, uses = {}, Counter(map(id, x)) if isinstance(x, Quoted) else None
    for i, k in enumerate(sorted(x) if o == "{" else x):  # a key 1 is written "1", None "null"
        key = encode(k if isinstance(k, str) else encode(k)) + ": " if o == "{" else ""
        write((sep if i else o + nl) + key)
        if isinstance(x, Quoted) and k:  # only the text of a row held twice is kept
            text = memo.get(id(k)) or _quote(k, inner)
            write(memo.setdefault(id(k), text) if uses[id(k)] > 1 else text)
        else:
            _write(x[k] if o == "{" else k, write, inner)
    write(nl[:-2] + c)


def _emit(payload, args, out):
    """Write the report to `out` by `_write`, as it is formatted: indented
    JSON, or one `key<TAB>compact JSON` line per key for --format table."""
    if not args.no_meta:
        import datetime  # only the meta block needs it: kept off start-up

        payload["meta"] = {
            "package": f"plinv {__version__}",
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
    if args.format == "table":
        for key in sorted(payload):
            out.write(f"{key}\t")
            _write(payload[key], out.write, "")
            out.write("\n")
    else:
        _write(payload, out.write)
        out.write("\n")


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.no_cache:
            from .cache import Cache  # with fcntl: only a cached run loads it
        cache = None if args.no_cache else Cache(args.cache_dir)
        payload = HANDLERS[args.command](args, cache)
        _emit(payload, args, out)
        return 0
    except UsageError as exc:
        print(f"plinv: {exc}", file=sys.stderr)
        return 3
    except CacheError as exc:
        print(f"plinv: cache corruption: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"plinv: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
