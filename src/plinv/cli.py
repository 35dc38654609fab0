"""Command-line interface.

Exit codes: 0 success, 2 domain errors (not a period, no Tate period,
unknown label, ...), 3 parse/usage errors, 141 the reader of the output
closed it early.

Each command imports the modules it runs when it runs, and builds every
symbol space it needs; the cache directory holds only `user_curves.tsv`,
which `--no-cache` leaves untouched.  `--no-cache modsym dump` loads
modsym and linalg alone: no p-adic code or `fractions`.  The
options are read from one table, which `-h` prints.  Reports are written
out piece by piece as they are formatted, in either --format.
"""

# The docstring above is the text of `plinv -h`.  Reports are the bytes
# json.dumps would write, written by `_write` without `json`; only
# `li-period`, which parses rationals, loads `fractions`, and only
# `check-twist` loads `twists`.

import os
import sys
from collections import Counter
from itertools import chain
from types import SimpleNamespace

from . import DomainError, Quoted, UsageError, __version__, check_prime


# -- argument plumbing ----------------------------------------------------


def _prime(text, option="-p"):
    try:
        return check_prime(int(text))
    except ValueError as exc:  # DomainError is one
        raise UsageError(f"{option} wants a prime: {exc}") from exc


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


def _format(text):
    if text not in ("json", "table"):
        raise UsageError("--format must be json or table")
    return text


def default_cache_dir():
    env = os.environ.get("PLINV_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(base, "plinv")


def _user_table(args):
    """The path of `user_curves.tsv` in the cache directory; None under --no-cache."""
    if args.no_cache:
        return None
    return os.path.join(args.cache_dir or default_cache_dir(), "user_curves.tsv")


def _resolve_curve(args):
    from .curves import WeierstrassCurve, curve_by_label

    if args.label is not None and args.curve is not None:
        raise UsageError("give --label or --curve, not both")
    if args.label:
        return curve_by_label(args.label, _user_table(args))
    if args.curve:
        parts = args.curve.split(",")
        if len(parts) != 5:
            raise UsageError("--curve wants a1,a2,a3,a4,a6")
        try:
            ainvs = [int(x) for x in parts]
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        return WeierstrassCurve(*ainvs)
    raise UsageError("provide --label or --curve")


# TABLE[command] = (help, options); an option is (names, dest, converter,
# default, help): no converter makes a flag, a default of ... a required
# option, and names without a dash a positional.  A COMMAND positional hands
# the rest of argv to TABLE[command + " " + its value].  `-h` reads the table.
_HELP = ("-h --help", "help", None, False, "show this help")
_P = ("-p", "p", _prime, ..., "the prime p")
_PREC = ("--prec", "prec", _precision, 20, "p-adic digits, at least 5")
_DEPTH = ("--depth", "depth", _depth, 3, "measure depth n, 1 to 4")
_DUAL = ("--dual", "dual", None, False, "use the dual measure")
_CURVE = (("--label", "label", str, None, "curve label from the bundled table"),
          ("--curve", "curve", str, None, "a1,a2,a3,a4,a6 (integral model)"))
TABLE = {
    "plinv": (__doc__, [("--cache-dir", "cache_dir", str, None, "override the cache directory"),
                        ("--no-cache", "no_cache", None, False, "disable the disk cache"),
                        ("--no-meta", "no_meta", None, False, "suppress the timestamp block"),
                        ("--format", "format", _format, "json", "json | table"),
                        ("COMMAND", "command", None, ..., "")]),
    "plinv li-period": ("L-invariant of a period literal", [
        ("LITERAL", "literal", str, ..., "a period such as '(2/3)^-2 * 50^1'"), _P,
        ("--branch", "branch", str, "p", "p | cyc | a rational literal with ord != 0"), _PREC]),
    "plinv li-curve": ("Tate period and its L-invariant", [*_CURVE, _P, _PREC]),
    "plinv check-ezc": ("exceptional-zero comparison", [*_CURVE, _P, _DEPTH, _PREC, _DUAL]),
    "plinv check-twist": ("quadratic-twist product bookkeeping", [
        *_CURVE, ("-D", "disc", int, ..., "a fundamental discriminant"), _P, _DEPTH, _PREC]),
    "plinv stickelberger": ("Stickelberger element at depth n", [
        *_CURVE, _P, ("-n --depth", "depth", _depth, 2, _DEPTH[4]), _PREC, _DUAL]),
    "plinv lp": ("p-adic L-value and derivative data", [
        *_CURVE, _P, _DEPTH, _PREC, ("--table", "table", None, False, "include the measure table"),
        _DUAL]),
    "plinv import-curve": ("validate and register a table row", [
        ("--row", "row", str, ..., '"label a1,a2,a3,a4,a6"; derived data is recomputed')]),
    "plinv modsym": ("modular symbol spaces", [("COMMAND", "modsym_command", None, ..., "")]),
    "plinv modsym dump": ("presentation and Hecke matrices", [
        ("--level", "level", int, ..., "the level N"), ("--sign", "sign", _sign, 1, "+ or -"),
        ("--hecke", "hecke", str, "2,3", "comma-separated primes")]),
}


def _option(arg, flags):
    """(flag, attached value or None) of the option that arg names, read as
    argparse reads it: exact, `--opt=value`, `-p11` or a unique prefix of a
    long option; an ambiguous prefix raises, and (None, arg) names none."""
    name, eq, value = arg.partition("=")
    if arg in flags:
        return arg, None
    if eq and name in flags:
        return name, value
    if arg[:2] in flags:
        return arg[:2], arg[2:]
    hits = [flag for flag in flags if flag.startswith(name)] if arg[:2] == "--" else []
    if len(hits) > 1:
        raise UsageError(f"ambiguous option: {arg} could match {', '.join(hits)}")
    return (hits[0], value if eq else None) if hits else (None, arg)


def parse_args(argv):
    """argv as a namespace with the names the handlers read, or the text of
    the help that a `-h` in it asks for.  It reads argv as argparse did,
    except that a value or literal beginning with "-" that names no option
    is taken; every rejection raises UsageError."""
    args, key, todo = SimpleNamespace(), "plinv", list(argv)
    while True:
        opts = TABLE[key][1]
        flags = {name: o for o in (*opts, _HELP) for name in o[0].split() if name[0] == "-"}
        slots, ended, opt = [o for o in opts if o[0][0] != "-"], False, None
        vars(args).update((o[1], o[3]) for o in opts)
        while todo:
            arg = todo.pop(0)
            if arg == "--" and not ended:  # argparse takes it only next to a positional
                if not (todo and slots or opt and opt[0][0] != "-"):
                    raise UsageError("unrecognized argument '--'")
                ended = True
                continue
            flag, value = (None, arg) if ended else _option(arg, flags)
            opt = flags[flag] if flag else slots.pop(0) if slots else None
            if opt is None or opt[0] == "COMMAND" and (ended or f"{key} {arg}" not in TABLE):
                raise UsageError(f"unrecognized argument {arg!r}")
            if flag and not opt[2] and value is not None:
                raise UsageError(f"{flag} takes no value")
            if opt is _HELP:
                return _help(key)
            if flag and opt[2] and value is None:
                value = todo.pop(0) if todo else "--"
                if value == "--" or _option(value, flags)[0]:
                    raise UsageError(f"{flag} expects a value")
            try:  # a flag is set to True, a COMMAND to its name
                setattr(args, opt[1], opt[2](value) if opt[2] else value or True)
            except ValueError as exc:  # int() in a converter
                raise UsageError(f"{opt[0]}: {exc}") from exc
            if opt[0] == "COMMAND":
                key = f"{key} {arg}"
                break
        else:
            missing = [o[0] for o in opts if getattr(args, o[1]) is ...]
            if missing:
                raise UsageError(f"{key} requires {', '.join(missing)}")
            return args


def _help(key):
    """The -h text of TABLE[key]: usage, then a line per option and command."""
    about, opts = TABLE[key]
    rows = [(names, text + (" (required)" if default is ... else f" (default: {default})"
                            if conv and default is not None else ""))
            for names, _, conv, default, text in (*opts, _HELP) if names != "COMMAND"]
    rows += [(k[len(key) + 1:], TABLE[k][0]) for k in TABLE if k.rpartition(" ")[0] == key]
    usage = " ".join([key, "[options]", *(o[0] for o in opts if o[0][0] != "-")])
    return f"usage: {usage}\n\n{about.strip()}\n\n" + "".join(f"  {a:18}{b}\n" for a, b in rows)


# -- command handlers -------------------------------------------------------


def cmd_li_period(args):
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


def cmd_li_curve(args):
    from .curves import reduction_type, tate_l_invariant, tate_period

    curve = _resolve_curve(args)
    red = reduction_type(curve, args.p)
    q = tate_period(curve, args.p, args.prec)
    return {
        "command": "li-curve",
        "curve": curve.to_json(),
        "reduction": red.to_json(),
        "tate_period": q.to_json(),
        "li": tate_l_invariant(q).to_json(),
        "prec": args.prec,
    }


def cmd_check_ezc(args):
    from .measures import exceptional_zero_check

    curve = _resolve_curve(args)
    rep = exceptional_zero_check(curve, args.p, args.depth, args.prec, dual=args.dual)
    return {"command": "check-ezc", **rep}


def cmd_check_twist(args):
    from .twists import twist_product_check

    curve = _resolve_curve(args)
    rep = twist_product_check(curve, args.disc, args.p, args.depth, args.prec)
    return {"command": "check-twist", **rep}


def _symbol_and_measure(args):
    from .measures import build_measure
    from .modsym import eigen_symbol

    curve = _resolve_curve(args)
    symbol = eigen_symbol(curve)
    measure = build_measure(symbol, args.p, args.depth, prec=args.prec)
    return curve, symbol, measure


def cmd_stickelberger(args):
    from .measures import build_measure, stickelberger

    curve, symbol, measure = _symbol_and_measure(args)
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


def cmd_lp(args):
    from .curves import SPLIT, reduction_type
    from .measures import _encode, ezc_report, lp_value_and_derivative, stickelberger

    curve, symbol, measure = _symbol_and_measure(args)
    theta = stickelberger(measure, args.dual)
    out = {
        "command": "lp",
        "curve": curve.to_json(),
        "p": args.p,
        "depth": args.depth,
        "prec": args.prec,
        "unit_root": measure.root.to_json(),
        "value_at_zero": str(symbol.at_zero),
    }
    if reduction_type(curve, args.p).kind == SPLIT:
        rep = out["exceptional_zero"] = ezc_report(curve, theta, args.prec)
        out.update((key, rep[key]) for key in ("Lp0", "Lp0_is_zero", "Lp_derivative"))
    else:
        l0, l1 = lp_value_and_derivative(theta, args.prec)
        out.update(Lp0=_encode(l0), Lp0_is_zero=l0 == 0, Lp_derivative=l1.to_json())
    out["augmentation"] = out["Lp0"]
    if args.table:
        out["measure"] = measure.to_json()
    return out


def cmd_modsym_dump(args):
    from .modsym import build_space

    space = build_space(args.level, args.sign)
    primes = [_prime(tok.strip(), "--hecke") for tok in args.hecke.split(",") if tok.strip()]
    return {**space.to_json(), "command": "modsym dump",
            "hecke": {str(l): Quoted(space.hecke_matrix(l)) for l in primes}}


def cmd_import_curve(args):
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
    path = _user_table(args)
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


# -- JSON text, as json.dumps(x, indent=2, sort_keys=True) writes it --------

# json's ASCII escapes of the control characters, '"', '\\' and DEL; any
# other non-ASCII character goes through `_escape`
_ESCAPES = {i: f"\\u{i:04x}" for i in (*range(32), 127)}
_ESCAPES.update({8: "\\b", 9: "\\t", 10: "\\n", 12: "\\f", 13: "\\r", 34: '\\"', 92: "\\\\"})


def _escape(c):
    """A character as json writes it in ASCII: itself below 128, else
    \\uXXXX, or a surrogate pair of them beyond the BMP."""
    n = ord(c)
    if n < 0x80:
        return c
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000
    return f"\\u{0xd800 | n >> 10:04x}\\u{0xdc00 | n & 0x3ff:04x}"


def _string(s):
    s = s.translate(_ESCAPES)
    return '"' + (s if s.isascii() else "".join(map(_escape, s))) + '"'


def _float(x):
    if x - x == 0:  # finite
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


_SCALARS = {str: _string, int: int.__repr__, float: _float,
            bool: {True: "true", False: "false"}.get, type(None): lambda _: "null"}


def _scalar(x):
    """The JSON text of a str, int, float, bool or None (not of a subclass)."""
    if type(x) not in _SCALARS:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    return _SCALARS[type(x)](x)


def _texts(values):
    """The JSON texts of a list of scalars, or None if one is not a scalar.
    Strs that json escapes nowhere, as a measure's digits, are only quoted,
    all in one join (no such str holds a NUL); one translate says so."""
    kinds = set(map(type, values))
    if kinds == {str}:
        whole = "".join(values)
        if whole.isascii() and len(whole.translate(_ESCAPES)) == len(whole):
            return ('"' + '"\0"'.join(values) + '"').split("\0")
    if kinds == {int}:
        return list(map(int.__repr__, values))
    return list(map(_scalar, values)) if kinds <= _SCALARS.keys() else None


_SMALL = {i: str(i) for i in range(-256, 257)}  # a Fraction n/1 finds str(n) too


def _quote(row, nl):
    """The text of a nonempty `Quoted` row, its items on lines beginning nl;
    '"' sorts below every digit and '-', so an entry sorts as its key does.
    Entries of Hecke rows and coordinates are small ints, read off `_SMALL`."""
    sep = '",' + (nl or " ") + '"'
    o, c = "{}" if isinstance(row, dict) else "[]"
    try:
        text = sep.join(sorted([_SMALL[k] + '": "' + _SMALL[v] for k, v in row.items()])
                        if o == "{" else map(_SMALL.__getitem__, row))
    except KeyError:  # a larger int, or a Fraction that is not one
        text = sep.join(sorted([f'{k}": "{v}' for k, v in row.items()]) if o == "{"
                        else [f"{v}" for v in row])
    return o + nl + '"' + text + '"' + nl[:-2] + c


def _write(x, write, nl="\n  "):
    """Write json.dumps(x, indent=2, sort_keys=True), or with nl = ""
    json.dumps(x, sort_keys=True), byte for byte and piece by piece, x's
    items on lines beginning nl.  A container of scalars is written whole,
    and so is a list of rows of ints of one length, each row by one `%`;
    `_quote` formats a `Quoted` row, once however often it is held."""
    if isinstance(x, dict):  # a key 1 is written "1", None "null"
        keys = sorted(x)
        heads = _texts(keys if set(map(type, keys)) == {str} else
                       [k if isinstance(k, str) else _scalar(k) for k in keys])
        items = list(map(x.__getitem__, keys))
    elif isinstance(x, (list, tuple)):
        heads, items = None, x
    else:
        return write(_scalar(x))
    o, c = "[]" if heads is None else "{}"
    if not x:
        return write(o + c)
    sep, inner, end = "," + (nl or " "), nl and nl + "  ", nl[:-2] + c
    texts = _texts(items)
    if texts is not None:
        return write(o + nl + sep.join(texts if heads is None else map(": ".join, zip(heads, texts)))
                     + end)
    kinds = set(map(type, items))
    if (heads is None and not isinstance(x, Quoted) and kinds <= {list, tuple}
            and len(set(map(len, x))) == 1 and x[0]
            and set(map(type, chain.from_iterable(x))) == {int}):
        row = "[" + inner + ("," + (inner or " ")).join(["%d"] * len(x[0])) + inner[:-2] + "]"
        return write(o + nl + sep.join(map(row.__mod__, map(tuple, x))) + end)
    head = o + nl
    if isinstance(x, Quoted):  # only the text of a row held twice is kept
        memo, uses = {}, Counter(map(id, x))
        for row in x:
            text = memo.get(id(row))
            if text is None:
                text = _quote(row, inner) if row else "{}" if isinstance(row, dict) else "[]"
                if uses[id(row)] > 1:
                    memo[id(row)] = text
            write(head + text)
            head = sep
        return write(end)
    for i, v in enumerate(items):
        lead = (sep if i else head) + (heads[i] + ": " if heads else "")
        if type(v) in _SCALARS:
            write(lead + _scalar(v))
        else:
            write(lead)
            _write(v, write, inner)
    write(end)


def _emit(payload, args, out):
    """Write the report to `out` by `_write`, as it is formatted, in one
    out.write per 64 KiB (each is a syscall on an unbuffered stdout): indented
    JSON, or one `key<TAB>compact JSON` line per key for --format table."""
    batch, size = [], 0

    def write(text):
        nonlocal size
        batch.append(text)
        size += len(text)
        if size >= 1 << 16:
            out.write("".join(batch))
            batch.clear()
            size = 0

    if not args.no_meta:
        import datetime  # only the meta block needs it: kept off start-up

        payload["meta"] = {
            "package": f"plinv {__version__}",
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
    if args.format == "table":
        for key in sorted(payload):
            write(f"{key}\t")
            _write(payload[key], write, "")
            write("\n")
    else:
        _write(payload, write)
        write("\n")
    out.write("".join(batch))


def main(argv=None, out=None):
    out = out or sys.stdout
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # the text of -h
            out.write(args)
        else:
            _emit(HANDLERS[args.command](args), args, out)
        if out is sys.stdout:  # here, so that a reader who left gets 141
            out.flush()
        return 0
    except UsageError as exc:
        print(f"plinv: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"plinv: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        if out is not sys.stdout:
            raise
        # the reader left: point fd 1 at devnull, so no later flush can fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def run(argv=None):
    """End the process of `python -m plinv.cli` or the `plinv` script: main,
    a flush of stderr (main flushes stdout), then os._exit, which skips the
    interpreter's teardown (11-13 ms of collecting and freeing every module's
    objects) and atexit handlers, of which plinv has none.  An exception from
    main still exits 1 with its traceback; main alone ends normally."""
    code = main(argv)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
