"""Timing wrappers around plinv's public functions, installed from outside.

The benchmark attributes time to plinv's modules without changing them:
`install()` replaces each target function with a wrapper that records a
span (name, start, end, parent) and, for a few targets, a size counter.
Modules import by value (`from .padic import iwasawa_log`), so a function
is rebound in every plinv module namespace that holds it, not only where
it is defined; `unpatched_references()` finds any binding that was missed.

Spans stay in memory and are written out once, when the command ends.
"""

import functools
import gc
import importlib
import json
import sys
import time


def _p1_size(counters, args, kwargs, result):
    reps = args[2] if len(args) > 2 else kwargs.get("reps")
    if reps is None:  # enumerated, not read back from a cache payload
        counters["modsym.p1_size"] += len(args[0])


def _dimension(counters, args, kwargs, result):
    counters["modsym.dimension"] += args[0].dimension


def _cells(counters, args, kwargs, result):
    counters["measures.cells"] += len(result.values)


# (layer name, module, attribute path, size counter)
TARGETS = [
    ("cli.main", "plinv.cli", "main", None),
    ("cli.emit", "plinv.cli", "_emit", None),
    ("cache.load", "plinv.cache", "Cache.load", None),
    ("cache.store", "plinv.cache", "Cache.store", None),
    ("modsym.build_space", "plinv.modsym", "build_space", None),
    ("modsym.from_payload", "plinv.modsym", "SymbolSpace.from_payload", None),
    ("modsym.p1_enumerate", "plinv.modsym", "P1List.__init__", _p1_size),
    ("modsym.manin_eliminate", "plinv.modsym", "SymbolSpace._build", _dimension),
    ("modsym.hecke_matrix", "plinv.modsym", "SymbolSpace.hecke_matrix", None),
    ("modsym.eigen_symbol", "plinv.modsym", "eigen_symbol", None),
    ("modsym.evaluate", "plinv.modsym", "EigenSymbol.evaluate", None),
    ("linalg.left_eigen_space", "plinv.linalg", "left_eigen_space", None),
    ("linalg.kernel_basis", "plinv.linalg", "kernel_basis", None),
    ("measures.build_measure", "plinv.measures", "build_measure", _cells),
    ("measures.lp_value_and_derivative", "plinv.measures", "lp_value_and_derivative", None),
    ("measures.stickelberger", "plinv.measures", "stickelberger", None),
    ("padic.iwasawa_log", "plinv.padic", "iwasawa_log", None),
    ("padic.teichmuller", "plinv.padic", "teichmuller", None),
    ("curves.tate_period", "plinv.curves", "tate_period", None),
    ("curves.j_q_coefficients", "plinv.curves", "j_q_coefficients", None),
    ("curves.reduction_type", "plinv.curves", "reduction_type", None),
    ("periods.li", "plinv.periods", "li", None),
]

COUNTERS = ("modsym.p1_size", "modsym.dimension", "measures.cells")


class Tracer:
    """In-memory span recorder for one process (one plinv command)."""

    def __init__(self):
        self.names = [name for name, *_ in TARGETS]
        self.spans = []      # [name index, start ns, end ns, parent span index or -1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.originals = {}  # layer name -> the unwrapped function
        self.wrappers = {}   # layer name -> its wrapper
        self._stack = []

    def wrap(self, name, fn, size=None):
        k = self.names.index(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [k, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[1], span[2] = start, clock()
                stack.pop()
            if size is not None:
                size(counters, args, kwargs, result)
            return result

        return wrapper

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters, **extra}, fh)


def _plinv_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "plinv" or name.startswith("plinv.")]


def install(tracer):
    """Wrap every target and rebind it wherever a plinv module holds it."""
    importlib.import_module("plinv.cli")  # loads every module the CLI reaches
    modules = _plinv_modules()
    for name, modname, path, size in TARGETS:
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapped = tracer.wrap(name, fn, size)
        tracer.originals[name] = fn
        tracer.wrappers[name] = wrapped
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)


def unpatched_references(tracer):
    """Objects other than the tracer's own wrappers that still hold an
    original function: each is a binding `install` failed to patch."""
    gc.collect()
    own = {id(tracer.originals)}
    for wrapper in tracer.wrappers.values():
        own.add(id(wrapper.__dict__))  # holds __wrapped__
        own.update(id(cell) for cell in wrapper.__closure__)
    here = sys._getframe()
    missed = []
    for name in list(tracer.originals):
        for ref in gc.get_referrers(tracer.originals[name]):
            if id(ref) not in own and ref is not here:
                missed.append((name, type(ref).__name__))
    return missed


def aggregate(trace):
    """Per-layer calls and self time (duration minus wrapped children)."""
    names = trace["names"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    total_s = dict.fromkeys(names, 0.0)
    for i, (k, start, end, _) in enumerate(spans):
        name = names[k]
        calls[name] += 1
        self_s[name] += (end - start - child_time[i]) / 1e9
        total_s[name] += (end - start) / 1e9
    return calls, self_s, total_s
