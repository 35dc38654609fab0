"""The retired symbol-space store: `Cache.load` and `Cache.store` are stubs
that raise, kept only as names that perfbench/tracer.py wraps.  Every space
is built in process (`modsym.build_space`), and `cli` finds the cache
directory, which holds only `user_curves.tsv`."""


class Cache:
    def load(self, *args):
        raise RuntimeError("the symbol-space store is retired: build_space builds every space")

    def store(self, *args):
        raise RuntimeError("the symbol-space store is retired: no space is written to disk")
