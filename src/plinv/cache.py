"""The cache directory, which holds `user_curves.tsv`, and a versioned
JSON file store with atomic writes and advisory locking.

No command reads or writes a store file: every symbol space is built in
process (`modsym.build_space`).  `Cache.load` and `Cache.store` keep their
format-3 behaviour: a file of another format reads as absent, and a
corrupt one raises CacheError instead of being silently rebuilt.
"""

import os

from . import CacheError

FORMAT_VERSION = 3


def default_cache_dir():
    env = os.environ.get("PLINV_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(base, "plinv")


class Cache:
    def __init__(self, directory=None):
        self.directory = directory or default_cache_dir()

    def load(self, name, kind):
        path = os.path.join(self.directory, name + ".json")
        if not os.path.exists(path):
            return None
        import json  # no command reads a store file: kept off start-up

        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
            raise CacheError(f"corrupt cache file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise CacheError(f"corrupt cache file {path}: not a JSON object")
        if data.get("format") != FORMAT_VERSION:
            return None  # stale format: ignore, will be rewritten
        if data.get("kind") != kind:
            raise CacheError(f"cache file {path} holds {data.get('kind')!r}, wanted {kind!r}")
        if data.get("payload") is None:
            raise CacheError(f"corrupt cache file {path}: no payload")
        return data["payload"]

    def store(self, name, kind, payload):
        import fcntl  # a read takes no lock, since a write replaces the file whole
        import json
        import tempfile  # with its shutil and random: only writers pay for it

        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, name + ".json")
        lock_path = path + ".lock"
        data = {"format": FORMAT_VERSION, "kind": kind, "payload": payload}
        with open(lock_path, "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            try:
                fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as fh:
                        fh.write(json.dumps(data))  # json.dump never uses the C encoder
                    os.replace(tmp, path)
                except BaseException:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
                    raise
            finally:
                fcntl.flock(lock, fcntl.LOCK_UN)
