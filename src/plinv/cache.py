"""Versioned on-disk caches with atomic writes and advisory locking.

The only cached objects are symbol spaces; `modsym` decides their file
names and payloads, which hold exact data (integer, or rarely Fraction,
generator coordinates, as strings), so a format bump invalidates rather
than migrates.  Format 3 stores the resolved presentation alone, and
files of another format are ignored and rewritten.  A corrupt file raises
CacheError instead of being silently rebuilt; the class lives in the
package root, so the command line maps it to exit 4 without this module.
"""

import fcntl
import json
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

    def _path(self, name):
        return os.path.join(self.directory, name + ".json")

    def load(self, name, kind):
        path = self._path(name)
        if not os.path.exists(path):
            return None
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
        import tempfile  # with its shutil and random: only writers pay for it

        os.makedirs(self.directory, exist_ok=True)
        path = self._path(name)
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
