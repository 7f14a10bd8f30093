"""The one memo table behind every dynq cache.

Keys hold the objects themselves: modules and Cartan data hash by identity,
weights by their exact coordinates, so a key pins what it names and an id
is never reused under a live entry.  Every table keeps at most MAXSIZE
entries and drops the least recently used one beyond that, and counts its
hits and misses.
"""

import threading
from collections import OrderedDict

MAXSIZE = 1024
_MISSING = object()


class Memo:
    """Thread-safe LRU table: `get(key, make)` returns the stored value.

    `make()` runs outside the lock.  When two threads miss on one key at
    once, both compute, and both get the value stored first.  `hits` and
    `misses` count the calls that found their key and the calls that ran
    `make()`.
    """

    def __init__(self):
        self._d = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._d)

    def get(self, key, make):
        with self._lock:
            val = self._d.get(key, _MISSING)
            if val is not _MISSING:
                self.hits += 1
                self._d.move_to_end(key)
                return val
            self.misses += 1
        val = make()
        with self._lock:
            val = self._d.setdefault(key, val)
            self._d.move_to_end(key)
            while len(self._d) > MAXSIZE:
                self._d.popitem(last=False)
        return val
