"""The one memo table behind every dynq cache.

Keys hold the objects themselves: modules and Cartan data hash by identity,
weights by their exact coordinates, so a key pins what it names and an id
is never reused under a live entry.  Every table keeps at most MAXSIZE
entries and drops the least recently used one beyond that.
"""

import threading
from collections import OrderedDict

MAXSIZE = 1024


class Memo:
    """Thread-safe LRU table: `get(key, make)` returns the stored value.

    `make()` runs outside the lock.  When two threads miss on one key at
    once, both compute, and both get the value stored first.
    """

    def __init__(self):
        self._d = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._d)

    def get(self, key, make):
        with self._lock:
            if key in self._d:
                self._d.move_to_end(key)
                return self._d[key]
        val = make()
        with self._lock:
            val = self._d.setdefault(key, val)
            self._d.move_to_end(key)
            while len(self._d) > MAXSIZE:
                self._d.popitem(last=False)
        return val
