# Seeded CONC001: self._total is guarded by self._lock in add() but
# touched bare in bump() and peek().  The CONC001 scan must flag both.
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._total = 0

    def add(self, n):
        with self._lock:
            self._total += n

    def bump(self):
        self._total += 1

    def peek(self):
        return self._total
