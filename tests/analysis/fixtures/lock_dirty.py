"""REP002 fixture (dirty twin): guarded state touched outside its lock.

``snapshot`` is a regression note from the satellite audit of the real
threaded modules: serialization/snapshot paths are where unlocked reads
of guarded state hide (a ``__getstate__`` must snapshot guarded tables
*under* the lock, and a deliberate lock-free read must carry an
``unguarded-ok`` pragma) — the checker must catch the unlocked variant.
"""

import threading


class Registry:
    def __init__(self):
        self._lock = threading.Lock()  # lock-order: _lock
        self._cond = threading.Condition(self._lock)
        self._tables = {}  # guarded-by: _lock, _cond
        self._closed = False  # guarded-by: _lock, _cond

    def fill(self, key, value):
        with self._lock:
            self._tables[key] = value

    def snapshot(self):
        return dict(self._tables)  # PLANT: REP002

    def close(self):
        self._closed = True  # PLANT: REP002

    def drain(self):
        with self._cond:
            while not self._closed:
                self._cond.wait()
        return self._tables  # PLANT: REP002

    def leak_lock(self, key, value):
        self._lock.acquire()  # PLANT: REP002
        self._tables[key] = value

    def double_release(self):
        self._lock.release()  # PLANT: REP002
