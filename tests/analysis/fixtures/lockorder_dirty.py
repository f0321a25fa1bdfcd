"""REP006 fixture (dirty twin): lock-order violations the per-module
held-lock walker must catch — a declaration cycle, an unregistered mutex,
direct and helper-call order reversals, undeclared nesting, and re-entry
on a non-reentrant lock.  This module is only ever *parsed* by the lint
engine, never imported.
"""

import threading


class Pipeline:
    # lock-order: _meta < _data, _meta < _log
    # lock-order: _data < _meta  # PLANT: REP006

    def __init__(self):
        self._meta = threading.Lock()
        self._data = threading.Lock()
        self._log = threading.Lock()
        self._stats = threading.Lock()  # PLANT: REP006
        self._meta_cv = threading.Condition(self._meta)

    def update(self):
        # Declared order: fine.
        with self._meta:
            with self._data:
                pass

    def reversed_direct(self):
        with self._data:
            with self._meta:  # PLANT: REP006
                pass

    def undeclared_pair(self):
        with self._data:
            with self._log:  # PLANT: REP006
                pass

    def grab_meta(self):
        with self._meta:
            pass

    def reversed_via_helper(self):
        with self._data:
            self.grab_meta()  # PLANT: REP006

    def reentrant_plain_lock(self):
        with self._meta:
            with self._meta_cv:  # PLANT: REP006
                pass

    def reentrant_self_call(self):
        # grab_meta() takes _meta again: a deadlock on a plain Lock.
        with self._meta:
            self.grab_meta()  # PLANT: REP006
