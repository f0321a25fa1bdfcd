"""REP006 fixture (clean twin): every mutex registered, nesting follows
the declared transitive order, Condition aliases canonicalize, and
re-entry only happens on the RLock."""

import threading


class Pipeline:
    # lock-order: _meta < _data < _log

    def __init__(self):
        self._meta = threading.RLock()
        self._data = threading.Lock()
        self._log = threading.Lock()
        self._meta_cv = threading.Condition(self._meta)

    def update(self):
        with self._meta:
            with self._data:
                with self._log:
                    pass

    def grab_meta(self):
        with self._meta:
            pass

    def reentrant_self_call(self):
        # Same-class re-entry through a helper is safe on the RLock.
        with self._meta:
            self.grab_meta()

    def grab_log(self):
        with self._log:
            pass

    def nested_via_helper(self):
        # Helper-call acquisition in the declared direction.
        with self._data:
            self.grab_log()

    def reentrant_rlock(self):
        # The Condition aliases the RLock; re-entry on an RLock is safe.
        with self._meta:
            with self._meta_cv:
                pass

    def transitive_skip(self):
        # _meta < _log follows transitively from _meta < _data < _log.
        with self._meta:
            with self._log:
                pass
