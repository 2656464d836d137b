"""Fixture: serving locks in declared order (REP007 must stay quiet)."""
import threading


class InfluenceService:
    def __init__(self):
        self._lock = threading.RLock()
        self._eval_cond = threading.Condition(self._lock)

    def serve(self):
        with self._eval_cond:
            with self._lock:
                pass


class InfluenceIndex:
    def __init__(self):
        self._lock = threading.RLock()

    def reentrant(self):
        with self._lock:
            with self._lock:
                pass
