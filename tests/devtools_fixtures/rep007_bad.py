"""Fixture: serving locks acquired against the hierarchy (REP007 fires)."""
import threading


class InfluenceIndex:
    def __init__(self):
        self._lock = threading.RLock()

    def report(self, service):
        # index (innermost) held while taking the service's condition.
        with self._lock:
            with service._eval_cond:
                pass
