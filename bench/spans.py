"""In-memory spans around the public functions of spdcmaps.

A Tracer replaces each wrapped function at every name its callers look
up (``compensation`` imports ``time_delay`` and ``bisect_secant`` by name,
``phasematch`` imports ``bisect_secant``), records one span per call and
restores the originals on ``remove``.  Spans stay in memory until
``summary`` turns them into per-function totals.

Self time is the span's duration minus the part of it covered by its
child spans.  A span opened on a sweep worker thread, with nothing open
on that thread, takes the innermost span open on the main thread as its
parent, so the union of child intervals (not their sum) is subtracted:
two threads busy at once cover one stretch of the parent once.
"""

import functools
import threading
from collections import Counter
from time import perf_counter

# span record fields
NAME, PARENT, START, END, WORK, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._patches = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def span(self, name, fn, before=None, after=None):
        """Wrapper recording a span per call while the tracer is active.

        before(rec, args, kwargs) may return replacement (args, kwargs);
        after(rec, args, result) fills the WORK/EXTRA counters.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            rec = [name, tracer._parent(stack), 0.0, 0.0, 0, 0]
            if before is not None:
                args, kwargs = before(rec, args, kwargs)
            tracer.spans.append(rec)
            stack.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if after is not None:
                after(rec, args, result)
            return result

        return wrapper

    def counter(self, key, fn):
        """Wrapper counting calls only (for hot methods too small to span)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                with tracer._lock:
                    tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, wrapper, *targets):
        """Install wrapper as attribute ``name`` of every (owner, name)."""
        for owner, name in targets:
            self._patches.append((owner, name, getattr(owner, name)))
            setattr(owner, name, wrapper)

    def remove(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def summary(self):
        """{span name: {calls, self_s, work, extra}} over all spans."""
        children = {}
        for rec in self.spans:
            if rec[PARENT] is not None:
                children.setdefault(id(rec[PARENT]), []).append(rec)
        out = {}
        for rec in self.spans:
            s, e = rec[START], rec[END]
            covered = 0.0
            reach = s
            kids = sorted((max(c[START], s), min(c[END], e))
                          for c in children.get(id(rec), ()))
            for a, b in kids:
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            agg = out.setdefault(rec[NAME], {"calls": 0, "self_s": 0.0,
                                             "work": 0, "extra": 0})
            agg["calls"] += 1
            agg["self_s"] += (e - s) - covered
            agg["work"] += rec[WORK]
            agg["extra"] += rec[EXTRA]
        return out
