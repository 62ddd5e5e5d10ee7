"""Span tracer for the benchmark's traced run.

The tracer replaces each public function of the sblq modules, in every module
namespace that binds it, with a wrapper that records one span per call: span
id, name, start, end, parent span and thread.  A call from anywhere in the
package therefore lands in a span named after the defining module, e.g. the
``decompose`` bound in ``sblq.learner`` records ``spectral.decompose``.

Spans stay in memory until ``fold`` adds a pass's spans to the per-name
totals; the first folded pass's spans are kept, and ``write`` dumps them once
the run ends.  Observers turn a call's arguments or result into extra counts
taken where the work happens (lasso iterations, scanned grid points, bytes
written).
"""
from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    """Spans and counts of the calls into the wrapped functions.

    ``observers`` maps a span name to a function of (args, kwargs, result)
    that returns counts to add to ``counters``.
    """

    def __init__(self, observers=None):
        # (id, name, start, end, parent id or None, thread id, thread CPU
        # seconds for a root span or None)
        self.spans = []
        self.kept = []            # the spans of the first folded pass
        self.totals = {}          # name -> [calls, seconds inside, self seconds]
        self.passes = 0
        self.counters = defaultdict(float)
        self.installed = set()    # span names that have a wrapper
        self.broken = set()       # observers that failed on a changed signature
        self._observers = observers or {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []        # (owner, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _observe(self, name, args, kwargs, result):
        try:
            counts = self._observers[name](args, kwargs, result)
        except (AttributeError, TypeError, IndexError, KeyError, OSError):
            self.broken.add(name)
            return
        with self._lock:
            for key, value in counts.items():
                self.counters[key] += value

    def wrap(self, name, fn):
        observed = name in self._observers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            cpu_start = time.thread_time() if parent is None else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = None if cpu_start is None else time.thread_time() - cpu_start
                stack.pop()
                self.spans.append((span_id, name, start, end, parent,
                                   threading.get_ident(), cpu))
            if observed:
                self._observe(name, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, modules, methods=()):
        """Wrap every public sblq function bound in ``modules``, plus the
        listed ``(class, method name)`` pairs."""
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("sblq."):
                    continue
                if id(obj) not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrappers[id(obj)] = self.wrap(name, obj)
                    self.installed.add(name)
                self._patch(module, attr, wrappers[id(obj)])
        for cls, attr in methods:
            fn = getattr(cls, attr, None)
            if fn is None:
                continue
            name = f"{cls.__module__.rsplit('.', 1)[-1]}.{attr}"
            self._patch(cls, attr, self.wrap(name, fn))
            self.installed.add(name)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def fold(self):
        """Add the spans recorded since the last fold to ``totals``.

        Self time is a span's duration minus the durations of its direct
        children; children run on the caller's thread, so they nest inside it.
        """
        child_time = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for span_id, name, start, end, _, _, _ in self.spans:
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[span_id]
        if not self.kept:
            self.kept = self.spans
        self.spans = []
        self.passes += 1

    def parallel_efficiency(self, name, jobs):
        """For each unfolded span called ``name``: the CPU time of the root
        spans other threads ran inside it, over (jobs x its wall time).

        CPU time, not wall time, because a thread waiting for the interpreter
        lock is inside its span but not working.
        """
        ratios = []
        for _, span_name, start, end, _, thread, _ in self.spans:
            if span_name != name:
                continue
            busy = sum(cpu for _, _, s, e, parent, th, cpu in self.spans
                       if parent is None and th != thread and s >= start and e <= end)
            ratios.append(busy / (jobs * (end - start)))
        return ratios

    def write(self, path):
        """One JSON object per kept span; times in integer nanoseconds from
        the first span's start, threads numbered in order of appearance."""
        origin = min((span[2] for span in self.kept), default=0.0)
        threads = {}
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, thread, _ in self.kept:
                thread_no = threads.setdefault(thread, len(threads))
                fh.write(f'{{"id": {span_id}, "name": "{name}", '
                         f'"start_ns": {round((start - origin) * 1e9)}, '
                         f'"end_ns": {round((end - origin) * 1e9)}, '
                         f'"parent": {"null" if parent is None else parent}, '
                         f'"thread": {thread_no}}}\n')
