"""Spans and call counts for teich2, installed from outside the package.

``Tracer.install`` replaces each traced function in every ``teich2`` module
namespace that binds it, since ``cli`` and ``validation`` import functions by
name, and ``uninstall`` puts the originals back.  L0 (``hyperbolic``) calls
are only counted: a span around each sub-microsecond call would cost more
than the call.  Public functions of L1-L5 get a span each: name, span id,
parent span id, job id, thread, wall start and end.  Spans are kept in memory
and written out by ``write``.

Self time is thread CPU time: the span's CPU time minus that of its child
spans on the same thread.  ``validate`` runs its grid points on a thread
pool, so wall-clock spans there would also count the time other threads
held the interpreter lock.  A span opened on a worker thread takes the
innermost open span of the main thread as its parent.
"""

from __future__ import annotations

import gzip
import inspect
import itertools
import sys
import threading
import time
from array import array
from collections import Counter

LAYERS = ("octagon", "group", "fenchel_nielsen", "isoperimetric",
          "validation", "serialization", "cli")

# public helpers called once per scalar evaluation, per parameter object or
# per formatted float; their time stays with the caller
UNTRACED = frozenset({
    "octagon.lower_a", "octagon.b_of", "octagon.perimeter_ab",
    "fenchel_nielsen.wp_coefficient_raw", "isoperimetric.e_of_a",
    "serialization.format_float", "cli.main",
})

# counted, not spanned: L0, plus orbit_point, whose time belongs to orbit_samples
COUNTED = frozenset({"hyperbolic.dist", "hyperbolic.projective_gap", "isoperimetric.orbit_point"})
MOBIUS = "hyperbolic.MobiusTransform"


def _nbytes(text: str) -> int:
    return len(text.encode("utf-8"))


# extra work counters taken from a traced function's result
RESULT_COUNTERS = {
    "group.ball": ("elements", len),
    "isoperimetric.wp_area": ("neval", lambda r: r.evaluations),
    "serialization.svg_text": ("bytes", _nbytes),
    "serialization.csv_text": ("bytes", _nbytes),
    "serialization.json_text": ("bytes", _nbytes),
}


class _ThreadLog:
    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[list] = []  # [span id, CPU time of children]
        self.counts: Counter = Counter()
        self.name = array("i")
        self.span = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_cpu = array("d")


class Tracer:
    """Install with ``install()``, set ``job`` before each job, ``uninstall()`` after."""

    def __init__(self):
        self.job = -1
        self.names: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._main = self._log()
        self._patched: list[tuple[object, str, object]] = []

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
            return log

    def _root_parent(self) -> int:
        try:
            return self._main.stack[-1][0]
        except IndexError:
            return -1

    def _span(self, qualname: str, fn):
        index = len(self.names)
        self.names.append(qualname)
        counter = RESULT_COUNTERS.get(qualname)
        wall, cpu = time.perf_counter, time.thread_time

        def wrapper(*args, **kwargs):
            log = self._log()
            stack = log.stack
            parent = stack[-1][0] if stack else self._root_parent()
            frame = [next(self._ids), 0.0]
            stack.append(frame)
            w0 = wall()
            c0 = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = cpu() - c0
                w1 = wall()
                stack.pop()
                if stack:
                    stack[-1][1] += spent
                log.name.append(index)
                log.span.append(frame[0])
                log.parent.append(parent)
                log.job.append(self.job)
                log.start.append(w0)
                log.end.append(w1)
                log.self_cpu.append(spent - frame[1])
            if counter is not None:
                log.counts[f"{qualname}.{counter[0]}"] += counter[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, qualname: str, fn):
        def wrapper(*args, **kwargs):
            self._log().counts[qualname] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import teich2.hyperbolic as hyperbolic

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "teich2" or name.startswith("teich2.")]
        wrappers = {}
        for layer in ("hyperbolic",) + LAYERS:
            mod = sys.modules[f"teich2.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                qualname = f"{layer}.{name}"
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if qualname in COUNTED:
                    wrappers[id(fn)] = self._counter(qualname, fn)
                elif layer != "hyperbolic" and qualname not in UNTRACED:
                    wrappers[id(fn)] = self._span(qualname, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        cls = hyperbolic.MobiusTransform
        self._patched.append((cls, "__post_init__", cls.__post_init__))
        cls.__post_init__ = self._counter(MOBIUS, cls.__post_init__)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """(span count, self seconds, counters), each keyed by qualified name."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        counts: Counter = Counter()
        for log in self._logs:
            counts.update(log.counts)
            for index, spent in zip(log.name, log.self_cpu):
                calls[self.names[index]] += 1
                self_s[self.names[index]] += spent
        return calls, self_s, counts

    def span_count(self) -> int:
        return sum(len(log.span) for log in self._logs)

    def write(self, path) -> None:
        """Write every span as gzipped CSV, one row per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1, newline="") as fh:
            fh.write("span,parent,job,thread,name,start_s,end_s,self_cpu_s\n")
            for log in self._logs:
                for row in zip(log.span, log.parent, log.job, log.name,
                               log.start, log.end, log.self_cpu):
                    sid, parent, job, index, start, end, spent = row
                    fh.write(f"{sid},{parent},{job},{log.thread},{self.names[index]},"
                             f"{start:.9f},{end:.9f},{spent:.9f}\n")
