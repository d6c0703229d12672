"""Span tracer that wraps library callables from the outside.

A span is one call of a wrapped callable: its name, start, end and the
name of the span open around it.  Hot spans (millions of field
multiplies) are aggregated per (name, parent) into call count, total
time and self time, where self time is the span's duration minus the
durations of its direct children; single-threaded calls nest properly,
so the children never overlap and never leave the parent's interval.
Spans opened at depth below ``KEEP_DEPTH`` (a request and the library
calls it makes directly) are also kept one by one, tagged with the
current request, and written out at the end.

Wrapping is done by ``patch`` and undone by ``restore``; a Tracer that
patched nothing costs nothing.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

KEEP_DEPTH = 2


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.request = None
        self.agg: dict[tuple[str, str | None], list] = {}  # -> [calls, total_s, self_s]
        self.spans: list[tuple] = []  # (name, start, end, parent, request)
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # open spans: [name, start, child_s]
        self._patched: list[tuple] = []  # (holder, attr, original)

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        stack = self._stack
        name, start, child_s = stack.pop()
        dur = end - start
        if stack:
            parent = stack[-1][0]
            stack[-1][2] += dur
        else:
            parent = None
        rec = self.agg.get((name, parent))
        if rec is None:
            rec = self.agg[(name, parent)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child_s
        if len(stack) < KEEP_DEPTH:
            self.spans.append((name, start, end, parent, self.request))

    def parent(self) -> str | None:
        """Name of the innermost open span."""
        return self._stack[-1][0] if self._stack else None

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- aggregates ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(rec[0] for (n, _), rec in self.agg.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(rec[2] for (n, _), rec in self.agg.items() if n == name)

    def self_s_sum(self) -> float:
        return sum(rec[2] for rec in self.agg.values())

    def dump(self, path) -> None:
        """Write the aggregates and the kept spans as JSON."""
        out = {
            "aggregates": [{"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                           for (n, p), (c, t, s) in sorted(
                               self.agg.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))],
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "request": r}
                      for n, s, e, p, r in self.spans],
            "counters": self.counters,
        }
        with open(path, "w") as fh:
            json.dump(out, fh)

    # -- wrapping ----------------------------------------------------------------

    def wrap(self, fn, name, after=None):
        """A wrapper that records a span around each call of ``fn``.

        ``name`` is a string, or a function of the call's positional
        arguments returning one (to split a method into lanes).
        ``after(args, kwargs, result)`` runs once the span has closed.
        Generator functions get a span around each resumption instead.
        """
        enter, exit_ = self.enter, self.exit
        fixed = isinstance(name, str)
        if inspect.isgeneratorfunction(fn):
            if not fixed:
                raise TypeError("generator spans need a fixed name")
            count = self.count

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_()
                    count(name + ".yielded")
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name if fixed else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(args, kwargs, result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def patch(self, holder, attr: str, replacement) -> None:
        """Set ``holder.attr`` to ``replacement``, remembering the original."""
        original = (holder.__dict__[attr] if isinstance(holder, type)
                    else getattr(holder, attr))
        self._patched.append((holder, attr, original))
        setattr(holder, attr, replacement)

    def patch_everywhere(self, modules, original, replacement) -> None:
        """Rebind every public module attribute that is ``original``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original and not attr.startswith("_"):
                    self.patch(mod, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)
