"""Spans around maxdet's layer functions, recorded from outside the package.

A Tracer replaces a module attribute with a wrapper that records one span per
call: name, start, end, the index of the enclosing span and an optional
payload computed from the call's arguments and result.  Call sites that look
the attribute up at call time (``border_mod.search``, a module-global
``det_exact``) see the wrapper; names bound by ``from ... import`` are
patched in the module that uses them.  Spans stay in memory and are written
out once, after the timed pass.  Tracing is single-threaded: the benchmark
leaves MAXDET_THREADS unset, so trials run on the calling thread.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, payload]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, start: float | None = None) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter() if start is None else start,
                           None, parent, None])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, payload=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``payload(args, kwargs, result)`` may return a value stored with the
        span; it reads arguments of private functions, so if their shapes
        change it stores None rather than break the traced call.  A missing
        attribute is skipped, so a layer that a later version of the
        program deletes simply reports no time.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self.begin(name)
            index = self._stack[-1]
            try:
                result = original(*args, **kwargs)
            finally:
                self.end()
            if payload is not None:
                try:
                    self.spans[index][4] = payload(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass
            return result

        setattr(owner, attr, traced)

    # -- analysis -----------------------------------------------------------

    def of(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum((s[2] - s[1] for s in self.of(name)), 0.0)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time covered by child spans."""
        out: dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                pname = self.spans[parent][0]
                out[pname] -= end - start
        return out

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, payload) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "payload": payload}) + "\n")
