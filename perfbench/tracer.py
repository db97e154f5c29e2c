"""Spans and counters around the package's layer boundaries, for one traced run.

The tracer replaces module attributes (and two methods) with thin wrappers
for the duration of a run and puts the originals back afterwards.  A name is
rebound in every ``lawsonarea`` module that holds the same object, because
callers look the name up in their own module's globals: ``engine`` finds
``cached_table`` and ``parse_phi`` under its own namespace, ``omega.build_table``
finds ``chen_compose`` in ``omega``.

Spans measure the process's CPU time (``time.process_time``): the traced
process is single-threaded, so that is its busy time, whatever else shares
its core.  A span's self time is its duration minus the time of the spans it
called directly; spans measured inside a parent never overlap, so their sum
cannot exceed the parent's duration.
"""

from __future__ import annotations

import functools
import sys
import time

_MARK = "__perfbench_wrapper__"


class Tracer:
    def __init__(self):
        self.spans: dict[str, dict] = {}     # name -> calls, total_s, child_s
        self.counts: dict[str, float] = {}
        self._stack: list[list[float]] = []  # child time of each open span
        self._undo: list[tuple] = []         # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _timed(self, label, fn, on_result):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label(*args, **kwargs) if callable(label) else label
            frame = [0.0]
            stack.append(frame)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.process_time() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                rec = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "child_s": 0.0})
                rec["calls"] += 1
                rec["total_s"] += elapsed
                rec["child_s"] += frame[0]
            if on_result is not None:
                on_result(result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _counted(self, name, fn, on_result):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- installing -------------------------------------------------------

    def span(self, module, attr: str, label=None, on_result=None) -> None:
        """Time every call of ``module.attr`` under ``label`` (default module.attr)."""
        label = label or f"{_short(module)}.{attr}"
        self._rebind(module, attr, lambda fn: self._timed(label, fn, on_result))

    def counter(self, module, attr: str, name=None, on_result=None) -> None:
        """Count the calls of ``module.attr``, without timing them."""
        name = name or f"{_short(module)}.{attr}.calls"
        self._rebind(module, attr, lambda fn: self._counted(name, fn, on_result))

    def method_span(self, cls, attr: str, label: str) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._timed(label, original, None))

    def method_counter(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._counted(name, original, None))

    def _rebind(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def leftover_wrappers(self) -> list[str]:
        """Names under ``lawsonarea`` still bound to a wrapper (empty once restored)."""
        left = []
        for mod in _package_modules():
            for name, value in vars(mod).items():
                if getattr(value, _MARK, False):
                    left.append(f"{mod.__name__}.{name}")
                elif isinstance(value, type):
                    left += [f"{mod.__name__}.{name}.{m}" for m, v in vars(value).items()
                             if getattr(v, _MARK, False)]
        return left

    def report(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _short(module) -> str:
    return module.__name__.rpartition(".")[2]


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "lawsonarea" or n.startswith("lawsonarea."))]
