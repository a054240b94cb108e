"""In-memory span tracer for the benchmark's traced run.

The tracer wraps every public function of each program module at every place
a module binds it. The program's modules import names directly
(``from .numerics import solve_care``), so patching only the defining module
would miss most calls: ``Tracer`` rebinds the name in every module it is
given, including tuples of functions such as ``acceptance.ALL_CHECKS``.

Each call records one span ``(name, parent, op, start_ns, end_ns)``. Spans
stay in a list in memory while the traced code runs; ``dump`` writes them
out afterwards. A span's self time is its duration minus the durations of
its direct children. Calls are single-threaded, so children nest inside
their parent's interval and self times are never negative.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

NO_PARENT = -1


def public_functions(layers: dict) -> dict:
    """``{id(fn): (span name, fn)}`` for the public functions each layer defines."""
    found = {}
    for layer, module in layers.items():
        for name, value in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                found[id(value)] = (f"{layer}.{name}", value)
    return found


class Tracer:
    """Records spans for calls into the program while ``active()``."""

    def __init__(self, layers: dict, binding_modules=()):
        self.binding_modules = list(layers.values()) + list(binding_modules)
        self.spans: list = []
        self.op = NO_PARENT
        self._stack: list = []
        self._wrappers = {
            key: self._wrap(name, fn) for key, (name, fn) in public_functions(layers).items()
        }

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else NO_PARENT
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, self.op, start, end)

        return traced

    def _rebound(self, value):
        """The traced replacement for a binding, or None if it needs none."""
        if callable(value):
            return self._wrappers.get(id(value))
        if isinstance(value, tuple):
            items = [self._rebound(item) for item in value]
            if any(item is not None for item in items):
                return tuple(new if new is not None else old for new, old in zip(items, value))
        return None

    @contextmanager
    def active(self):
        """Rebind every wrapped name for the duration of the block."""
        undo = []
        try:
            for module in self.binding_modules:
                for name, value in list(vars(module).items()):
                    new = self._rebound(value)
                    if new is not None:
                        undo.append((module, name, value))
                        setattr(module, name, new)
            yield self
        finally:
            for module, name, value in reversed(undo):
                setattr(module, name, value)

    def dump(self, path: str) -> None:
        """Write every span as gzip-compressed CSV, one row per span."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as out:
            out.write("id,name,parent,op,start_ns,end_ns\n")
            for index, (name, parent, op, start, end) in enumerate(self.spans):
                out.write(f"{index},{name},{parent},{op},{start},{end}\n")


def self_times(spans) -> list:
    """Duration minus the summed durations of each span's direct children."""
    own = [end - start for _, _, _, start, end in spans]
    for _, parent, _, start, end in spans:
        if parent != NO_PARENT:
            own[parent] -= end - start
    return own


def summarize(spans) -> dict:
    """Per span name: call count, durations (ns) and summed self time (ns)."""
    stats = defaultdict(lambda: {"calls": 0, "durations": [], "self_ns": 0})
    for span, own in zip(spans, self_times(spans)):
        entry = stats[span[0]]
        entry["calls"] += 1
        entry["durations"].append(span[4] - span[3])
        entry["self_ns"] += own
    return dict(stats)


def layer_self_ns(spans) -> dict:
    """Summed self time per layer, the part of each span name before the first dot."""
    totals: dict = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0].split(".", 1)[0]] += own
    return dict(totals)
