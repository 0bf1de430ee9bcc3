"""Span recorder that traces a library from outside it.

The recorder replaces functions held as module attributes with wrappers
that record one span per call, and puts the originals back afterwards.
grasscrit's modules call each other through module attributes
(``core.exp``, ``schubert.svd``, ``search.least_squares``) and through
module globals, so wrapping the attributes sees calls across and within
layers without any tracing code inside the library.

Spans nest on a stack.  A span's self time is its duration minus the
durations of its direct children; calls are sequential in one thread,
so the children never overlap and their sum is the part of the parent's
interval they cover.  Spans are aggregated per name as they close, so a
long traced run keeps one duration per call and nothing more.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    """Collects span durations, self times and counters by name.

    ``clock`` returns integer nanoseconds; tests pass a fake clock.
    ``on_result`` maps a span name to a callable that receives the
    wrapped function's return value, for counts the result carries
    (such as a solver's function evaluations).
    """

    def __init__(self, clock=time.perf_counter_ns, on_result=None):
        self.clock = clock
        self.on_result = dict(on_result or {})
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # open spans: [name, start_ns, children_ns]
        self._stack: list[list] = []
        # (owner, attribute, original, wrapper)
        self._patches: list[tuple[object, str, object, object]] = []

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call records a span called ``name``."""
        rec = self
        hook = self.on_result.get(name)

        def wrapper(*args, **kwargs):
            frame = [name, rec.clock(), 0]
            rec._stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = rec.clock()
                rec._stack.pop()
                dur = end - frame[1]
                rec.durations[name].append(dur)
                rec.self_ns[name] += dur - frame[2]
                if rec._stack:
                    rec._stack[-1][2] += dur
            if hook is not None:
                hook(out)
            return out

        return wrapper

    def counter(self, name: str, fn, inside: str | None = None):
        """Wrap ``fn`` to count calls only (no span, so no self time).

        With ``inside`` set, calls made while a span of that name is open
        are also counted under ``name + "@" + inside``.
        """
        rec = self

        def wrapper(*args, **kwargs):
            rec.counts[name] += 1
            if inside is not None and any(f[0] == inside for f in rec._stack):
                rec.counts[name + "@" + inside] += 1
            return fn(*args, **kwargs)

        return wrapper

    def replace(self, owner, attr: str, wrapper) -> None:
        """Register ``wrapper`` to stand in for ``owner.attr`` while installed."""
        self._patches.append((owner, attr, owner.__dict__[attr], wrapper))

    def wrap_public_functions(self, modules, package: str) -> None:
        """Register a span named ``<module>.<function>``, after the module
        that defines it, for every public function attribute of
        ``modules`` that is defined in ``package``."""
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                origin = obj.__module__ or ""
                if not origin.startswith(package + "."):
                    continue
                name = origin.rsplit(".", 1)[1] + "." + obj.__name__
                self.replace(mod, attr, self.span(name, obj))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every registered attribute's original, newest first."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def module_self_ms(self) -> dict[str, float]:
        """Self time summed per module prefix of the span names, in ms."""
        out: dict[str, float] = defaultdict(float)
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns / 1e6
        return dict(out)

    def module_calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, durs in self.durations.items():
            out[name.split(".", 1)[0]] += len(durs)
        return dict(out)
