"""An outside-in span tracer: wraps functions of the program from outside.

The program under test carries no tracing code of its own for this
benchmark.  :class:`Tracer` replaces chosen attributes (methods on classes,
functions on modules) with timing wrappers, keeps a stack of open spans,
and aggregates per layer:

- ``calls[layer]``: spans closed;
- ``self_s[layer]``: exclusive time — each span's duration minus the
  durations of its child spans and minus any garbage collection that ran
  directly inside it;
- ``durations[layer]``: inclusive span durations, for layers that ask;
- ``gc``: cyclic-GC passes observed through :data:`gc.callbacks`; their
  time is the ``gc`` layer's self time.

The outermost span is opened with :meth:`Tracer.root`; its self time is the
time no wrapped layer and no GC pass claims.  By construction, the self
times of all layers (root and ``gc`` included) add up to the root span's
duration.  :meth:`Tracer.uninstall` restores every replaced attribute.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager

GC_LAYER = "gc"


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls = defaultdict(int)
        self.calls_by_target = defaultdict(int)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.gc_collections = 0
        self.gc_gen2_collections = 0
        self.wall_s = 0.0
        # Each open span is a two-item list: [start, time claimed by
        # children and GC passes directly inside it].
        self._stack = []
        self._patches = []
        self._gc_started = None
        self._installed = False

    # -- wrapping --------------------------------------------------------

    def wrap(self, owner, attr, layer, keep_durations=False, observe=None):
        """Time every call of ``owner.attr`` as a span of ``layer``.

        ``observe(args, result)``, when given, runs after the span closes,
        to read work counts off the call.
        """
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        clock = self.clock
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        durations = self.durations[layer] if keep_durations else None
        target = f"{getattr(owner, '__name__', owner)}.{attr}"
        calls_by_target = self.calls_by_target

        @functools.wraps(original)
        def span(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                self_s[layer] += duration - frame[1]
                calls[layer] += 1
                calls_by_target[target] += 1
                if stack:
                    stack[-1][1] += duration
                if durations is not None:
                    durations.append(duration)
            if observe is not None:
                observe(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, span)
        self._install_hooks()

    @contextmanager
    def root(self, layer):
        """The outermost span; its duration is the traced wall clock."""
        frame = [self.clock(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = self.clock() - frame[0]
            self._stack.pop()
            if self._stack:
                raise RuntimeError("spans left open inside the root span")
            self.self_s[layer] += duration - frame[1]
            self.calls[layer] += 1
            self.wall_s += duration

    # -- garbage collection ------------------------------------------------

    def _on_gc(self, phase, info):
        if not self._stack:
            return  # outside the root span: not part of the traced run
        if phase == "start":
            self._gc_started = self.clock()
            return
        if self._gc_started is None:
            return
        duration = self.clock() - self._gc_started
        self._gc_started = None
        self.self_s[GC_LAYER] += duration
        self.gc_collections += 1
        if info.get("generation") == 2:
            self.gc_gen2_collections += 1
        self._stack[-1][1] += duration

    # -- install / uninstall -------------------------------------------------

    def _install_hooks(self):
        if self._installed:
            return
        self._installed = True
        gc.callbacks.append(self._on_gc)
        # Forked worker processes run untraced: their spans would never
        # reach this process anyway.
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    def _after_fork_in_child(self):
        if self._installed:
            self.uninstall()

    def uninstall(self):
        """Restore every wrapped attribute and stop observing GC."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._installed:
            gc.callbacks.remove(self._on_gc)
            self._installed = False


def percentile_us(values, fraction) -> float:
    """Nearest-rank percentile of seconds ``values``, in microseconds."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[index] * 1e6
