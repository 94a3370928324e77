"""Span and counter recording around discountcast's public functions.

The tracer never edits the package. It rebinds names at their import
sites for the duration of one traced pass: a module attribute such as
``discountcast.adaptive.spread_mc`` (the name ``adaptive`` looks up when
it calls the cascade kernel), or a method on a public class. ``uninstall``
puts every original back.

Spans (name, start, end, parent) are kept in memory up to a cap and
written once by the caller; per-name call counts, total time and self
time (a span's time minus the time of its traced children) are kept
for every call, so the aggregates stay exact when the span list is
capped. Private helpers are out of reach: ``BranchEstimator`` replays
its inner trajectories through ``adaptive._execute``, so those count
only inside ``adaptive.branch.s`` and never as ``adaptive.trajectories``.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

SPAN_CAP = 50_000


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP):
        self.span_cap = span_cap
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # frames: [child seconds, span id]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _run(self, name: str, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [0.0, span_id]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent[0] += dur
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - frame[0]
            if len(self.spans) < self.span_cap:
                self.spans.append((span_id, name, t0, t1, -1 if parent is None else parent[1]))
            else:
                self.dropped += 1

    def timed(self, name: str, fn, after=None):
        """Wrap `fn` in a span; `after(result, args, kwargs)` may add counts."""
        run = self._run

        def wrapper(*args, **kwargs):
            result = run(name, fn, args, kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_generator(self, name: str, fn, item_counter: str):
        """Wrap a generator function: each step is a span, each item a count."""
        run = self._run
        counts = self.counts

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = run(name, next, (inner,), {})
                except StopIteration:
                    return
                counts[item_counter] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, on_call):
        """Wrap `fn` without a span; `on_call(result, args, kwargs)` records counts."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_call(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Rebind `owner.attr` to `make(original)` until `uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def patch_sites(self, sites, make) -> int:
        """Patch every (module name, attribute) site that exists; returns how many.

        Sites bound to one object share one wrapper, so a call is
        recorded once whichever site it went through.
        """
        wrappers: dict[int, object] = {}
        patched = 0
        for module_name, attr in sites:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = make(original)
            wrapper = wrappers[id(original)]
            self.patch(module, attr, lambda _orig, w=wrapper: w)
            patched += 1
        return patched

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "span_fields": ["id", "name", "start_s", "end_s", "parent_id"],
            "spans_dropped": self.dropped,
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }
