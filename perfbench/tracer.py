"""Outside-in layer tracer.

Replaces public entry points of ``repro`` by timing wrappers, by
rebinding the module (or class) attribute that callers look up, so the
program under test is not edited. Each wrapped call is one span; spans
nest through a stack, and a layer's self time is its span durations
minus the time covered by child spans. Spans are folded into per-layer
totals in memory as they close (a heavy query makes ~10^6 Alg. 5
calls, too many to keep one record each).
"""
from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter
from typing import Any, Callable


class Tracer:
    """Per-layer busy time, self time, call counts and counters."""

    def __init__(self) -> None:
        self.total: Counter = Counter()   # layer -> inclusive seconds
        self.self_s: Counter = Counter()  # layer -> exclusive seconds
        self.calls: Counter = Counter()   # layer -> number of spans
        self.counts: Counter = Counter()  # named counters from hooks
        self._child: list[float] = []     # open spans' child time
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        hook: Callable[[Counter, tuple, Any, Any], None] | None = None,
        before: Callable[[tuple], Any] | None = None,
    ) -> None:
        """Rebind ``owner.attr`` to a span-recording wrapper.

        ``hook(counts, args, result, pre)`` runs after each call, outside
        the span; ``pre`` is ``before(args)`` taken just before the
        call, so a hook can diff a counter the callee mutates.
        """
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            pre = before(args) if before else None
            tracer._child.append(0.0)
            t0 = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._close(layer, perf_counter() - t0)
            if hook:
                hook(tracer.counts, args, out, pre)
            return out

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, orig))

    def _close(self, layer: str, dt: float) -> None:
        child = self._child.pop()
        if self._child:
            self._child[-1] += dt
        self.total[layer] += dt
        self.self_s[layer] += dt - child
        self.calls[layer] += 1

    def unwrap(self) -> None:
        """Restore every rebound attribute, newest first."""
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def require(self, layers: list[str]) -> None:
        """Fail when a layer the workload must enter saw no call, so a
        refactor that bypasses or inlines it shows as missing, not 0."""
        missing = [name for name in layers if self.calls[name] == 0]
        if missing:
            raise RuntimeError(
                f"traced layers never entered: {', '.join(missing)}; "
                "the entry point moved or was inlined"
            )
