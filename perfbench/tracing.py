"""Span tracing from outside the program.

The benchmark never edits ``src/``: :class:`Tracer` wraps the public
functions that mark each layer boundary (``FSM.plan_query``,
``FederationRuntime.scan_extents``, ``lift_facts``, ``FactStore.copy``,
``evaluate``, ``QueryEngine.ask``, the executors' fan-out entry points,
``SourceAdapter.scan``, ``Tenant.query``, ``FSM.integrate_all``) for as
long as it is installed, and records one span per call: name, start,
end, parent span, query id and a work count.  Spans stay in memory and
are written out at the end of the run.

A span's parent is the innermost open span on the same thread.  Agent
scans run on executor threads (or the async loop thread); a span that
opens on a thread with no open span adopts the most recent open fan-out
span, so scans land under the fan-out that dispatched them.  With
concurrent clients that choice can pick a neighbour's fan-out; the
per-layer totals do not depend on it.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: span name of the executors' fan-out entry points
FAN_OUT = "runtime.fan_out"

Counter = Optional[Callable[[Tuple[Any, ...], Any], int]]


@dataclasses.dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    query_id: int
    name: str
    thread: int
    start: float
    end: float = 0.0
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _result_len(args: Tuple[Any, ...], result: Any) -> int:
    return len(result)


def _self_len(args: Tuple[Any, ...], result: Any) -> int:
    return len(args[0])


def _derived(args: Tuple[Any, ...], result: Any) -> int:
    return len(result) - len(args[1])


def _pruned(args: Tuple[Any, ...], result: Any) -> int:
    return len(result.pruned) if result is not None else 0


def layer_targets() -> List[Tuple[Any, str, str, Counter]]:
    """``(owner, attribute, span name, counter)`` per traced boundary.

    Module-level functions are patched in the module that calls them
    (``lift_facts`` in ``federation.evaluation``, ``evaluate`` in
    ``logic.engine``), because callers look them up there.
    """
    from repro.federation import evaluation
    from repro.federation.fsm import FSM
    from repro.logic import engine
    from repro.runtime.async_executor import AsyncFederationExecutor
    from repro.runtime.executor import FederationExecutor
    from repro.runtime.runtime import FederationRuntime
    from repro.service.tenancy import Tenant
    from repro.sources.base import SourceAdapter

    targets: List[Tuple[Any, str, str, Counter]] = [
        (FSM, "integrate_all", "integration.integrate", None),
        (FSM, "query", "fsm.query", None),
        (FSM, "plan_query", "runtime.planner.plan", _pruned),
        (FederationRuntime, "scan_extents", "runtime.scan_extents", None),
        (SourceAdapter, "scan", "sources.scan", _result_len),
        (evaluation, "lift_facts", "federation.lift", _result_len),
        (engine.FactStore, "copy", "logic.copy", _self_len),
        (engine, "evaluate", "logic.materialize", _derived),
        (engine.QueryEngine, "ask", "logic.ask", None),
        (Tenant, "query", "service.tenant_query", None),
    ]
    for executor in (FederationExecutor, AsyncFederationExecutor):
        for attribute in ("run", "run_coalesced", "run_sharded"):
            targets.append((executor, attribute, FAN_OUT, None))
    return targets


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._open_fan_outs: Dict[int, Span] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str) -> Span:
        stack = self._stack()
        parent: Optional[Span] = stack[-1] if stack else None
        if parent is None:
            with self._lock:
                if self._open_fan_outs:
                    parent = self._open_fan_outs[max(self._open_fan_outs)]
        span_id = next(self._ids)
        span = Span(
            span_id,
            parent.span_id if parent is not None else None,
            parent.query_id if parent is not None else span_id,
            name,
            threading.get_ident(),
            time.perf_counter(),
        )
        stack.append(span)
        if name == FAN_OUT:
            with self._lock:
                self._open_fan_outs[span_id] = span
        return span

    def finish(self, span: Span, count: int = 0) -> None:
        span.end = time.perf_counter()
        span.count = count
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self._open_fan_outs.pop(span.span_id, None)
            self.spans.append(span)

    # ------------------------------------------------------------------
    def _wrap(self, original: Callable[..., Any], name: str, counter: Counter):
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            if stack and stack[-1].name == name:
                # run_coalesced -> run and the like: one span per layer entry
                return original(*args, **kwargs)
            span = tracer.start(name)
            count = 0
            try:
                result = original(*args, **kwargs)
                if counter is not None:
                    count = counter(args, result)
                return result
            finally:
                tracer.finish(span, count)

        return traced

    def install(self) -> None:
        """Replace every layer boundary with its traced wrapper (idempotent)."""
        if self._patches:
            return
        for owner, attribute, name, counter in layer_targets():
            original = vars(owner)[attribute]
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        with self._lock:
            spans = sorted(self.spans, key=lambda span: span.start)
        origin = spans[0].start if spans else 0.0
        selfs = self_times(spans)
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                record = dataclasses.asdict(span)
                record["start"] = round((span.start - origin) * 1000.0, 4)
                record["end"] = round((span.end - origin) * 1000.0, 4)
                record["self_ms"] = round(selfs[span.span_id] * 1000.0, 4)
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _covered(interval: Tuple[float, float], parts: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of *interval* covered by the union of *parts*."""
    low, high = interval
    clipped = sorted(
        (max(start, low), min(end, high)) for start, end in parts if end > low and start < high
    )
    covered = 0.0
    cursor = low
    for start, end in clipped:
        if end <= cursor:
            continue
        covered += end - max(start, cursor)
        cursor = end
    return covered


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Seconds of each span not covered by its children."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    return {
        span.span_id: span.duration
        - _covered((span.start, span.end), children.get(span.span_id, ()))
        for span in spans
    }


@dataclasses.dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0


def layer_totals(
    spans: Sequence[Span], scale: Callable[[Span], float] = lambda span: 1.0
) -> Dict[str, LayerTotals]:
    """Per span name: calls, inclusive and self seconds (each multiplied
    by *scale* of its span), summed counts."""
    selfs = self_times(spans)
    totals: Dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span in spans:
        entry = totals[span.name]
        factor = scale(span)
        entry.calls += 1
        entry.total_s += span.duration * factor
        entry.self_s += selfs[span.span_id] * factor
        entry.count += span.count
    return totals
