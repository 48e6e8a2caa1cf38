"""Runtime metrics: counters, phase timers, per-agent access histograms.

The paper's autonomy argument is *counted* — the FSM only ever fetches
single concept extensions from agents (§3, Appendix B) — and the
ROADMAP's heavy-traffic goal needs the hot path visible.  This module
makes both observable: a thread-safe :class:`RuntimeMetrics` collector
the executor and cache write into, and an immutable :class:`RuntimeStats`
snapshot with delta arithmetic (``after - before``) so callers can
attribute counts to a single query.

Counter vocabulary (all monotonic):

``requests``            scans asked of the runtime
``cache_hits`` / ``cache_misses``   extent-cache outcomes
``agent_scans``         granules that reached the transport
``round_trips``         dispatches on the wire (a coalesced batch of N
                        granules is N ``agent_scans`` but 1 round-trip;
                        unplanned traffic has the two counters equal)
``retries``             re-attempts after a failure
``transport_failures`` / ``timeouts``   failed attempts by kind
``breaker_trips``       circuits opened
``circuit_rejections``  calls fast-failed while a circuit was open
``scan_failures``       scans that exhausted retries
``partial_results``     fan-outs degraded to partial answers
``sharded_scans``       logical scans answered by scatter/merge
``missing_shards``      shard slices absent from a merged answer
``cache_restores``      entries reloaded from a persistent extent store
``planned_queries``     queries the planner pruned/coalesced
``pruned_classes``      integrated classes skipped by query-time pruning
``lost_granules``       granules lost when their batch's dispatch failed
``deltas_applied``      delta-feed version steps replayed into the cache
``granules_patched``    cache variants patched in place by delta chains
``fallback_invalidations``  variants evicted because a delta chain could
                        not patch them (gap / rescan marker / value-set
                        delete) — targeted eviction, never a full bump
``view_hits``           lifting units a query answered from the FSM's
                        maintained federation view, their granule stamp
                        unchanged
``granules_relifted``   lifting units a query re-lifted into the view
                        (changed, unstamped or new granules); a warm
                        read re-lifts 0.  Both are always reported, 0
                        included (:meth:`RuntimeStats.reported_counters`)

Timer vocabulary includes the ``persistence`` phase: every persistent
extent-store interaction (the warm-restart reload, spills on fill,
write-through invalidations) accumulates there, so the disk tier's cost
is visible next to ``fan_out`` and ``query``.

Sharded runs additionally record *which* shard endpoints went missing:
:attr:`RuntimeStats.missing_shards` maps ``agent#index/of`` endpoint
names to how many merges they were absent from — the exact account the
partial failure policy promises (ISSUE 4).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, NamedTuple, Optional


class TimerStats(NamedTuple):
    """Aggregate wall-clock of one phase."""

    count: int
    total: float
    max: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class RuntimeStats:
    """An immutable snapshot of the collector; supports ``a - b`` deltas."""

    def __init__(
        self,
        counters: Mapping[str, int],
        agent_scans: Mapping[str, int],
        timers: Mapping[str, TimerStats],
        missing_shards: Optional[Mapping[str, int]] = None,
        agent_round_trips: Optional[Mapping[str, int]] = None,
        lost_granules: Optional[Mapping[str, int]] = None,
        fallback_invalidations: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.counters: Dict[str, int] = dict(counters)
        self.agent_scans: Dict[str, int] = dict(agent_scans)
        self.timers: Dict[str, TimerStats] = dict(timers)
        #: shard endpoints absent from merged answers -> occurrence count
        self.missing_shards: Dict[str, int] = dict(missing_shards or {})
        #: wire dispatches per endpoint — the planner's coalescing win
        #: shows as this histogram dropping below :attr:`agent_scans`
        self.agent_round_trips: Dict[str, int] = dict(agent_round_trips or {})
        #: granule descriptions lost to failed batch dispatches -> count,
        #: the exact account a degraded planned fan-out owes the caller
        self.lost_granules: Dict[str, int] = dict(lost_granules or {})
        #: granule descriptions evicted by the delta fallback -> count —
        #: names exactly which variants a broken feed forced to rescan
        self.fallback_invalidations: Dict[str, int] = dict(
            fallback_invalidations or {}
        )

    #: counters reported even at 0: a warm read shows its 0 re-lifts
    ALWAYS_REPORTED = ("granules_relifted", "view_hits")

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    @property
    def view_hits(self) -> int:
        """Lifting units answered from the maintained view."""
        return self.counter("view_hits")

    @property
    def granules_relifted(self) -> int:
        """Lifting units re-lifted into the maintained view."""
        return self.counter("granules_relifted")

    def reported_counters(self) -> Dict[str, int]:
        """:attr:`counters` plus every :attr:`ALWAYS_REPORTED` one, sorted."""
        counters = dict.fromkeys(self.ALWAYS_REPORTED, 0)
        counters.update(self.counters)
        return {name: counters[name] for name in sorted(counters)}

    def __sub__(self, earlier: "RuntimeStats") -> "RuntimeStats":
        counters = {
            name: value - earlier.counters.get(name, 0)
            for name, value in self.counters.items()
        }
        scans = {
            agent: value - earlier.agent_scans.get(agent, 0)
            for agent, value in self.agent_scans.items()
        }
        missing = {
            endpoint: value - earlier.missing_shards.get(endpoint, 0)
            for endpoint, value in self.missing_shards.items()
        }
        trips = {
            endpoint: value - earlier.agent_round_trips.get(endpoint, 0)
            for endpoint, value in self.agent_round_trips.items()
        }
        lost = {
            granule: value - earlier.lost_granules.get(granule, 0)
            for granule, value in self.lost_granules.items()
        }
        fallbacks = {
            granule: value - earlier.fallback_invalidations.get(granule, 0)
            for granule, value in self.fallback_invalidations.items()
        }
        timers = {}
        for phase, stats in self.timers.items():
            prior = earlier.timers.get(phase, TimerStats(0, 0.0, 0.0))
            delta_total = stats.total - prior.total
            # the true max of just the new samples is unrecoverable from
            # aggregates; their sum bounds it, and so does the overall max
            timers[phase] = TimerStats(
                stats.count - prior.count, delta_total, min(stats.max, delta_total)
            )
        return RuntimeStats(
            {k: v for k, v in counters.items() if v},
            {k: v for k, v in scans.items() if v},
            {k: v for k, v in timers.items() if v.count},
            {k: v for k, v in missing.items() if v},
            {k: v for k, v in trips.items() if v},
            {k: v for k, v in lost.items() if v},
            {k: v for k, v in fallbacks.items() if v},
        )

    def describe(self) -> str:
        """A readable report (the CLI's ``--stats`` output)."""
        lines = ["runtime stats:"]
        for name, value in self.reported_counters().items():
            lines.append(f"  {name:<22} {value}")
        if self.agent_scans:
            lines.append("  agent scans:")
            for agent in sorted(self.agent_scans):
                lines.append(f"    {agent:<20} {self.agent_scans[agent]}")
        if self.agent_round_trips:
            lines.append("  agent round-trips:")
            for endpoint in sorted(self.agent_round_trips):
                lines.append(
                    f"    {endpoint:<20} {self.agent_round_trips[endpoint]}"
                )
        if self.lost_granules:
            lines.append("  lost granules:")
            for granule in sorted(self.lost_granules):
                lines.append(f"    {granule:<20} {self.lost_granules[granule]}")
        if self.fallback_invalidations:
            lines.append("  fallback invalidations:")
            for granule in sorted(self.fallback_invalidations):
                lines.append(
                    f"    {granule:<20} {self.fallback_invalidations[granule]}"
                )
        if self.missing_shards:
            lines.append("  missing shards:")
            for endpoint in sorted(self.missing_shards):
                lines.append(f"    {endpoint:<20} {self.missing_shards[endpoint]}")
        if self.timers:
            lines.append("  phases:")
            for phase in sorted(self.timers):
                stats = self.timers[phase]
                lines.append(
                    f"    {phase:<20} n={stats.count}  "
                    f"total={stats.total * 1000:.2f}ms  "
                    f"mean={stats.mean * 1000:.2f}ms  "
                    f"max={stats.max * 1000:.2f}ms"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RuntimeStats({self.counters!r}, agents={self.agent_scans!r})"


class RuntimeMetrics:
    """Thread-safe collector the runtime components write into."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._agent_scans: Dict[str, int] = {}
        self._timers: Dict[str, TimerStats] = {}
        self._missing_shards: Dict[str, int] = {}
        self._agent_round_trips: Dict[str, int] = {}
        self._lost_granules: Dict[str, int] = {}
        self._fallback_invalidations: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def record_agent_scan(self, agent: str, count: int = 1) -> None:
        """*count* granules reached the transport for *agent* (a batch of
        N granules records N, keeping this histogram dispatch-shape
        independent — planned and unplanned runs scan the same granules)."""
        with self._lock:
            self._counters["agent_scans"] = (
                self._counters.get("agent_scans", 0) + count
            )
            self._agent_scans[agent] = self._agent_scans.get(agent, 0) + count

    def record_round_trip(self, endpoint: str) -> None:
        """One dispatch went on the wire to *endpoint* — batch or single."""
        with self._lock:
            self._counters["round_trips"] = self._counters.get("round_trips", 0) + 1
            self._agent_round_trips[endpoint] = (
                self._agent_round_trips.get(endpoint, 0) + 1
            )

    def record_lost_granule(self, description: str) -> None:
        """One granule of a failed batch dispatch could not be answered."""
        with self._lock:
            self._counters["lost_granules"] = (
                self._counters.get("lost_granules", 0) + 1
            )
            self._lost_granules[description] = (
                self._lost_granules.get(description, 0) + 1
            )

    def record_fallback_invalidation(self, description: str) -> None:
        """One cache variant was evicted because its delta chain could
        not patch it — the targeted fallback the delta path promises."""
        with self._lock:
            self._counters["fallback_invalidations"] = (
                self._counters.get("fallback_invalidations", 0) + 1
            )
            self._fallback_invalidations[description] = (
                self._fallback_invalidations.get(description, 0) + 1
            )

    def record_missing_shard(self, endpoint: str) -> None:
        """One shard endpoint's slice was absent from a merged answer."""
        with self._lock:
            self._counters["missing_shards"] = (
                self._counters.get("missing_shards", 0) + 1
            )
            self._missing_shards[endpoint] = self._missing_shards.get(endpoint, 0) + 1

    def record_phase(self, phase: str, elapsed: float) -> None:
        with self._lock:
            prior = self._timers.get(phase, TimerStats(0, 0.0, 0.0))
            self._timers[phase] = TimerStats(
                prior.count + 1, prior.total + elapsed, max(prior.max, elapsed)
            )

    @contextmanager
    def timer(self, phase: str) -> Iterator[None]:
        """Time a phase: ``with metrics.timer("lift_facts"): ...``."""
        started = self._clock()
        try:
            yield
        finally:
            self.record_phase(phase, self._clock() - started)

    # ------------------------------------------------------------------
    def snapshot(self) -> RuntimeStats:
        with self._lock:
            return RuntimeStats(
                self._counters,
                self._agent_scans,
                self._timers,
                self._missing_shards,
                self._agent_round_trips,
                self._lost_granules,
                self._fallback_invalidations,
            )

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._agent_scans.clear()
            self._timers.clear()
            self._missing_shards.clear()
            self._agent_round_trips.clear()
            self._lost_granules.clear()
            self._fallback_invalidations.clear()
