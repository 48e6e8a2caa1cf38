"""Turn one run's measurements into the named metrics.

End-to-end metrics come from untraced runs; the per-layer metrics from
traced runs (see ``perfbench/README.md`` for each one's meaning and the
end-to-end metric it should move).  Every time is scaled to the
reference host speed by the calibration of the set-up or unit it was
measured in.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence

from .common import metric, percentile
from .tracing import FAN_OUT, LayerTotals, Span, layer_totals
from .workloads import Measured, Unit

#: the spans that delimit one read: in process, and as the client sees it
READ_SPAN = "fsm.query"
REQUEST_SPAN = "service.request"


def end_to_end(measured: Measured) -> Dict[str, Dict[str, Any]]:
    units = measured.units
    reads = [sample * unit.scale for unit in units for sample in unit.read_ms]
    visible = [
        sample * unit.scale
        for unit in measured.probe_units or units
        for sample in unit.visible_ms
    ]
    return {
        "setup_s": metric(
            statistics.median(unit.elapsed_s * unit.scale for unit in measured.builds), "s"),
        "read_p50_ms": metric(percentile(reads, 0.5), "ms"),
        "read_p90_ms": metric(percentile(reads, 0.9), "ms"),
        "reads_per_s": metric(len(reads) / _scaled_s(units), "1/s"),
        "write_visible_p50_ms": metric(statistics.median(visible), "ms"),
        "cpu_ms_per_op": metric(
            sum(unit.cpu_s * unit.scale for unit in units) * 1000.0
            / sum(unit.operations for unit in units), "ms"),
        "peak_rss_mb": metric(measured.rss_mb, "MB"),
    }


def _scaled_s(units: Sequence[Unit]) -> float:
    return sum(unit.elapsed_s * unit.scale for unit in units)


def _per_operation_s(units: Sequence[Unit]) -> float:
    return _ratio(_scaled_s(units), sum(unit.operations for unit in units))


def _read_spans(spans: Sequence[Span]) -> List[Span]:
    """Spans belonging to a traced read (drops work whose read began
    before tracing was switched on), plus the client-side request spans."""
    reads = {span.query_id for span in spans if span.name == READ_SPAN}
    return [span for span in spans if span.query_id in reads or span.name == REQUEST_SPAN]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(measured: Measured) -> Dict[str, Dict[str, Any]]:
    def scale(span: Span) -> float:
        return measured.span_scale.get(span.span_id, 1.0)

    timed = layer_totals(_read_spans(measured.timed_spans), scale)
    counted = layer_totals(_read_spans(measured.counted_spans), scale)
    empty = LayerTotals()

    def get(totals: Dict[str, LayerTotals], name: str) -> LayerTotals:
        return totals.get(name, empty)

    reads_timed = get(timed, READ_SPAN).calls
    reads_counted = get(counted, READ_SPAN).calls

    def ms_per_read(name: str, self_time: bool = False) -> Dict[str, Any]:
        entry = get(timed, name)
        seconds = entry.self_s if self_time else entry.total_s
        return metric(_ratio(seconds * 1000.0, reads_timed), "ms")

    def count_per_read(name: str) -> Dict[str, Any]:
        return metric(_ratio(get(counted, name).count, reads_counted), "count")

    counters = measured.counters

    def counter_per(name: str, denominator: int) -> Dict[str, Any]:
        return metric(_ratio(counters.get(name, 0), denominator), "count")

    # the read as its caller sees it: the request in the service, else the query
    root = get(timed, REQUEST_SPAN) if REQUEST_SPAN in timed else get(timed, READ_SPAN)
    logic_s = sum(
        get(timed, name).self_s
        for name in ("federation.lift", "logic.copy", "logic.materialize", "logic.ask")
    )
    integrate = [span.duration * scale(span) * 1000.0 for span in measured.build_spans
                 if span.name == "integration.integrate"]
    traced = _per_operation_s([unit for unit in measured.units if unit.traced])
    untraced = _per_operation_s([unit for unit in measured.units if not unit.traced])
    hits = counters.get("cache_hits", 0)
    lookups = hits + counters.get("cache_misses", 0)
    units = measured.units + measured.probe_units
    operations = sum(unit.operations for unit in units)
    return {
        "integration.integrate_ms": metric(statistics.median(integrate) if integrate else 0.0, "ms"),
        "runtime.planner.plan_ms": ms_per_read("runtime.planner.plan"),
        "runtime.planner.pruned_classes": count_per_read("runtime.planner.plan"),
        "runtime.scan_extents_ms": ms_per_read("runtime.scan_extents", self_time=True),
        "runtime.cache_hit_ratio": metric(_ratio(hits, lookups), "ratio"),
        "runtime.agent_scans_per_read": counter_per("agent_scans", measured.counted_reads),
        "runtime.round_trips_per_read": counter_per("round_trips", measured.counted_reads),
        "runtime.fan_out_ms": ms_per_read(FAN_OUT),
        "runtime.deltas_applied": counter_per("deltas_applied", measured.counted_writes),
        "runtime.granules_patched": counter_per("granules_patched", measured.counted_writes),
        "runtime.fallback_invalidations": counter_per(
            "fallback_invalidations", measured.counted_writes),
        "sources.scan_ms": ms_per_read("sources.scan"),
        "sources.instances_scanned": count_per_read("sources.scan"),
        "federation.lift_ms": ms_per_read("federation.lift", self_time=True),
        "federation.facts_lifted": count_per_read("federation.lift"),
        "logic.copy_ms": ms_per_read("logic.copy"),
        "logic.facts_copied": count_per_read("logic.copy"),
        "logic.materialize_ms": ms_per_read("logic.materialize", self_time=True),
        "logic.facts_derived": count_per_read("logic.materialize"),
        "logic.ask_ms": ms_per_read("logic.ask", self_time=True),
        "service.http_overhead_ms": metric(
            statistics.median(measured.http_overhead_ms) if measured.http_overhead_ms else 0.0,
            "ms"),
        "read_share.federation_logic_pct": metric(_ratio(100.0 * logic_s, root.total_s), "%"),
        "read_share.fan_out_pct": metric(
            _ratio(100.0 * get(timed, FAN_OUT).total_s, root.total_s), "%"),
        "host.calib_ms": metric(statistics.median(unit.calib_ms for unit in units), "ms"),
        "python.gc_pause_ms": metric(_ratio(measured.gc_ms, operations), "ms"),
        "trace.overhead_pct": metric(_ratio(100.0 * (traced - untraced), untraced), "%"),
    }
