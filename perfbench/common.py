"""Measurement helpers shared by the workloads.

Percentiles, the host-speed calibration loop, GC pause accounting,
peak resident memory, answer digests and the timed window whose clock
can be paused while the benchmark does its own bookkeeping.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import resource
import time
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1]) of *samples*."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


#: the calibration loop's time on the reference host: a quiet 2 GHz
#: Xeon vCPU; times are reported as if the host ran at that speed
REFERENCE_CALIB_MS = 2.0


def _calibration_loop() -> int:
    # tuples hashed into sets under a dict, the shape of a fact store's
    # work: it slows down with the host's cache and memory contention too
    index: Dict[Any, set] = {}
    for number in range(6_000):
        index.setdefault(("fact", number % 1_000), set()).add((number, number % 7))
    return len(index)


def calibrate_ms() -> float:
    """Wall time of a fixed pure-Python loop (~2 ms on the reference host).

    Timed next to every measured unit of work: it says how fast the
    host ran at that moment, independently of the program under test.
    """
    enabled = gc.isenabled()
    gc.disable()  # the program's garbage must not be collected in here
    try:
        started = time.perf_counter()
        _calibration_loop()
        return (time.perf_counter() - started) * 1000.0
    finally:
        if enabled:
            gc.enable()


class GcPauses:
    """Total time spent in the cyclic garbage collector while installed."""

    def __init__(self) -> None:
        self.total_ms = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: Mapping[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif phase == "stop" and self._started:
            self.total_ms += (time.perf_counter() - self._started) * 1000.0
            self._started = 0.0

    @contextlib.contextmanager
    def installed(self) -> Iterator["GcPauses"]:
        gc.callbacks.append(self._callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._callback)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical_rows(rows: Iterable[Mapping[str, Any]]) -> List[str]:
    """Answer rows as sorted JSON lines: order-free, OIDs as strings.

    In-process answers carry :class:`~repro.model.oids.OID` objects; the
    service already renders them with ``str``, so both forms meet here.
    """
    return sorted(json.dumps(dict(row), sort_keys=True, default=str) for row in rows)


def answer_digest(rows: Iterable[Mapping[str, Any]]) -> str:
    """A short fingerprint of an answer, independent of row order."""
    return hashlib.sha1("\n".join(canonical_rows(rows)).encode()).hexdigest()


class Window:
    """The timed window: wall and CPU time minus what :meth:`paused` spent.

    Answer checks and other benchmark bookkeeping run paused, so
    ``reads_per_s`` and ``cpu_ms_per_op`` count only the program's work.
    """

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.cpu_started = time.process_time()
        self._paused_s = 0.0
        self._paused_cpu_s = 0.0

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        started = time.perf_counter()
        cpu_started = time.process_time()
        try:
            yield
        finally:
            self._paused_s += time.perf_counter() - started
            self._paused_cpu_s += time.process_time() - cpu_started

    @property
    def elapsed_s(self) -> float:
        return time.perf_counter() - self.started - self._paused_s

    @property
    def cpu_s(self) -> float:
        return time.process_time() - self.cpu_started - self._paused_cpu_s


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}
