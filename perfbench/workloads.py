"""The workloads: warm_read, write_mix and service_fanout.

All three are closed loops driven from this one process.  A run is a
series of *repeats*, until the timed units add up to ``--seconds`` and
there have been at least :data:`MIN_REPEATS`.  One repeat is

1. a fresh set-up from the components' current data — load the
   sources, integrate, attach the runtime, answer one cold query —
   timed as one ``setup_s`` sample (so set-ups spread over the run);
2. untimed warm-up, then garbage collection;
3. timed *units*: one rotation cycle in process, a round of requests
   per client for the service;
4. for the read-only workloads, units of write-visibility probes.

The host this runs on changes speed by up to ~1.8x for stretches of
seconds to minutes, so every set-up and unit is bracketed by a fixed
calibration loop (:func:`~perfbench.common.calibrate_ms`) and its times
are scaled by ``REFERENCE_CALIB_MS / calibration``: every figure reads
as if the host had run at the reference speed.  Every answer is checked
afterwards by :mod:`perfbench.oracle`.

With a :class:`~perfbench.tracing.Tracer`, traced and untraced units
alternate, so tracing overhead is measured on the same host minutes.
Count metrics come from the traced cycles among the first
``count_cycles``, so with one client they repeat exactly for a seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import http.client
import json
import os
import random
import shutil
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.runtime import RuntimePolicy
from repro.service import FederationRepository, ServerThread, TenantConfig, create_app
from repro.sources import load_source_federation
from repro.sources.base import MemorySourceAdapter
from repro.workloads.source_scenarios import (
    SOURCE_SYSTEM,
    generate_source_federation,
    source_fsm,
    write_source_directory,
)

from .common import (
    REFERENCE_CALIB_MS,
    GcPauses,
    Window,
    answer_digest,
    calibrate_ms,
    peak_rss_mb,
)
from .federations import (
    CORE_SCHEMAS,
    FANOUT_SCHEMAS,
    WRITE_KINDS,
    Mirror,
    Shape,
    Write,
    apply_to_adapter,
    integrated_names,
    read_rotation,
)
from .oracle import AnswerLog, check_log, probe_writes
from .tracing import Span, Tracer

#: client threads and HTTP connections: one per CPU, at most two
CLIENTS = max(1, min(2, os.cpu_count() or 1))
#: a run has at least this many repeats (set-up + timed units)
MIN_REPEATS = 5
#: write-visibility probe units per repeat of the read-only workloads,
#: each one rename per component followed by the read that shows it
PROBE_UNITS_PER_REPEAT = 4

ROTATION = 18
WARM_PEOPLE = 200
WRITE_PEOPLE = 150
FANOUT_PEOPLE = 20
RECORDS_PER_PERSON = 2
#: rotation reads after each write's visibility read on write_mix
READS_PER_WRITE = 8
#: injected per-agent-call latency on service_fanout
FANOUT_LATENCY_MS = 10.0
#: service_fanout queries per client per unit
REQUESTS_PER_UNIT = 10
#: fills the person granules before a service probe unit
WARM_PERSON = "person() -> ssn"


@dataclasses.dataclass
class Unit:
    """One timed unit of work and the host's speed around it."""

    read_ms: List[float] = dataclasses.field(default_factory=list)
    visible_ms: List[float] = dataclasses.field(default_factory=list)
    writes: int = 0
    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    calib_ms: float = 0.0
    traced: bool = False

    @property
    def reads(self) -> int:
        return len(self.read_ms)

    @property
    def operations(self) -> int:
        return self.reads + self.writes

    @property
    def scale(self) -> float:
        """Factor from this unit's times to the reference host's."""
        return REFERENCE_CALIB_MS / self.calib_ms


@dataclasses.dataclass
class Measured:
    """Everything one run measured, before it becomes metrics."""

    #: one timed set-up per repeat (elapsed_s and calibration only)
    builds: List[Unit] = dataclasses.field(default_factory=list)
    units: List[Unit] = dataclasses.field(default_factory=list)
    probe_units: List[Unit] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rss_mb: float = 0.0
    gc_ms: float = 0.0
    build_spans: List[Span] = dataclasses.field(default_factory=list)
    timed_spans: List[Span] = dataclasses.field(default_factory=list)
    counted_spans: List[Span] = dataclasses.field(default_factory=list)
    #: span id -> scale of the set-up or unit the span ran in
    span_scale: Dict[int, float] = dataclasses.field(default_factory=dict)
    #: RuntimeStats counters over the counted reads and writes
    counters: Counter = dataclasses.field(default_factory=Counter)
    counted_reads: int = 0
    counted_writes: int = 0
    #: client-observed request time minus the server's Tenant.query time
    http_overhead_ms: List[float] = dataclasses.field(default_factory=list)
    errors: List[str] = dataclasses.field(default_factory=list)

    def fail(self, error: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(error).__name__}: {error}")

    @property
    def timed_s(self) -> float:
        return sum(unit.elapsed_s for unit in self.units)

    def done(self, seconds: float) -> bool:
        return len(self.builds) >= MIN_REPEATS and self.timed_s >= seconds

    def scale_spans(self, spans: Sequence[Span], unit: Unit) -> None:
        for span in spans:
            self.span_scale[span.span_id] = unit.scale


@contextlib.contextmanager
def _timed(unit: Unit) -> Iterator[Window]:
    """Times one unit: wall and CPU clocks, calibration before and after."""
    before = calibrate_ms()
    window = Window()
    try:
        yield window
    finally:
        unit.elapsed_s = window.elapsed_s
        unit.cpu_s = window.cpu_s
        unit.calib_ms = (before + calibrate_ms()) / 2.0


@contextlib.contextmanager
def _repeat(measured: Measured) -> Iterator[None]:
    """One repeat's timed section: garbage collected first, GC pauses summed."""
    gc.collect()
    pauses = GcPauses()
    try:
        with pauses.installed():
            yield
    finally:
        measured.gc_ms += pauses.total_ms


def _timed_build(build, measured: Measured, tracer: Optional[Tracer]) -> Any:
    """One fresh set-up, timed; its spans (traced runs) go to build_spans."""
    gc.collect()
    unit = Unit()
    if tracer is not None:
        tracer.install()
    try:
        with _timed(unit):
            system = build()
    finally:
        if tracer is not None:
            tracer.uninstall()
            measured.scale_spans(tracer.spans, unit)
            measured.build_spans.extend(tracer.spans)
            tracer.spans = []
    measured.builds.append(unit)
    measured.attempted += 1
    return system


# ----------------------------------------------------------------------
# in-process workloads (one client)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class System:
    fsm: Any
    runtime: Any
    adapters: Dict[str, Any]

    def close(self) -> None:
        self.runtime.close()


class InProcess:
    """What the single-client workloads share: set-up, cycles, probes."""

    people = 0
    schemas: Sequence[str] = CORE_SCHEMAS
    #: rotation cycles per repeat
    cycles_per_repeat = 1
    #: count metrics come from the traced cycles among the first N
    count_cycles = 4

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.dataset = generate_source_federation(
            self.people, RECORDS_PER_PERSON, self.schemas, seed=seed
        )
        self.rotation = read_rotation(self.dataset, seed, ROTATION)
        #: the components' data as the program should now see it
        self.mirror = Mirror(self.dataset)
        self.log = AnswerLog()

    def databases(self) -> Dict[str, Any]:
        raise NotImplementedError

    def build(self) -> System:
        """Sources to ready-to-serve: load, integrate, attach, cold query."""
        databases = self.databases()
        fsm = source_fsm(databases, self.dataset.assertions)
        fsm.integrate_all()
        runtime = fsm.use_runtime(RuntimePolicy(max_workers=CLIENTS))
        try:
            rows = fsm.query(self.rotation[0])
        except Exception:
            runtime.close()
            raise
        self.log.read(self.rotation[0], answer_digest(rows))
        adapters = {schema: store.adapter for schema, store in databases.items()}
        return System(fsm, runtime, adapters)

    def cycle(self, index: int) -> List[Any]:
        """The operations of cycle *index*: query strings and writes."""
        raise NotImplementedError

    def probes(self) -> bool:
        return True

    # ------------------------------------------------------------------
    def run(self, seconds: float, tracer: Optional[Tracer]) -> Measured:
        measured = Measured()
        cycle = 0
        while not measured.done(seconds):
            system = _timed_build(self.build, measured, tracer)
            try:
                # fill the extent cache for every rotation query, untimed
                for query in self.rotation:
                    measured.attempted += 1
                    self.log.read(query, answer_digest(system.fsm.query(query)))
                with _repeat(measured):
                    for _ in range(self.cycles_per_repeat):
                        self._cycle(system, cycle, tracer, measured)
                        cycle += 1
                    if self.probes():
                        self._probe(system, measured)
            finally:
                system.close()
        measured.rss_mb = peak_rss_mb()
        if tracer is not None:
            measured.timed_spans = list(tracer.spans)
        measured.failed += check_log(Mirror(self.dataset), self.log)
        return measured

    def _cycle(self, system: System, cycle: int, tracer: Optional[Tracer],
               measured: Measured) -> None:
        unit = Unit(traced=tracer is not None and cycle % 2 == 0)
        counted = unit.traced and cycle < self.count_cycles
        operations = self.cycle(cycle)
        if unit.traced:
            mark = len(tracer.spans)
            before = system.runtime.stats()
            tracer.install()
        try:
            with _timed(unit) as window:
                self._run_cycle(system, operations, window, unit, measured)
        finally:
            if tracer is not None:
                tracer.uninstall()
        measured.units.append(unit)
        if unit.traced:
            measured.scale_spans(tracer.spans[mark:], unit)
        if counted:
            measured.counted_spans.extend(tracer.spans[mark:])
            measured.counters.update((system.runtime.stats() - before).counters)
            measured.counted_writes += unit.writes
            measured.counted_reads += unit.reads

    def _run_cycle(self, system: System, operations: List[Any], window: Window,
                   unit: Unit, measured: Measured) -> None:
        write_started: Optional[float] = None
        for operation in operations:
            measured.attempted += 1
            if isinstance(operation, Write):
                write_started = time.perf_counter()
                try:
                    apply_to_adapter(system.adapters[operation.schema], operation)
                except Exception as error:  # noqa: BLE001 - counted as failed
                    measured.fail(error)
                unit.writes += 1
                with window.paused():
                    self.log.write(operation)
                    self.mirror.apply(operation)
                continue
            started = time.perf_counter()
            rows: Optional[List[Any]] = None
            try:
                rows = system.fsm.query(operation)
            except Exception as error:  # noqa: BLE001 - counted as failed
                measured.fail(error)
            ended = time.perf_counter()
            unit.read_ms.append((ended - started) * 1000.0)
            if write_started is not None:
                unit.visible_ms.append((ended - write_started) * 1000.0)
                write_started = None
            with window.paused():
                self.log.read(operation, None if rows is None else answer_digest(rows))

    def _probe(self, system: System, measured: Measured) -> None:
        """Rename-then-read pairs: the ``write_visible_p50_ms`` samples."""
        for _ in range(PROBE_UNITS_PER_REPEAT):
            unit = Unit()
            with _timed(unit) as window:
                for write in self._probe_writes(measured):
                    measured.attempted += 2
                    started = time.perf_counter()
                    digest = None
                    try:
                        apply_to_adapter(system.adapters[write.schema], write)
                        digest = answer_digest(system.fsm.query(write.shows))
                    except Exception as error:  # noqa: BLE001 - counted as failed
                        measured.fail(error)
                    unit.visible_ms.append((time.perf_counter() - started) * 1000.0)
                    with window.paused():
                        self.log.probe(write, digest)
                        self.mirror.apply(write)
            measured.probe_units.append(unit)

    def _probe_writes(self, measured: Measured) -> List[Write]:
        count = len(self.schemas)
        return probe_writes(self.mirror, count * len(measured.probe_units), count)


class WarmRead(InProcess):
    """Warm extent cache, memory sources: reads never reach an agent."""

    people = WARM_PEOPLE
    cycles_per_repeat = 5

    def databases(self) -> Dict[str, Any]:
        dataset = self.dataset
        return {
            schema: MemorySourceAdapter(
                schema,
                self.mirror.rows[schema],
                dataset.relations[schema],
                mappings=dataset.mappings[schema] or None,
                agent=dataset.agent_name(schema),
                system=SOURCE_SYSTEM,
            ).database()
            for schema in dataset.schemas
        }

    def cycle(self, index: int) -> List[Any]:
        return list(self.rotation)


class WriteMix(InProcess):
    """sqlite sources under a read/write mix: delta patching and rescans."""

    people = WRITE_PEOPLE
    cycles_per_repeat = 12
    #: every write kind on every component, twice (traced cycles alternate)
    count_cycles = 2 * len(WRITE_KINDS) * len(CORE_SCHEMAS)

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.root = write_source_directory(self.dataset, work_dir / "write_mix", kinds="sqlite")
        names = integrated_names(self.dataset)
        self.bulk = {
            schema: names[(schema, Shape.of(self.dataset, schema).bulk)]
            for schema in self.dataset.schemas
        }
        self.rng = random.Random(seed * 104729 + 3)

    def databases(self) -> Dict[str, Any]:
        _, databases = load_source_federation(self.root)
        return databases

    def cycle(self, index: int) -> List[Any]:
        write = self.mirror.plan(index, self.rng, self.bulk)
        reads = [
            self.rotation[(index * READS_PER_WRITE + offset) % len(self.rotation)]
            for offset in range(READS_PER_WRITE)
        ]
        return [write, write.shows] + reads

    def probes(self) -> bool:
        return False  # write visibility is measured inside the cycles


# ----------------------------------------------------------------------
# service_fanout (CLIENTS HTTP clients)
# ----------------------------------------------------------------------
class _Client:
    """One keep-alive HTTP connection."""

    def __init__(self, host: str, port: int) -> None:
        self.connection = http.client.HTTPConnection(host, port, timeout=60)

    def post(self, path: str, payload: Dict[str, Any]) -> Tuple[int, bytes]:
        self.connection.request(
            "POST", path, body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = self.connection.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.connection.close()


@dataclasses.dataclass
class Service:
    repository: Any
    server: Any

    def close(self) -> None:
        try:
            self.server.stop()
        finally:
            self.repository.close()

    def tenant(self) -> Any:
        return self.repository.tenant(ServiceFanout.TENANT)

    def clients(self) -> List[_Client]:
        host, port = self.server.host, self.server.port
        return [_Client(host, port) for _ in range(CLIENTS)]


class ServiceFanout:
    """One tenant behind the HTTP service; every read fans out cold."""

    TENANT = "bench"
    QUERY = f"/tenants/{TENANT}/query"
    INVALIDATE = f"/tenants/{TENANT}/cache/invalidate"
    units_per_repeat = 6

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.dataset = generate_source_federation(
            FANOUT_PEOPLE, RECORDS_PER_PERSON, FANOUT_SCHEMAS, seed=seed
        )
        self.rotation = read_rotation(self.dataset, seed, ROTATION)
        self.root = write_source_directory(self.dataset, work_dir / "service", kinds="sqlite")
        self.mirror = Mirror(self.dataset)
        self.log = AnswerLog()

    def build(self) -> Service:
        repository = FederationRepository()
        server = None
        try:
            repository.add_tenant(
                TenantConfig(
                    name=self.TENANT,
                    source_dir=str(self.root),
                    latency_ms=FANOUT_LATENCY_MS,
                    max_inflight=CLIENTS,
                )
            )
            server = ServerThread(create_app(repository), port=0).start()
            client = _Client(server.host, server.port)
            try:
                status, body = client.post(self.QUERY, {"query": self.rotation[0]})
            finally:
                client.close()
        except BaseException:
            if server is not None:
                server.stop()
            repository.close()
            raise
        self.log.read(self.rotation[0], self._digest(status, body))
        return Service(repository, server)

    @staticmethod
    def _digest(status: int, body: bytes) -> Optional[str]:
        if status != 200:
            return None
        return answer_digest(json.loads(body)["rows"])

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Measured:
        measured = Measured()
        turn = 0
        while not measured.done(seconds):
            service = _timed_build(self.build, measured, tracer)
            clients = service.clients()
            try:
                with _repeat(measured):
                    for _ in range(self.units_per_repeat):
                        traced = tracer is not None and len(measured.units) % 2 == 0
                        self._unit(service, clients, turn, tracer if traced else None, measured)
                        turn += REQUESTS_PER_UNIT
                    self._probe(service, clients[0], measured)
            finally:
                for client in clients:
                    client.close()
                service.close()
        measured.rss_mb = peak_rss_mb()
        if tracer is not None:
            measured.timed_spans = measured.counted_spans = list(tracer.spans)
        measured.counted_reads = sum(unit.reads for unit in measured.units)
        measured.failed += check_log(Mirror(self.dataset), self.log)
        return measured

    def _unit(self, service: Service, clients: List[_Client], turn: int,
              tracer: Optional[Tracer], measured: Measured) -> None:
        """Every client runs REQUESTS_PER_UNIT invalidate+query pairs."""
        results: List[List[Tuple[Any, ...]]] = [[] for _ in clients]
        errors: List[BaseException] = []

        def client_loop(index: int) -> None:
            client = clients[index]
            try:
                for step in range(turn, turn + REQUESTS_PER_UNIT):
                    query = self.rotation[(index + step * CLIENTS) % len(self.rotation)]
                    invalidated, _ = client.post(self.INVALIDATE, {})
                    span = tracer.start("service.request") if tracer is not None else None
                    started = time.perf_counter()
                    status, body = client.post(self.QUERY, {"query": query})
                    ended = time.perf_counter()
                    if span is not None:
                        tracer.finish(span)
                    server_ms = json.loads(body)["elapsed_ms"] if status == 200 else None
                    results[index].append(
                        (query, invalidated, self._digest(status, body), ended - started,
                         server_ms)
                    )
            except BaseException as error:  # noqa: BLE001 - reported by the caller
                errors.append(error)

        runtime = service.tenant().runtime
        before = runtime.stats()
        unit = Unit(traced=tracer is not None)
        mark = len(tracer.spans) if tracer is not None else 0
        threads = [
            threading.Thread(target=client_loop, args=(index,), name=f"perfbench-client-{index}")
            for index in range(len(clients))
        ]
        if tracer is not None:
            tracer.install()
        try:
            with _timed(unit):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=150)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a benchmark client did not finish its unit")
        if tracer is not None:
            measured.scale_spans(tracer.spans[mark:], unit)
        for error in errors:
            measured.fail(error)
        measured.counters.update((runtime.stats() - before).counters)
        for client_results in results:
            for query, invalidated, digest, seconds, server_ms in client_results:
                measured.attempted += 2
                if invalidated != 200:
                    measured.failed += 1
                unit.read_ms.append(seconds * 1000.0)
                if server_ms is not None:
                    measured.http_overhead_ms.append((seconds * 1000.0 - server_ms) * unit.scale)
                self.log.read(query, digest)
        measured.units.append(unit)

    def _probe(self, service: Service, client: _Client, measured: Measured) -> None:
        """A component write through the tenant's adapter, then an HTTP read."""
        tenant = service.tenant()
        count = len(FANOUT_SCHEMAS)
        for _ in range(PROBE_UNITS_PER_REPEAT):
            # warm the person granules first, so every probe read is a
            # delta patch of a cached extent rather than a cold fan-out
            status, body = client.post(self.QUERY, {"query": WARM_PERSON})
            measured.attempted += 1
            self.log.read(WARM_PERSON, self._digest(status, body))
            unit = Unit()
            start = count * len(measured.probe_units)
            with _timed(unit) as window:
                for write in probe_writes(self.mirror, start, count):
                    measured.attempted += 2
                    adapter = tenant.session.fsm.database(write.schema).adapter
                    started = time.perf_counter()
                    digest = None
                    try:
                        apply_to_adapter(adapter, write)
                        status, body = client.post(self.QUERY, {"query": write.shows})
                        digest = self._digest(status, body)
                    except Exception as error:  # noqa: BLE001 - counted as failed
                        measured.fail(error)
                    unit.visible_ms.append((time.perf_counter() - started) * 1000.0)
                    with window.paused():
                        self.log.probe(write, digest)
                        self.mirror.apply(write)
            measured.probe_units.append(unit)


WORKLOADS = {
    "warm_read": WarmRead,
    "write_mix": WriteMix,
    "service_fanout": ServiceFanout,
}


def run_workload(name: str, seed: int, seconds: float, tracer: Optional[Tracer],
                 work_dir: Path) -> Measured:
    """Generate *name*'s inputs from *seed* under *work_dir* and run it."""
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, work_dir)
        return workload.run(seconds, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
