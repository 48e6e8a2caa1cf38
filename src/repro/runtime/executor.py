"""The execution core: one retry / breaker / deadline loop for every mode.

The paper's FSM answers a global query by pulling component extents
from its agents (§3, Appendix B).  :class:`FederationExecutor` is the
single access tier between the query paths and those agents: in every
runtime mode (``threaded``, ``async``, ``multiprocess``) each dispatch
runs through one coroutine, :meth:`FederationExecutor.run_one_async`,
which wraps every attempt in the full failure model:

* a per-call **deadline** (:func:`asyncio.timeout`; ``asyncio.wait_for``
  before 3.11) surfacing as :class:`~repro.errors.AgentTimeoutError`;
* bounded **retries** with exponential backoff;
* a per-endpoint **circuit breaker** — persistent failers trip open and
  fast-fail instead of burning deadlines;
* a :class:`ScanOutcome` separating successes from failures, with every
  lost granule named in the metrics, so the caller's
  :class:`~repro.runtime.policy.FailurePolicy` can either degrade to
  partial answers or refuse the query.

Modes differ only in how one attempt reaches its agent, and that
follows from the transport's type.  An
:class:`~repro.runtime.async_transport.AsyncAgentTransport` is awaited
on the loop, ``policy.max_inflight`` scans at a time.  A synchronous
:class:`~repro.runtime.transport.AgentTransport` — in-process, the
simulated network, or the multiprocess worker pool — runs through
``loop.run_in_executor`` on one bounded thread pool of
``policy.max_workers`` threads.  Its deadline starts when a pool
thread picks it up, so time spent queued behind other calls is never
charged to it.  A call that overruns its deadline keeps its pool thread
until the transport returns, so a hung agent costs at most
``max_workers`` threads, never one per timed-out call; later calls
wait for a free thread rather than time out in the queue.

The coroutine API (:meth:`~FederationExecutor.run_async`,
:meth:`~FederationExecutor.run_one_async`, ...) may be awaited from any
loop.  The synchronous API (``run``, ``run_one``, ``run_coalesced``,
``run_sharded``) submits only the fan-out to an :class:`EventLoopThread`
— a private one by default, or one shared by many executors (the
service's tenants) — and decodes and merges the replies on the
caller's thread, so no executor's CPU work stalls the shared loop.  Do
not call the sync API from a coroutine running on that same loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import inspect
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import (
    AgentTimeoutError,
    CircuitOpenError,
    ReproError,
    TransportError,
)
from .async_transport import AsyncAgentTransport
from .breaker import CLOSED, CircuitBreaker
from .metrics import RuntimeMetrics
from .policy import RuntimePolicy
from .sharding import ShardPlan, ShardedOutcome, merge_outcome, split_requests
from .transport import (
    AgentTransport,
    BatchScanRequest,
    BatchScanResult,
    Scannable,
    ScanRequest,
)

#: each logical request mapped to its per-shard scatter set
ShardGroups = Dict[ScanRequest, Tuple[ScanRequest, ...]]

#: asyncio.timeout landed in 3.11; 3.10 falls back to wait_for
_TIMEOUT_FACTORY = getattr(asyncio, "timeout", None)


async def _with_deadline(awaitable: Awaitable[Any], seconds: float) -> Any:
    if _TIMEOUT_FACTORY is not None:
        async with _TIMEOUT_FACTORY(seconds):
            return await awaitable
    return await asyncio.wait_for(awaitable, seconds)


@dataclasses.dataclass(frozen=True)
class ScanFailure:
    """One scan that failed past all retries (or was fast-failed)."""

    request: Scannable
    error: str
    kind: str  # "transport" | "timeout" | "circuit_open" | "error"
    attempts: int

    def describe(self) -> str:
        return f"{self.request.describe()} failed after {self.attempts} attempt(s): {self.error}"


class ScanOutcome:
    """Fan-out result: per-request values plus the failures."""

    def __init__(
        self,
        results: Dict[Scannable, Any],
        failures: Sequence[ScanFailure] = (),
    ) -> None:
        self.results = results
        self.failures = list(failures)

    @property
    def partial(self) -> bool:
        return bool(self.failures)

    def warnings(self) -> List[str]:
        return [failure.describe() for failure in self.failures]


def coalesce_by_endpoint(requests: Iterable[ScanRequest]) -> List[Scannable]:
    """Group granules by endpoint: N granules for one endpoint become one
    :class:`BatchScanRequest` (one round-trip); singletons stay plain.

    Order is preserved — endpoints appear in first-seen order and each
    batch keeps its granules in request order, so results re-key
    deterministically.
    """
    groups: Dict[str, List[ScanRequest]] = {}
    for request in requests:
        groups.setdefault(request.endpoint, []).append(request)
    dispatches: List[Scannable] = []
    for members in groups.values():
        if len(members) == 1:
            dispatches.append(members[0])
        else:
            dispatches.append(BatchScanRequest(tuple(members)))
    return dispatches


def expand_outcome(outcome: ScanOutcome) -> ScanOutcome:
    """Re-key a coalesced fan-out back to per-granule results.

    Batch values are zipped against their granules in batch order; a
    failed batch expands to one :class:`ScanFailure` per granule — the
    exact account of what was lost.
    """
    results: Dict[Scannable, Any] = {}
    failures: List[ScanFailure] = []
    for request, value in outcome.results.items():
        if isinstance(request, BatchScanRequest):
            assert isinstance(value, BatchScanResult)
            for granule, granule_value in zip(request.requests, value.values):
                results[granule] = granule_value
        else:
            results[request] = value
    for failure in outcome.failures:
        for granule in failure.request.granules:
            failures.append(dataclasses.replace(failure, request=granule))
    return ScanOutcome(results, failures)


class EventLoopThread:
    """A lazily-started daemon thread running one event loop forever.

    The synchronous facade submits coroutines with
    :func:`asyncio.run_coroutine_threadsafe` and blocks on the future —
    the standard sync-over-async bridge.  Restartable: if the thread
    died (interpreter teardown races in tests), the next submit starts
    a fresh loop.

    One instance may be *shared* by many executors: the federation
    service hands every tenant's :class:`FederationExecutor` the same
    loop thread, so all tenants' in-flight scans multiplex on one event
    loop instead of one loop thread per tenant.  Pass it as the
    executor's ``runner``; a shared runner is closed by its owner, not
    by the executors borrowing it.
    """

    def __init__(self, name: str = "fsm-async-loop") -> None:
        self._name = name
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    def _ensure(self) -> asyncio.AbstractEventLoop:
        with self._lock:
            if (
                self._loop is None
                or self._thread is None
                or not self._thread.is_alive()
            ):
                loop = asyncio.new_event_loop()
                thread = threading.Thread(
                    target=self._drive, args=(loop,), name=self._name, daemon=True
                )
                thread.start()
                self._loop, self._thread = loop, thread
            return self._loop

    @staticmethod
    def _drive(loop: asyncio.AbstractEventLoop) -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_forever()
        finally:
            loop.close()

    def submit(self, coroutine: Awaitable[Any]) -> Any:
        """Run *coroutine* on the loop thread and return its result."""
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._ensure()  # type: ignore[arg-type]
        ).result()

    @property
    def alive(self) -> bool:
        """True while the loop thread is running (False before first use)."""
        with self._lock:
            return self._thread is not None and self._thread.is_alive()

    def close(self) -> None:
        """Stop the loop; the thread closes it on its way out.

        Joins the thread unless called from it (a garbage-collection
        finalizer may run there)."""
        with self._lock:
            loop, thread = self._loop, self._thread
            self._loop = self._thread = None
        if loop is None or thread is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        if thread is not threading.current_thread():
            thread.join(timeout=5.0)


class FederationExecutor:
    """Schedule agent scans under the runtime policy's failure model."""

    def __init__(
        self,
        transport: "AgentTransport | AsyncAgentTransport",
        policy: Optional[RuntimePolicy] = None,
        metrics: Optional[RuntimeMetrics] = None,
        breaker: Optional[CircuitBreaker] = None,
        sleep: Callable[[float], Any] = asyncio.sleep,
        runner: Optional[EventLoopThread] = None,
    ) -> None:
        self.transport = transport
        self.policy = policy or RuntimePolicy()
        self.metrics = metrics or RuntimeMetrics()
        self.breaker = breaker or CircuitBreaker(
            self.policy.breaker_threshold, self.policy.breaker_reset
        )
        #: backoff sleep: a coroutine function, or a plain callable
        self._sleep = sleep
        # a caller-supplied runner is *borrowed* (many executors can
        # multiplex on one loop thread); only a private one is closed here
        self._runner = runner if runner is not None else EventLoopThread()
        self._owns_runner = runner is None
        #: where synchronous transports run; built on first use
        self._pool: Optional[ThreadPoolExecutor] = None
        if self._owns_runner:
            # an executor dropped without close() still stops its loop
            # thread (a collected pool's idle threads exit on their own)
            weakref.finalize(self, self._runner.close)

    # ------------------------------------------------------------------
    def _decode(self, value: Any) -> Any:
        """Hook: translate a transport payload to its caller-facing form.

        In-process and simulated transports already answer in instance
        lists, so the base executor passes values through; the
        multiprocess executor overrides this to decode the columnar
        wire format exactly once, at the caller/cache boundary.
        """
        return value

    async def _perform(self, request: Scannable) -> Any:
        """One attempt on the wire under the policy's deadline: awaited
        inline for an async transport, on the bounded thread pool for a
        synchronous one."""
        transport = self.transport
        timeout = self.policy.timeout
        if isinstance(transport, AsyncAgentTransport):
            call = transport.perform(request)
            return await (call if timeout is None else _with_deadline(call, timeout))
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                self.policy.max_workers, thread_name_prefix="fsm-scan"
            )
        loop = asyncio.get_running_loop()
        if timeout is None:
            return await loop.run_in_executor(self._pool, transport.perform, request)
        started = loop.create_future()

        def timed_call() -> Any:
            loop.call_soon_threadsafe(_resolve, started)
            return transport.perform(request)

        future = loop.run_in_executor(self._pool, timed_call)
        # a call close() drops from the queue never starts; stop waiting
        future.add_done_callback(lambda _: _resolve(started))
        try:
            # queued behind calls that hold every thread (hung agents
            # past their deadlines): the deadline has not started yet
            await started
        except asyncio.CancelledError:
            future.cancel()
            raise
        return await _with_deadline(future, timeout)

    async def _backoff(self, seconds: float) -> None:
        nap = self._sleep(seconds)
        if inspect.isawaitable(nap):
            await nap

    # ------------------------------------------------------------------
    # the core (coroutine API)
    # ------------------------------------------------------------------
    async def run_one_async(self, request: Scannable) -> Any:
        """One dispatch through the retry / breaker / deadline loop, left
        in the transport's wire form.

        The failure domain is :attr:`ScanRequest.endpoint` — for sharded
        requests that is ``agent#index/of``, so each shard has its own
        circuit and scan histogram.  A :class:`BatchScanRequest` is one
        dispatch (one round-trip, one retry budget) carrying N granules:
        it records one ``round_trips`` tick but N ``agent_scans``, so the
        scan histogram stays comparable across planned and unplanned
        runs.  A dispatch that fails for good names each granule it
        carried in :attr:`RuntimeStats.lost_granules`, whichever path
        (single scan, fan-out, batch, shard) issued it.
        """
        try:
            return await self._attempts(request)
        except Exception:
            for granule in request.granules:
                self.metrics.record_lost_granule(granule.describe())
            raise

    async def _attempts(self, request: Scannable) -> Any:
        policy = self.policy
        agent = request.endpoint
        last_error: Optional[Exception] = None
        for attempt in range(1, policy.max_retries + 2):
            if attempt > 1:
                self.metrics.incr("retries")
                await self._backoff(policy.backoff(attempt - 1))
            probing = self.breaker.state(agent) != CLOSED
            if not self.breaker.allow(agent):
                self.metrics.incr("circuit_rejections")
                raise CircuitOpenError(agent)
            self.metrics.record_round_trip(agent)
            self.metrics.record_agent_scan(agent, count=len(request.granules))
            try:
                value = await self._perform(request)
            except (asyncio.TimeoutError, TimeoutError):
                self.metrics.incr("timeouts")
                last_error = AgentTimeoutError(agent, policy.timeout or 0.0)
            except asyncio.CancelledError:
                # externally cancelled (shutdown, caller deadline): release
                # a half-open probe slot so the breaker stays live, then
                # let the cancellation propagate
                if probing:
                    self.breaker.abandon_probe(agent)
                raise
            except TransportError as error:
                self.metrics.incr("transport_failures")
                last_error = error
            else:
                self.breaker.record_success(agent)
                return value
            if self.breaker.record_failure(agent):
                self.metrics.incr("breaker_trips")
        assert last_error is not None
        raise last_error

    async def _fan_out(self, requests: Iterable[Scannable]) -> ScanOutcome:
        """Dispatch *requests* concurrently, values left in wire form;
        never raises for per-scan failures."""
        pending = list(requests)
        results: Dict[Scannable, Any] = {}
        failures: List[ScanFailure] = []
        if not pending:
            return ScanOutcome(results)
        # an async transport is admitted max_inflight scans at a time; a
        # synchronous one is bounded by its pool's threads
        gate: Any = (
            asyncio.Semaphore(self.policy.max_inflight)
            if isinstance(self.transport, AsyncAgentTransport)
            else contextlib.nullcontext()
        )
        spent = self.policy.max_retries + 1

        async def guarded(request: Scannable) -> None:
            try:
                async with gate:
                    results[request] = await self.run_one_async(request)
            except CircuitOpenError as error:
                failures.append(ScanFailure(request, str(error), "circuit_open", 0))
            except AgentTimeoutError as error:
                failures.append(ScanFailure(request, str(error), "timeout", spent))
            except TransportError as error:
                failures.append(ScanFailure(request, str(error), "transport", spent))
            except ReproError as error:
                failures.append(ScanFailure(request, str(error), "error", 1))

        await asyncio.gather(*(guarded(request) for request in pending))
        if failures:
            self.metrics.incr("scan_failures", len(failures))
        return ScanOutcome(results, failures)

    def _decoded(self, outcome: ScanOutcome) -> ScanOutcome:
        outcome.results = {
            request: self._decode(value) for request, value in outcome.results.items()
        }
        return outcome

    async def run_async(self, requests: Iterable[Scannable]) -> ScanOutcome:
        """Fan *requests* out concurrently; never raises per-scan failures."""
        return self._decoded(await self._fan_out(requests))

    async def run_coalesced_async(
        self, requests: Iterable[ScanRequest]
    ) -> ScanOutcome:
        """Fan *requests* out with scan coalescing: all granules bound for
        one endpoint ride a single batched round-trip, and the outcome is
        expanded back to per-granule results/failures — callers (cache
        fills, failure policies) see exactly the shape :meth:`run` gives.
        """
        outcome = await self._fan_out(coalesce_by_endpoint(requests))
        return expand_outcome(self._decoded(outcome))

    async def run_sharded_async(
        self,
        requests: Iterable[ScanRequest],
        plan: ShardPlan,
        preloaded: Optional[Dict[ScanRequest, Any]] = None,
        coalesce: bool = False,
    ) -> ShardedOutcome:
        """Scatter each logical request across *plan*'s shards and merge.

        *preloaded* carries per-shard values already known (warm cache
        entries); only the rest are fanned out — through the same retry
        / breaker / deadline loop as any scan.  With *coalesce*, the
        pending shard requests are batched per shard endpoint first (all
        of one shard's granules in one round-trip).  The merge dedups by
        OID, and absent slices are reported per logical request and
        recorded in the metrics' missing-shard histogram.
        """
        groups, known, dispatches = _shard_dispatches(
            requests, plan, preloaded, coalesce
        )
        outcome = await self._fan_out(dispatches)
        return self._merge_shards(groups, known, outcome, coalesce)

    def _merge_shards(
        self,
        groups: ShardGroups,
        known: Dict[ScanRequest, Any],
        outcome: ScanOutcome,
        coalesced: bool,
    ) -> ShardedOutcome:
        if coalesced:
            outcome = expand_outcome(outcome)
        known.update(outcome.results)
        merged = merge_outcome(groups, known, outcome.failures)
        # slices were merged in wire form (columnar folds stay on the
        # arrays); decode once here so callers and caches see instances
        for logical, value in list(merged.results.items()):
            merged.results[logical] = self._decode(value)
        for shard_request, value in list(merged.shard_results.items()):
            merged.shard_results[shard_request] = self._decode(value)
        for endpoint in merged.missing_endpoints:
            self.metrics.record_missing_shard(endpoint)
        return merged

    # ------------------------------------------------------------------
    # synchronous bridge (what FederationRuntime calls): only the
    # fan-out runs on the loop; decoding and merging stay on the caller
    # ------------------------------------------------------------------
    def run_one(self, request: Scannable) -> Any:
        """One dispatch, decoded to caller-facing form; raises its error."""
        return self._decode(self._runner.submit(self.run_one_async(request)))

    def run(self, requests: Iterable[Scannable]) -> ScanOutcome:
        return self._decoded(self._runner.submit(self._fan_out(requests)))

    def run_coalesced(self, requests: Iterable[ScanRequest]) -> ScanOutcome:
        outcome = self._runner.submit(self._fan_out(coalesce_by_endpoint(requests)))
        return expand_outcome(self._decoded(outcome))

    def run_sharded(
        self,
        requests: Iterable[ScanRequest],
        plan: ShardPlan,
        preloaded: Optional[Dict[ScanRequest, Any]] = None,
        coalesce: bool = False,
    ) -> ShardedOutcome:
        groups, known, dispatches = _shard_dispatches(
            requests, plan, preloaded, coalesce
        )
        outcome = self._runner.submit(self._fan_out(dispatches))
        return self._merge_shards(groups, known, outcome, coalesce)

    def close(self) -> None:
        """Shut the thread pool down and stop a private loop thread
        (idempotent; a later dispatch starts both afresh).

        A shared (caller-supplied) runner is left running — its owner
        closes it.  Calls still running on the pool finish in the
        background, then their threads exit."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        if self._owns_runner:
            self._runner.close()


def _resolve(future: "asyncio.Future[None]") -> None:
    if not future.done():
        future.set_result(None)


def _shard_dispatches(
    requests: Iterable[ScanRequest],
    plan: ShardPlan,
    preloaded: Optional[Dict[ScanRequest, Any]],
    coalesce: bool,
) -> Tuple[ShardGroups, Dict[ScanRequest, Any], List[Scannable]]:
    """Split *requests* over *plan*'s shards; return the groups, the
    slices already known, and the dispatches still to fan out."""
    groups = split_requests(requests, plan)
    known: Dict[ScanRequest, Any] = dict(preloaded or {})
    pending = [
        shard_request
        for shard_requests in groups.values()
        for shard_request in shard_requests
        if shard_request not in known
    ]
    if coalesce:
        return groups, known, coalesce_by_endpoint(pending)
    return groups, known, list(pending)
