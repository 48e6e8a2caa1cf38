"""Asyncio agent transports: coroutine-shaped access to FSM-agents.

A synchronous transport holds one pool thread per in-flight scan; to
multiplex thousands of slow agents from one process the transport layer
must *suspend* instead of *block*.  :class:`AsyncAgentTransport` is the
coroutine twin of :class:`~repro.runtime.transport.AgentTransport`:
``perform`` is ``async`` while the cheap metadata lookups
(:meth:`agent_names`, :meth:`agent_for_schema`, :meth:`generation`)
stay synchronous so the :class:`~repro.runtime.runtime.FederationRuntime`
facade and the :class:`~repro.runtime.cache.ExtentCache` work unchanged
across modes.

Three implementations ship:

* :class:`AsyncInProcessTransport` — direct calls against registered
  agents (extent scans are CPU-bound and fast; no suspension needed);
* :class:`AsyncSimulatedNetworkTransport` — injects per-agent latency,
  jitter, drops and scripted failures through ``await asyncio.sleep``,
  deciding them with the threaded simulator's
  :class:`~repro.runtime.transport.FaultModel` — 256 sleeping agents
  cost 256 timers, not 256 threads;
* :class:`AsyncTransportAdapter` — lifts any synchronous transport into
  the async protocol (its ``perform`` must not block the loop; wrap
  latency simulation with :class:`AsyncSimulatedNetworkTransport`
  instead of the thread-sleeping simulator).
"""

from __future__ import annotations

import asyncio
from collections import defaultdict
from typing import Any, Dict, Mapping, Optional, Tuple

from ..federation.agent import FSMAgent
from .transport import (
    AgentTransport,
    FaultModel,
    FaultProfile,
    InProcessTransport,
    Scannable,
    ScanRequest,
)


class AsyncAgentTransport:
    """Protocol: route :class:`ScanRequest`\\ s to agents as coroutines."""

    def agent_names(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def agent_for_schema(self, schema_name: str) -> str:
        """The agent hosting *schema_name* (synchronous metadata lookup)."""
        raise NotImplementedError

    def generation(self, request: ScanRequest) -> Optional[int]:
        """Backing-store version for *request*, or None when unobservable."""
        return None

    def changes(self, request: ScanRequest, since: int) -> Optional[Any]:
        """Delta chain from *since* (synchronous control-plane lookup)."""
        return None

    async def perform(self, request: Scannable) -> Any:
        """Execute the scan (or coalesced batch) and return its raw value."""
        raise NotImplementedError


class AsyncTransportAdapter(AsyncAgentTransport):
    """Lift a synchronous :class:`AgentTransport` into the async protocol.

    The wrapped ``perform`` runs inline on the event loop — correct for
    in-process scans, wrong for anything that blocks (a
    :class:`~repro.runtime.transport.SimulatedNetworkTransport` with
    latency would stall every other coroutine; use
    :class:`AsyncSimulatedNetworkTransport` for fault injection).
    """

    def __init__(self, inner: AgentTransport) -> None:
        self.inner = inner

    def agent_names(self) -> Tuple[str, ...]:
        return self.inner.agent_names()

    def agent_for_schema(self, schema_name: str) -> str:
        return self.inner.agent_for_schema(schema_name)

    def generation(self, request: ScanRequest) -> Optional[int]:
        return self.inner.generation(request)

    def changes(self, request: ScanRequest, since: int) -> Optional[Any]:
        return self.inner.changes(request, since)

    async def perform(self, request: Scannable) -> Any:
        return self.inner.perform(request)


class AsyncInProcessTransport(AsyncTransportAdapter):
    """Direct coroutine calls against live :class:`FSMAgent` objects."""

    def __init__(
        self,
        agents: Mapping[str, FSMAgent],
        schema_host: Optional[Mapping[str, str]] = None,
    ) -> None:
        super().__init__(InProcessTransport(agents, schema_host))


class AsyncSimulatedNetworkTransport(FaultModel, AsyncAgentTransport):
    """Fault injection for the asyncio path: latency without threads.

    The fault decisions are :class:`~repro.runtime.transport.FaultModel`'s
    — the same per-agent :class:`FaultProfile`\\ s, scripted attempts and
    seeded reproducibility as the threaded simulator — but every delay
    is ``await asyncio.sleep``, so a fleet of slow agents shares one
    event loop.  Cancellation is first-class: a coroutine cancelled
    mid-flight (deadline, shutdown) is counted in :attr:`cancelled` and
    never in :attr:`completed`, which the cancellation tests use to
    prove overdue scans really die.
    """

    def __init__(
        self,
        inner: AsyncAgentTransport,
        default_profile: Optional[FaultProfile] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(inner, default_profile, seed)
        #: calls whose coroutine was cancelled mid-flight, per agent
        self.cancelled: Dict[str, int] = defaultdict(int)
        #: calls that ran to a successful return (faulted calls are the
        #: remainder: ``calls - completed - cancelled``)
        self.completed: Dict[str, int] = defaultdict(int)

    async def perform(self, request: Scannable) -> Any:
        endpoint = request.endpoint
        profile, delay, error = self._decide(request)
        try:
            if delay > 0.0:
                await asyncio.sleep(delay)
            if error is not None:
                raise error
            value = await self._inner.perform(request)
            transfer = self._transfer(profile, value)
            if transfer > 0.0:
                await asyncio.sleep(transfer)
        except asyncio.CancelledError:
            with self._lock:
                self.cancelled[endpoint] += 1
            raise
        with self._lock:
            self.completed[endpoint] += 1
        return value
