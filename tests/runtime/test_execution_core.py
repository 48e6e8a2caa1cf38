"""The one execution core: every mode shares one class and stays bounded.

A synchronous transport's calls run on one thread pool of
``max_workers`` threads, and deadlines are ``asyncio`` timeouts, so an
agent that hangs past its deadline can hold at most the pool's threads
— never one fresh thread per timed-out dispatch.  A call's deadline
starts when a pool thread picks it up, not while it waits for one.
"""

import asyncio
import threading

import pytest

from repro.errors import AgentTimeoutError
from repro.federation import FSMAgent
from repro.model import ClassDef, ObjectDatabase, Schema
from repro.runtime import (
    CLOSED,
    AsyncFederationExecutor,
    FaultProfile,
    FederationExecutor,
    InProcessTransport,
    RuntimePolicy,
    ScanRequest,
    SimulatedNetworkTransport,
)

REQUEST = ScanRequest("a1", "S1", "person")


def _agents(*names):
    agents = {}
    for index, name in enumerate(names, start=1):
        schema = Schema(f"S{index}")
        schema.add_class(ClassDef("person").attr("ssn#"))
        database = ObjectDatabase(schema, agent=f"h{index}")
        database.insert("person", {"ssn#": str(index)})
        agent = FSMAgent(name)
        agent.host_object_database(database)
        agents[name] = agent
    return agents


def test_async_name_is_the_same_class():
    assert AsyncFederationExecutor is FederationExecutor


def test_timed_out_dispatches_hold_at_most_the_pool_threads():
    baseline = set(threading.enumerate())
    transport = SimulatedNetworkTransport(
        InProcessTransport(_agents("a1")), FaultProfile(latency=2.0)
    )
    executor = FederationExecutor(
        transport,
        RuntimePolicy(
            max_workers=2, timeout=0.01, max_retries=0, breaker_threshold=1000
        ),
        sleep=lambda _t: None,
    )
    for _ in range(20):
        with pytest.raises(AgentTimeoutError):
            executor.run_one(REQUEST)
    extra = [thread for thread in threading.enumerate() if thread not in baseline]
    # two pool threads asleep in the hung agent, plus the loop thread
    assert len(extra) <= 2 + 1
    executor.close()
    for thread in extra:
        thread.join(timeout=10.0)
    assert not [thread for thread in extra if thread.is_alive()]


def test_a_hung_call_never_spends_a_healthy_agents_deadline():
    """One pool thread, held past its deadline by a slow agent: the
    healthy agent's call waits for the thread, then runs under its own
    deadline — no timeout, no breaker failure."""
    transport = SimulatedNetworkTransport(InProcessTransport(_agents("a1", "a2")))
    transport.set_profile("a1", FaultProfile(latency=0.5))
    executor = FederationExecutor(
        transport,
        RuntimePolicy.sequential(timeout=0.1, max_retries=0, breaker_threshold=2),
    )
    slow, healthy = REQUEST, ScanRequest("a2", "S2", "person")
    try:
        outcome = executor.run([slow, healthy])
        assert [failure.request for failure in outcome.failures] == [slow]
        assert [obj["ssn#"] for obj in outcome.results[healthy]] == ["2"]
        with pytest.raises(AgentTimeoutError):
            executor.run_one(slow)
        assert [obj["ssn#"] for obj in executor.run_one(healthy)] == ["2"]
        assert executor.metrics.snapshot().counter("timeouts") == 2
        assert executor.breaker.state("a2") == CLOSED
    finally:
        executor.close()


def test_close_releases_a_call_still_queued_for_a_thread():
    transport = SimulatedNetworkTransport(
        InProcessTransport(_agents("a1")), FaultProfile(latency=0.3)
    )
    executor = FederationExecutor(
        transport, RuntimePolicy.sequential(timeout=1.0, max_retries=0)
    )

    async def scenario():
        running = asyncio.ensure_future(executor.run_one_async(REQUEST))
        queued = asyncio.ensure_future(executor.run_one_async(REQUEST))
        await asyncio.sleep(0.05)
        executor.close()  # drops the queued call from the pool unrun
        with pytest.raises(asyncio.CancelledError):
            await asyncio.wait_for(queued, 2.0)
        assert await running

    asyncio.run(scenario())
