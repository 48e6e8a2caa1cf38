"""The maintained federation view under concurrent queries.

Queries share one :class:`~repro.federation.evaluation.FederationView`
per FSM.  A query's refresh and answer are atomic under the view's lock,
so racing a component write it sees the write entirely or not at all;
its fan-out runs outside that lock, so concurrent cold queries overlap
their agent waits instead of queueing behind each other.
"""

import sys
import threading
import time

from repro.federation import FederationEngine, FederatedQuery
from repro.runtime import (
    FaultProfile,
    FederationRuntime,
    InProcessTransport,
    RuntimePolicy,
    SimulatedNetworkTransport,
)
from repro.workloads import build_memory_databases, generate_source_federation, source_fsm

QUERY = FederatedQuery.of("person", {}, ("ssn", "name"))


def _federation():
    dataset = generate_source_federation(
        people_per_schema=6, records_per_person=1, seed=5, schemas=("university", "market")
    )
    databases = build_memory_databases(dataset)
    fsm = source_fsm(databases, dataset.assertions)
    fsm.integrate_all()
    return fsm, databases


def _key(rows):
    return sorted(repr(sorted(row.items())) for row in rows)


def _fresh(fsm, databases):
    return _key(QUERY.run(FederationEngine(fsm.integrated, databases)))


def test_racing_readers_see_each_write_entirely_or_not_at_all():
    """Four readers, one writer: every answer is the before- or the
    after-write answer of the write it raced.  The writer lets each
    reader finish two queries between writes, so no query spans two."""
    fsm, databases = _federation()
    runtime = fsm.use_runtime(RuntimePolicy(max_workers=4))
    states = [_fresh(fsm, databases)]
    writes = [0]  # writes completed, read by the readers
    answers = []  # (writes completed when the query started, answer)
    finished = [0] * 4  # queries each reader completed
    errors = []
    done = threading.Event()

    def reader(index):
        try:
            while not done.is_set():
                started = writes[0]
                answers.append((started, _key(fsm.query(QUERY))))
                finished[index] += 1
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    try:
        for thread in readers:
            thread.start()
        for write in range(1, 21):
            marks = list(finished)
            deadline = time.monotonic() + 30
            while any(f < m + 2 for f, m in zip(finished, marks)) and not errors:
                assert time.monotonic() < deadline, "readers stalled"
                time.sleep(0.001)
            # one row per write, alternating components
            schema = ("university", "market")[write % 2]
            number = (write // 2) % 6 + 1
            databases[schema].adapter.update_row("person", number, {"name": f"w{write}"})
            states.append(_fresh(fsm, databases))
            writes[0] = write
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
        runtime.close()
    assert not any(thread.is_alive() for thread in readers)
    assert not errors, errors
    assert all(states[k] != states[k + 1] for k in range(len(states) - 1))
    assert len(answers) >= 4 * 2 * 20
    for started, answer in answers:
        assert answer in states[started : started + 2], (
            f"an answer started after write {started} is neither its "
            "before- nor its after-write answer"
        )
    # the view converged on the last state
    assert _key(fsm.query(QUERY)) == states[-1]


def test_concurrent_cold_queries_overlap_their_fan_outs():
    latency = 0.2
    fsm, _ = _federation()
    transport = SimulatedNetworkTransport(
        InProcessTransport(fsm._agents, fsm._schema_host), FaultProfile(latency=latency)
    )
    # cache off: every query is cold and fans out to both agents
    policy = RuntimePolicy(max_workers=8, cache_enabled=False)
    runtime = fsm.use_runtime(runtime=FederationRuntime(transport=transport, policy=policy))
    try:
        fsm.query(QUERY)  # build the view and warm the pool
        started = time.perf_counter()
        solo = fsm.query(QUERY)
        solo_s = time.perf_counter() - started
        results = []

        def cold_query():
            results.append(fsm.query(QUERY))

        threads = [threading.Thread(target=cold_query) for _ in range(2)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        pair_s = time.perf_counter() - started
    finally:
        runtime.close()
    assert not any(thread.is_alive() for thread in threads)
    assert [_key(rows) for rows in results] == [_key(solo)] * 2
    assert solo_s >= latency
    # a lock held across the fan-out would serialize them: ~2x solo
    assert pair_s < 1.5 * solo_s, (pair_s, solo_s)
