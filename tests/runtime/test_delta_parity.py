"""Property: patch-based answers ≡ the generation-bump baseline, and
the FSM's maintained federation view ≡ a fresh, uncached rebuild.

Two runtimes share one set of component stores — one with
``deltas=True`` (stale granules patched in place from the feed), one
with ``deltas=False`` (the version-mismatch full-rescan baseline).
For *any* interleaving of component writes (insert / update / delete,
against schemas with plain, linearly-mapped and triple-mapped level
storage) and global queries, both must answer identically after every
prefix — across threaded/async × sharded/unsharded × memory/sqlite.
"""

import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.federation import (
    FSM,
    FSMAgent,
    FederationEngine,
    FunctionMapping,
    SameObjectSpec,
)
from repro.federation.query import FederatedQuery
from repro.model import ClassDef, ObjectDatabase, Schema
from repro.runtime import (
    FaultProfile,
    FederationRuntime,
    InProcessTransport,
    RuntimePolicy,
    SimulatedNetworkTransport,
)
from repro.sources import load_source_federation
from repro.workloads import (
    build_memory_databases,
    generate_source_federation,
    source_fsm,
    write_source_directory,
)

SCHEMAS = ("university", "market")

#: fresh raw rows per schema (the level column differs: university
#: stores the global value, market stores basis points through a
#: LinearMapping — patched instances must come out identically mapped)
ROW_OF = {
    "university": lambda i: {
        "ssn": f"uni-new-{i}", "name": f"un{i}",
        "level": (i % 5) + 1, "dept": "d0",
    },
    "market": lambda i: {
        "ssn": f"mkt-new-{i}", "name": f"mn{i}",
        "level_bp": ((i % 5) + 1) * 100, "sector": "s0",
    },
}

QUERIES = (
    FederatedQuery.of("person", {}, ("ssn",)),
    FederatedQuery.of("person", {}, ("ssn", "level")),
)

OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(("insert", "update", "delete", "query")),
        st.integers(min_value=0, max_value=99),
        st.sampled_from(SCHEMAS),
    ),
    min_size=2,
    max_size=8,
)


class MemoryWrites:
    """Slot-aware writes against one schema's memory adapter."""

    def __init__(self, adapter, schema, initial_rows):
        self.adapter = adapter
        self.schema = schema
        self.slots = initial_rows  # tombstones keep their slot number
        self.live = set(range(1, initial_rows + 1))
        self.inserted = 0

    def insert(self, index):
        # the pk is per-writer unique; *index* only varies the level
        self.inserted += 1
        row = dict(ROW_OF[self.schema](index), ssn=f"{self.schema}-w{self.inserted}")
        self.adapter.insert("person", row)
        self.slots += 1
        self.live.add(self.slots)

    def update(self, index):
        if not self.live:
            return
        number = sorted(self.live)[index % len(self.live)]
        self.adapter.update_row("person", number, {"name": f"upd-{index}"})

    def delete(self, index):
        if not self.live:
            return
        number = sorted(self.live)[index % len(self.live)]
        self.adapter.delete_row("person", number)
        self.live.discard(number)


class SqliteWrites:
    """Position-aware writes against one schema's sqlite adapter."""

    def __init__(self, adapter, schema, initial_rows):
        self.adapter = adapter
        self.schema = schema
        self.count = initial_rows
        self.inserted = 0

    def insert(self, index):
        self.inserted += 1
        row = dict(ROW_OF[self.schema](index), ssn=f"{self.schema}-w{self.inserted}")
        self.adapter.insert_row("person", row)
        self.count += 1

    def update(self, index):
        if not self.count:
            return
        self.adapter.update_row(
            "person", index % self.count + 1, {"name": f"upd-{index}"}
        )

    def delete(self, index):
        if not self.count:
            return
        # physical deletes renumber positional OIDs: un-patchable by
        # design, exercising the rescan-marker fallback under parity
        self.adapter.delete_row("person", index % self.count + 1)
        self.count -= 1


def _rows_key(rows):
    return sorted((sorted(row.items()) for row in rows), key=repr)


def _run_interleaving(operations, backend, mode, shards, directory):
    dataset = generate_source_federation(
        people_per_schema=4, records_per_person=1, seed=11, schemas=SCHEMAS
    )
    if backend == "memory":
        databases = build_memory_databases(dataset)
        text = dataset.assertions
        writes_cls = MemoryWrites
    else:
        write_source_directory(dataset, directory, kinds="sqlite")
        text, databases = load_source_federation(directory)
        writes_cls = SqliteWrites
    writers = {
        schema: writes_cls(
            databases[schema].adapter, schema, dataset.people_per_schema
        )
        for schema in SCHEMAS
    }
    fsm_on = source_fsm(databases, text)
    fsm_on.integrate_all()
    fsm_off = source_fsm(databases, text)
    fsm_off.integrate_all()
    runtime_on = fsm_on.use_runtime(
        RuntimePolicy(), mode=mode, shard_plan=shards, deltas=True
    )
    runtime_off = fsm_off.use_runtime(
        RuntimePolicy(), mode=mode, shard_plan=shards, deltas=False
    )
    try:
        for step, (op, index, schema) in enumerate(operations):
            if op == "query":
                query = QUERIES[index % len(QUERIES)]
                assert _rows_key(fsm_on.query(query)) == _rows_key(
                    fsm_off.query(query)
                ), f"answers diverged at step {step} on {query}"
            else:
                getattr(writers[schema], op)(index)
        # both views converge on the final state, whatever the prefix did
        for query in QUERIES:
            assert _rows_key(fsm_on.query(query)) == _rows_key(
                fsm_off.query(query)
            )
        # the baseline never patches; the patched side never bumps
        assert runtime_off.stats().counter("granules_patched") == 0
    finally:
        runtime_on.close()
        runtime_off.close()


@pytest.mark.parametrize("backend", ("memory", "sqlite"))
@pytest.mark.parametrize("mode", ("threaded", "async"))
@pytest.mark.parametrize("shards", (None, 2), ids=("unsharded", "sharded"))
class TestDeltaParity:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(operations=OPERATIONS)
    def test_patched_answers_match_the_rescan_baseline(
        self, operations, backend, mode, shards
    ):
        with tempfile.TemporaryDirectory() as directory:
            _run_interleaving(operations, backend, mode, shards, directory)


# ----------------------------------------------------------------------
# the FSM's maintained federation view ≡ a fresh, uncached rebuild
# ----------------------------------------------------------------------
#: person reads (writes move them) plus classes a planned person query
#: prunes — so planned runs leave stale units behind in the view
VIEW_QUERIES = QUERIES + (
    FederatedQuery.of("person", {}, ("name",)),
    FederatedQuery.of("trade", {}, ("symbol",)),
    FederatedQuery.of("department", {}, ("code",)),
)


def _fresh_rows(fsm, databases, query):
    """The oracle: a one-shot engine — no runtime, cache, plan or view."""
    engine = FederationEngine(fsm.integrated, databases, fsm.mappings, fsm.same_specs)
    return _rows_key(query.run(engine))


def _source_federation(backend, directory):
    """Two source components plus one slot-aware writer per schema."""
    dataset = generate_source_federation(
        people_per_schema=4, records_per_person=1, seed=11, schemas=SCHEMAS
    )
    if backend == "memory":
        databases = build_memory_databases(dataset)
        text = dataset.assertions
        writes_cls = MemoryWrites
    else:
        write_source_directory(dataset, directory, kinds="sqlite")
        text, databases = load_source_federation(directory)
        writes_cls = SqliteWrites
    writers = {
        schema: writes_cls(databases[schema].adapter, schema, dataset.people_per_schema)
        for schema in SCHEMAS
    }
    return databases, text, writers


def _run_view_interleaving(operations, backend, mode, shards, plan, directory):
    databases, text, writers = _source_federation(backend, directory)
    fsm = source_fsm(databases, text)
    fsm.integrate_all()
    runtime = fsm.use_runtime(RuntimePolicy(), mode=mode, shard_plan=shards, plan=plan)
    try:
        for step, (op, index, schema) in enumerate(operations):
            if op == "query":
                query = VIEW_QUERIES[index % len(VIEW_QUERIES)]
                assert _rows_key(fsm.query(query)) == _fresh_rows(
                    fsm, databases, query
                ), f"view diverged from a fresh rebuild at step {step} on {query}"
            else:
                getattr(writers[schema], op)(index)
        for query in VIEW_QUERIES:
            assert _rows_key(fsm.query(query)) == _fresh_rows(fsm, databases, query)
        # nothing changed since: a repeat is served by the view alone
        fsm.query(VIEW_QUERIES[0])
        assert fsm.last_query_stats.granules_relifted == 0
        assert fsm.last_query_stats.view_hits > 0
    finally:
        runtime.close()


@pytest.mark.parametrize("backend", ("memory", "sqlite"))
@pytest.mark.parametrize("mode", ("threaded", "async"))
@pytest.mark.parametrize("shards", (None, 2), ids=("unsharded", "sharded"))
@pytest.mark.parametrize("plan", (True, False), ids=("planned", "unplanned"))
class TestViewParity:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(operations=OPERATIONS)
    def test_maintained_view_matches_a_fresh_rebuild(
        self, operations, backend, mode, shards, plan
    ):
        with tempfile.TemporaryDirectory() as directory:
            _run_view_interleaving(operations, backend, mode, shards, plan, directory)


@pytest.mark.parametrize("mode", ("threaded", "async"))
@pytest.mark.parametrize("shards", (None, 2), ids=("unsharded", "sharded"))
def test_a_dead_agents_granules_answer_empty_never_stale(mode, shards):
    databases, text, _ = _source_federation("memory", None)
    fsm = source_fsm(databases, text)
    fsm.integrate_all()
    transport = SimulatedNetworkTransport(
        InProcessTransport(fsm._agents, fsm._schema_host)
    )
    policy = RuntimePolicy(
        max_retries=0, backoff_base=0.0, breaker_threshold=100, failure_policy="partial"
    )
    runtime = fsm.use_runtime(
        runtime=FederationRuntime(
            transport=transport, policy=policy, mode=mode, shard_plan=shards
        )
    )
    query = QUERIES[0]
    fresh = _fresh_rows(fsm, databases, query)
    survivors = [row for row in fresh if dict(row)["oid"].database != "market"]
    assert len(survivors) < len(fresh)
    try:
        assert _rows_key(fsm.query(query)) == fresh  # the view holds market now
        transport.set_profile("agent-market", FaultProfile(drop_rate=1.0))
        runtime.invalidate(schema="market")
        for _ in range(2):  # unstamped: re-lifted as empty on every query
            assert _rows_key(fsm.query(query)) == survivors
            assert runtime.drain_warnings()
            assert fsm.last_query_stats.granules_relifted >= 1
        transport.set_profile("agent-market", FaultProfile())
        assert _rows_key(fsm.query(query)) == fresh  # recovered: whole again
    finally:
        runtime.close()


def _intersection_fsm():
    """S1.faculty ∩ S2.student: rules with negation over same_object facts."""
    s1 = Schema("S1")
    s1.add_class(ClassDef("faculty").attr("fssn#").attr("income", "integer"))
    s2 = Schema("S2")
    s2.add_class(ClassDef("student").attr("ssn#").attr("study_support", "integer"))
    databases = {"S1": ObjectDatabase(s1, agent="a1"), "S2": ObjectDatabase(s2, agent="a2")}
    databases["S1"].insert("faculty", {"fssn#": "1", "income": 100})
    databases["S2"].insert("student", {"ssn#": "1", "study_support": 50})
    fsm = FSM()
    for name, schema in (("a1", "S1"), ("a2", "S2")):
        agent = FSMAgent(name)
        agent.host_object_database(databases[schema])
        fsm.register_agent(agent)
    fsm.declare(
        """
        assertion S1.faculty ^ S2.student
          attr S1.faculty.fssn# == S2.student.ssn#
          attr S1.faculty.income ^ S2.student.study_support
        end
        """
    )
    fsm.integrate("S1", "S2")
    return fsm, databases


INTERSECTION_QUERIES = tuple(
    FederatedQuery.parse(text)
    for text in (
        "faculty_student() -> fssn#",
        "faculty_only() -> fssn#",
        "student_only() -> ssn#",
        "faculty() -> fssn#, income",
    )
)

SPEC = SameObjectSpec("S1", "faculty", "fssn#", "S2", "student", "ssn#")

VIEW_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(
            ("faculty", "student", "query", "register", "same_object", "reintegrate")
        ),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=2,
    max_size=10,
)


class TestViewInvalidation:
    @settings(max_examples=30, deadline=None)
    @given(events=VIEW_EVENTS)
    def test_configuration_changes_rebuild_the_view(self, events):
        fsm, databases = _intersection_fsm()
        fsm.use_runtime(RuntimePolicy())
        try:
            for step, (event, index) in enumerate(events):
                view = fsm.federation_view()
                if event == "faculty":
                    databases["S1"].insert("faculty", {"fssn#": str(index), "income": index})
                elif event == "student":
                    databases["S2"].insert(
                        "student", {"ssn#": str(index), "study_support": index}
                    )
                elif event == "register":
                    factor = index + 2
                    fsm.mappings.register(
                        "income", "S1", "income", FunctionMapping(lambda x, f=factor: x * f)
                    )
                    assert fsm.federation_view() is not view
                elif event == "same_object":
                    fsm.add_same_object(SPEC)
                    assert fsm.federation_view() is not view
                elif event == "reintegrate":
                    fsm.integrate("S1", "S2", algorithm=("optimized", "naive")[index % 2])
                    assert fsm.federation_view() is not view
                else:
                    query = INTERSECTION_QUERIES[index % len(INTERSECTION_QUERIES)]
                    assert _rows_key(fsm.query(query)) == _fresh_rows(
                        fsm, databases, query
                    ), f"view diverged at step {step} on {query}"
            for query in INTERSECTION_QUERIES:
                assert _rows_key(fsm.query(query)) == _fresh_rows(fsm, databases, query)
        finally:
            fsm.runtime.close()

    def test_reintegration_with_new_assertions_is_seen(self):
        declared, databases = _intersection_fsm()
        fsm = FSM()
        for agent in declared._agents.values():
            fsm.register_agent(agent)
        fsm.add_same_object(SPEC)
        fsm.integrate("S1", "S2")  # no assertions yet: no intersection class
        query = FederatedQuery.parse("faculty_student()")
        assert fsm.query(query) == []
        fsm.declare(
            """
            assertion S1.faculty ^ S2.student
              attr S1.faculty.fssn# == S2.student.ssn#
            end
            """
        )
        fsm.integrate("S1", "S2")
        rows = _rows_key(fsm.query(query))
        assert rows and rows == _fresh_rows(fsm, databases, query)

    def test_detaching_the_runtime_rebuilds_the_view(self):
        fsm, _ = _intersection_fsm()
        runtime = fsm.use_runtime(RuntimePolicy())
        try:
            fsm.query(INTERSECTION_QUERIES[0])
            view = fsm.federation_view()
            fsm.detach_runtime()
            assert fsm.federation_view() is not view
        finally:
            runtime.close()
