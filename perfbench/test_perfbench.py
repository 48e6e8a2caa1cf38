"""The benchmark's own tests.

Run from the repository root with
``PYTHONPATH=src python -m pytest perfbench -q`` (about two minutes:
the exact-repeat tests run real workloads twice).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.common import answer_digest, percentile
from perfbench.federations import (
    CORE_SCHEMAS,
    Mirror,
    Write,
    reference_engine,
    reference_rows,
)
from perfbench.oracle import AnswerLog, check_log, probe_writes
from perfbench.report import per_layer
from perfbench.tracing import Span, Tracer, self_times
from repro.workloads.source_scenarios import generate_source_federation

#: counts later claims rest on; with one client they must repeat exactly
EXACT_COUNTS = (
    "federation.facts_lifted",
    "logic.facts_copied",
    "runtime.agent_scans_per_read",
    "runtime.round_trips_per_read",
    "runtime.granules_patched",
    "runtime.fallback_invalidations",
    "sources.instances_scanned",
)


def _counts(name: str, seed: int, tmp: Path):
    measured = workloads.run_workload(name, seed, 0.0, Tracer(), tmp / name)
    assert measured.failed == 0, measured.errors
    metrics = per_layer(measured)
    return {key: metrics[key]["value"] for key in EXACT_COUNTS}, metrics


@pytest.mark.parametrize("name", ["warm_read", "write_mix"])
def test_counts_repeat_exactly_for_a_seed(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "MIN_REPEATS", 4)
    monkeypatch.setattr(workloads, "PROBE_UNITS_PER_REPEAT", 1)
    first, metrics = _counts(name, 11, tmp_path)
    second, _ = _counts(name, 11, tmp_path)
    assert first == second
    if name == "warm_read":
        assert metrics["runtime.agent_scans_per_read"]["value"] == 0
        assert metrics["federation.facts_lifted"]["value"] > 0
    else:
        assert metrics["runtime.deltas_applied"]["value"] > 0
        assert metrics["runtime.fallback_invalidations"]["value"] > 0


def _dataset():
    return generate_source_federation(8, 1, CORE_SCHEMAS, seed=5)


def test_oracle_accepts_right_and_rejects_wrong_answers():
    dataset = _dataset()
    mirror = Mirror(dataset)
    query = "person(level=3) -> ssn, name"
    right = answer_digest(reference_rows(reference_engine(dataset, mirror.rows), query))
    log = AnswerLog()
    log.read(query, right)
    assert check_log(Mirror(dataset), log) == 0
    log.read(query, answer_digest([]))
    log.read(query, None)
    assert check_log(Mirror(dataset), log) == 2


def test_oracle_follows_writes_and_requires_them_visible():
    dataset = _dataset()
    mirror = Mirror(dataset)
    write = Write("update_person", "hospital", "person", number=2,
                  changes={"name": "renamed"},
                  shows=f"person(ssn='{mirror.rows['hospital']['person'][1]['ssn']}') -> name")
    before = answer_digest(reference_rows(reference_engine(dataset, mirror.rows), write.shows))
    log = AnswerLog()
    log.write(write)
    log.read(write.shows, before)  # a stale answer: the write is not shown
    assert check_log(Mirror(dataset), log) == 1
    invisible = Write("update_person", "hospital", "person", number=2,
                      changes={"name": "renamed"}, shows="ward() -> code")
    log = AnswerLog()
    log.write(invisible)
    assert check_log(Mirror(dataset), log) == 1


def test_probes_are_checked_as_a_group():
    dataset = _dataset()
    writes = probe_writes(Mirror(dataset), 0, 6)
    assert len({(w.schema, w.number) for w in writes}) == 6
    after = Mirror(dataset)
    for write in writes:
        after.apply(write)
    engine = reference_engine(dataset, after.rows)
    log = AnswerLog()
    for write in writes:
        log.probe(write, answer_digest(reference_rows(engine, write.shows)))
    assert check_log(Mirror(dataset), log) == 0
    log.probe(probe_writes(Mirror(dataset), 6, 1)[0], None)
    assert check_log(Mirror(dataset), log) == 1


def test_self_time_subtracts_the_union_of_children():
    parent = Span(1, None, 1, "a", 0, 0.0, 10.0)
    children = [Span(2, 1, 1, "b", 0, 1.0, 4.0), Span(3, 1, 1, "c", 9, 3.0, 5.0),
                Span(4, 1, 1, "d", 9, 9.0, 12.0)]
    selfs = self_times([parent] + children)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)


def test_tracer_restores_the_originals():
    from repro.federation.fsm import FSM

    original = FSM.__dict__["plan_query"]
    tracer = Tracer()
    tracer.install()
    assert FSM.__dict__["plan_query"] is not original
    tracer.uninstall()
    assert FSM.__dict__["plan_query"] is original


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert percentile(samples, 0.5) == 50
    assert percentile(samples, 0.9) == 90


def test_run_refuses_without_the_program_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", Path(__file__).resolve().parent / "no-such-checkout")
    code = run.main(["--workload", "warm_read", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
