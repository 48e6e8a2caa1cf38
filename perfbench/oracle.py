"""Answer checking against fresh in-memory reference evaluations.

The timed loops only record what the program answered (a digest per
read) and which writes it received, in program order.  After the timed
units the log is replayed over a :class:`~perfbench.federations.Mirror`
of the generated rows, and every read is compared with a reference
evaluation of the mirror state it ran against.  A write must also be
visible: its ``shows`` query must answer differently after it than
before it.

Write-visibility probes (a rename followed by the read that shows it)
are checked a group at a time: the renames in one group touch distinct
people and no keys, so each probe's ``shows`` answer is the same in
every later state of the group, and one reference after the group
checks them all.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .common import answer_digest
from .federations import Mirror, Write, reference_engine, reference_rows


class AnswerLog:
    """Reads, writes and probes, in the order the program saw them.

    A digest of ``None`` marks a read that failed before answering.
    """

    def __init__(self) -> None:
        self.entries: List[Tuple[str, Any, Optional[str]]] = []

    def read(self, query: str, digest: Optional[str]) -> None:
        self.entries.append(("read", query, digest))

    def write(self, write: Write) -> None:
        self.entries.append(("write", write, None))

    def probe(self, write: Write, digest: Optional[str]) -> None:
        self.entries.append(("probe", write, digest))

    def __len__(self) -> int:
        return len(self.entries)


class _States:
    """Reference digests of the mirror's current state, built lazily."""

    def __init__(self, mirror: Mirror) -> None:
        self.mirror = mirror
        self._engine: Any = None
        self._digests: Dict[str, str] = {}

    def digest(self, query: str) -> str:
        if query not in self._digests:
            if self._engine is None:
                self._engine = reference_engine(self.mirror.dataset, self.mirror.rows)
            self._digests[query] = answer_digest(reference_rows(self._engine, query))
        return self._digests[query]

    def apply(self, write: Write) -> None:
        self.mirror.apply(write)
        self._engine = None
        self._digests = {}


def _check_probes(states: _States, group: List[Tuple[Write, Optional[str]]]) -> int:
    if len({(w.schema, w.number) for w, _ in group}) != len(group) or any(
        w.kind != "update_person" or "ssn" in (w.changes or {}) for w, _ in group
    ):
        raise ValueError("a probe group must rename distinct people")
    before = {write.shows: states.digest(write.shows) for write, _ in group}
    for write, _ in group:
        states.apply(write)
    failures = 0
    for write, digest in group:
        expected = states.digest(write.shows)
        if expected == before[write.shows] or digest != expected:
            failures += 1
    return failures


def check_log(mirror: Mirror, log: AnswerLog) -> int:
    """Replay *log* from *mirror*'s state; returns the number of failures
    (wrong or missing answers, and writes their ``shows`` query missed)."""
    states = _States(mirror)
    failures = 0
    group: List[Tuple[Write, Optional[str]]] = []
    for kind, item, digest in log.entries + [("end", None, None)]:
        if kind == "probe":
            group.append((item, digest))
            continue
        if group:
            failures += _check_probes(states, group)
            group = []
        if kind == "write":
            before = states.digest(item.shows)
            states.apply(item)
            if states.digest(item.shows) == before:
                failures += 1
        elif kind == "read" and (digest is None or digest != states.digest(item)):
            failures += 1
    return failures


def probe_writes(mirror: Mirror, start: int, count: int) -> List[Write]:
    """Renames number *start* .. *start+count-1*, round-robin over the
    components; consecutive ones touch distinct people."""
    schemas = mirror.dataset.schemas
    writes = []
    for index in range(start, start + count):
        schema = schemas[index % len(schemas)]
        people = mirror.rows[schema]["person"]
        number = (index // len(schemas)) % len(people) + 1
        writes.append(
            Write(
                "update_person",
                schema,
                "person",
                number=number,
                changes={"name": f"probe-{index}"},
                shows=f"person(ssn='{people[number - 1]['ssn']}') -> name, level",
            )
        )
    return writes
