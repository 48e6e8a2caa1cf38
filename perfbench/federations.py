"""Seeded inputs and the reference answers they are checked against.

Every input comes from :func:`repro.workloads.generate_source_federation`
under the run's ``--seed``: the federation's rows, the query rotation
and the write stream.  The program receives only these generated
inputs.

:class:`Mirror` holds a plain copy of the generated rows and applies the
same writes the program receives, keeping rows in storage order (sqlite
numbers tuples by rowid, and a delete renumbers the rows after it).
:func:`reference_engine` evaluates a mirror state the slow, independent
way: fresh in-memory adapters, a fresh integration, no runtime, no
cache, no planner.
"""

from __future__ import annotations

import copy
import dataclasses
import random
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.federation.evaluation import FederationEngine
from repro.federation.query import FederatedQuery
from repro.sources.base import MemorySourceAdapter
from repro.workloads.source_scenarios import (
    SOURCE_SYSTEM,
    SourceFederation,
    build_memory_databases,
    source_fsm,
)

#: warm_read / write_mix: the three heterogeneous components
CORE_SCHEMAS = ("university", "hospital", "market")
#: service_fanout: more agents, small extents
FANOUT_SCHEMAS = CORE_SCHEMAS + ("clinic", "bank", "library")


@dataclasses.dataclass(frozen=True)
class Shape:
    """Relation and column names of one generated component schema."""

    schema: str
    lookup: str
    bulk: str
    person_extra: str
    level_column: str
    bulk_text: str
    bulk_number: str

    @classmethod
    def of(cls, dataset: SourceFederation, schema: str) -> "Shape":
        lookup, person, bulk = dataset.relations[schema]
        return cls(
            schema=schema,
            lookup=lookup.name,
            bulk=bulk.name,
            person_extra=person.column_names[3],
            level_column=person.column_names[2],
            bulk_text=bulk.column_names[2],
            bulk_number=bulk.column_names[3],
        )

    def encode_level(self, level: int) -> Any:
        """A level as this component stores it (see the generator)."""
        if self.level_column == "lvl":
            return f"L{level}"
        if self.level_column == "level_bp":
            return level * 100
        return level


def integrated_names(dataset: SourceFederation) -> Dict[Tuple[str, str], str]:
    """``(schema, relation) -> integrated class name`` (integration is
    schema-only, so a throwaway in-memory federation answers it)."""
    fsm = source_fsm(build_memory_databases(dataset), dataset.assertions)
    integrated = fsm.integrate_all()
    names: Dict[Tuple[str, str], str] = {}
    for schema in dataset.schemas:
        for spec in dataset.relations[schema]:
            name = integrated.is_name(schema, spec.name)
            if name is not None:
                names[(schema, spec.name)] = name
    return names


def _pick(rng: random.Random, rows: Sequence[Mapping[str, Any]], column: str) -> Any:
    values = sorted({row[column] for row in rows if row.get(column) is not None}, key=repr)
    return rng.choice(values)


def _quote(value: Any) -> str:
    return f"'{value}'" if isinstance(value, str) else str(value)


def read_rotation(dataset: SourceFederation, seed: int, length: int) -> List[str]:
    """A fixed rotation of filtered and unfiltered global queries.

    Even positions query the integrated ``person`` class, which every
    component feeds (all of it, one level, one person); odd positions
    walk the components' bulk and lookup classes (filtered bulk,
    unfiltered bulk, lookup).  Filter values are drawn from the
    generated rows, so no answer is empty.
    """
    rng = random.Random(seed * 7919 + 17)
    names = integrated_names(dataset)
    shapes = [Shape.of(dataset, schema) for schema in dataset.schemas]
    queries: List[str] = []
    for index in range(length):
        step = index // 2
        if index % 2 == 0:
            shape = shapes[step % len(shapes)]
            people = dataset.rows[shape.schema]["person"]
            queries.append((
                "person() -> ssn, name, level",
                f"person(level={rng.choice((1, 2, 3, 4, 5))}) -> ssn, name",
                f"person(ssn={_quote(_pick(rng, people, 'ssn'))}) -> name, level",
            )[step % 3])
            continue
        shape = shapes[step % len(shapes)]
        rows = dataset.rows[shape.schema]
        bulk = names[(shape.schema, shape.bulk)]
        kind = (step // len(shapes)) % 3
        if kind == 0:
            value = _quote(_pick(rng, rows[shape.bulk], shape.bulk_text))
            queries.append(f"{bulk}({shape.bulk_text}={value}) -> {shape.bulk_number}")
        elif kind == 1:
            queries.append(f"{bulk}() -> {shape.bulk_text}, {shape.bulk_number}")
        else:
            queries.append(f"{names[(shape.schema, shape.lookup)]}() -> code, title")
    return queries


# ----------------------------------------------------------------------
# writes
# ----------------------------------------------------------------------
#: the write mix, cycled per component: mostly patchable inserts and
#: updates; ``delete_record`` (a sqlite delete renumbers its relation)
#: and ``rekey_person`` (a primary-key move re-resolves the referrers'
#: foreign keys) emit rescan markers, as does ``insert_person``
WRITE_KINDS = (
    "insert_record",
    "update_person",
    "update_record",
    "insert_person",
    "delete_record",
    "update_person",
    "insert_record",
    "rekey_person",
)


@dataclasses.dataclass(frozen=True)
class Write:
    """One component write plus the query whose answer must show it."""

    kind: str
    schema: str
    relation: str
    #: 1-based storage position for updates and deletes
    number: int = 0
    row: Optional[Dict[str, Any]] = None
    changes: Optional[Dict[str, Any]] = None
    #: a query on the written class whose answer the write changes
    shows: str = ""


class Mirror:
    """The generated rows, in storage order, with writes applied."""

    def __init__(self, dataset: SourceFederation) -> None:
        self.dataset = dataset
        self.rows: Dict[str, Dict[str, List[Dict[str, Any]]]] = copy.deepcopy(dataset.rows)
        self.shapes = {schema: Shape.of(dataset, schema) for schema in dataset.schemas}
        self._next_id = {
            schema: 1 + max(row["id"] for row in self.rows[schema][shape.bulk])
            for schema, shape in self.shapes.items()
        }
        self._serial = 0

    def apply(self, write: Write) -> None:
        rows = self.rows[write.schema][write.relation]
        if write.kind.startswith("insert"):
            assert write.row is not None
            rows.append(dict(write.row))
        elif write.kind == "delete_record":
            del rows[write.number - 1]
        else:
            assert write.changes is not None
            rows[write.number - 1].update(write.changes)

    def plan(self, index: int, rng: random.Random, bulk_name: Mapping[str, str]) -> Write:
        """The *index*-th write of the stream (round-robin over schemas).

        *bulk_name* maps schema -> integrated name of its bulk relation.
        """
        schema = self.dataset.schemas[index % len(self.dataset.schemas)]
        kind = WRITE_KINDS[(index // len(self.dataset.schemas)) % len(WRITE_KINDS)]
        shape = self.shapes[schema]
        people = self.rows[schema]["person"]
        records = self.rows[schema][shape.bulk]
        bulk = bulk_name[schema]
        self._serial += 1
        tag = f"w{self._serial}"
        if kind == "insert_record":
            text = f"{shape.bulk_text}{rng.randrange(64)}"
            row = {
                "id": self._next_id[schema],
                "person_ssn": rng.choice(people)["ssn"],
                shape.bulk_text: text,
                shape.bulk_number: rng.randint(0, 500),
            }
            self._next_id[schema] += 1
            return Write(kind, schema, shape.bulk, row=row,
                         shows=f"{bulk}({shape.bulk_text}='{text}') -> {shape.bulk_number}")
        if kind == "update_record":
            number = rng.randrange(len(records)) + 1
            target = records[number - 1]
            changes = {shape.bulk_number: 1000 + self._serial}
            return Write(kind, schema, shape.bulk, number=number, changes=changes,
                         shows=f"{bulk}(id={target['id']}) -> {shape.bulk_number}")
        if kind == "delete_record":
            number = rng.randrange(len(records)) + 1
            text = records[number - 1][shape.bulk_text]
            return Write(kind, schema, shape.bulk, number=number,
                         shows=f"{bulk}({shape.bulk_text}='{text}') -> {shape.bulk_number}")
        if kind == "insert_person":
            ssn = f"{schema}-{tag}"
            lookup_rows = self.rows[schema][shape.lookup]
            row = {
                "ssn": ssn,
                "name": f"name-{tag}",
                shape.level_column: shape.encode_level(rng.choice((1, 2, 3, 4, 5))),
                shape.person_extra: rng.choice(lookup_rows)["code"],
            }
            return Write(kind, schema, "person", row=row,
                         shows=f"person(ssn='{ssn}') -> name, level")
        number = rng.randrange(len(people)) + 1
        target = people[number - 1]
        if kind == "update_person":
            return Write(kind, schema, "person", number=number,
                         changes={"name": f"name-{tag}"},
                         shows=f"person(ssn='{target['ssn']}') -> name, level")
        ssn = f"{schema}-{tag}"
        return Write("rekey_person", schema, "person", number=number,
                     changes={"ssn": ssn}, shows=f"person(ssn='{ssn}') -> name")


def apply_to_adapter(adapter: Any, write: Write) -> None:
    """Send *write* through the component adapter's public write call."""
    if write.kind.startswith("insert"):
        insert = getattr(adapter, "insert_row", None) or adapter.insert
        insert(write.relation, write.row)
    elif write.kind == "delete_record":
        adapter.delete_row(write.relation, write.number)
    else:
        adapter.update_row(write.relation, write.number, write.changes)


# ----------------------------------------------------------------------
# reference answers
# ----------------------------------------------------------------------
def reference_engine(
    dataset: SourceFederation, rows: Mapping[str, Mapping[str, Sequence[Mapping[str, Any]]]]
) -> FederationEngine:
    """A fresh, uncached, unplanned in-memory evaluation over *rows*."""
    databases = {
        schema: MemorySourceAdapter(
            schema,
            rows[schema],
            dataset.relations[schema],
            mappings=dataset.mappings[schema] or None,
            agent=dataset.agent_name(schema),
            system=SOURCE_SYSTEM,
        ).database()
        for schema in dataset.schemas
    }
    fsm = source_fsm(databases, dataset.assertions)
    fsm.integrate_all()
    return fsm.engine()


def reference_rows(engine: FederationEngine, query: str) -> List[Dict[str, Any]]:
    return FederatedQuery.parse(query).run(engine)
