"""Federated fact lifting and rule evaluation (§3, §5, Appendix B).

The FSM answers global queries by combining

1. **lifted base facts** — component extents renamed to integrated
   concepts (``inst$IS(A)`` / ``att$IS(A)$attr``), with attribute values
   translated through the ``F^A_{DB_i,B}`` data mappings, plus the
   ``same_object`` facts the identity specs produce;
2. **inheritance rules** — ``inst$parent(x) ⇐ inst$child(x)`` per
   integrated is-a link (the extension semantics of typing O-terms);
3. **the integrated schema's derivation rules** (Principles 3-5).

Two evaluation paths exist, as in the paper: the production bottom-up
engine (:class:`FederationEngine`, semi-naive, handles recursion — it
answers on a :class:`FederationView`, the lifted and materialized
federation kept alive across queries and refreshed one lifting unit at
a time) and
the faithful Appendix B top-down evaluator (:func:`appendix_b_program`),
whose :class:`AgentSource` fetches one concept extension per call — the
paper's autonomy argument made observable.
"""

from __future__ import annotations

import threading
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.planner import QueryPlan
    from ..runtime.runtime import FederationRuntime

from ..integration.result import IntegratedSchema
from ..logic.atoms import Atom
from ..logic.engine import FactStore, FactTuple, QueryEngine, iter_value_elements
from ..logic.labelled import LabelledProgram, SchemaSource
from ..logic.oterms import att_predicate, inst_predicate, parse_predicate
from ..logic.rules import DatalogRule, Rule, compile_rules
from ..model.store import ComponentStore
from .agent import FSMAgent
from .mappings import MappingRegistry, SameObjectSpec, same_object_facts


def inheritance_rules(integrated: IntegratedSchema) -> List[Rule]:
    """``inst$parent(x) ⇐ inst$child(x)`` for every integrated is-a link."""
    from ..logic.oterms import OTerm

    rules: List[Rule] = []
    for child, parent in integrated.is_a_links():
        rules.append(
            Rule.of(
                OTerm.of("?x", parent),
                [OTerm.of("?x", child)],
                name=f"is_a({child},{parent})",
            )
        )
    return rules


def _ancestor_chain(integrated: IntegratedSchema, name: str) -> List[str]:
    """*name* and all its integrated ancestors (BFS order)."""
    chain = [name]
    frontier = list(integrated.parents(name))
    while frontier:
        current = frontier.pop(0)
        if current not in chain:
            chain.append(current)
            frontier.extend(integrated.parents(current))
    return chain


#: one lifting unit: ``(integrated class, component schema, local class)``
LiftUnit = Tuple[str, str, str]


def lift_units(
    integrated: IntegratedSchema,
    databases: Mapping[str, ComponentStore],
    plan: Optional["QueryPlan"] = None,
) -> List[LiftUnit]:
    """The lifting units of *integrated* over *databases*, in lift order.

    One unit per origin ``(s, c)`` of each non-virtual integrated class
    (that *plan* allows) whose schema *s* is registered; a unit lifts
    the direct extent of ``c`` in *s* and nothing else.
    """
    return [
        (integrated_class.name, schema_name, class_name)
        for integrated_class in integrated
        if not integrated_class.virtual
        and (plan is None or plan.allows(integrated_class.name))
        for schema_name, class_name in integrated_class.origins
        if schema_name in databases
    ]


def fetch_extents(
    units: Sequence[LiftUnit],
    databases: Mapping[str, ComponentStore],
    runtime: Optional["FederationRuntime"] = None,
) -> Mapping[Tuple[str, str], List[Any]]:
    """The direct extents *units* lift, keyed ``(schema, class)``.

    With a *runtime*, one concurrent fan-out (cached, retried,
    circuit-broken) whose answer carries each granule's stamp (see
    :class:`~repro.runtime.runtime.ExtentScan`); extents it could not
    serve (failed agents under ``PARTIAL``) are absent.  Without one,
    direct, unstamped agent reads.
    """
    pairs = [(schema_name, class_name) for _, schema_name, class_name in units]
    if runtime is not None:
        return runtime.scan_extents(pairs, op="direct_extent")
    return {
        (schema_name, class_name): databases[schema_name].direct_extent(class_name)
        for schema_name, class_name in dict.fromkeys(pairs)
    }


def lift_facts(
    integrated: IntegratedSchema,
    databases: Mapping[str, ComponentStore],
    mappings: Optional[MappingRegistry] = None,
    units: Optional[Sequence[LiftUnit]] = None,
    extents: Optional[Mapping[Tuple[str, str], Sequence[Any]]] = None,
) -> FactStore:
    """Compile component extents into integrated-name facts.

    For every non-virtual integrated class ``N`` with origin ``(s, c)``:
    each instance of ``c``'s *direct* extent in schema *s* yields
    ``inst$N(oid)``, and per integrated attribute of ``N`` (or of an
    integrated ancestor of ``N``) with an origin in *s*, one
    ``att$...(oid, translated_value)`` fact per value element.
    Aggregation values (OIDs) lift untranslated under the aggregation's
    integrated name.

    *units* (see :func:`lift_units`, default all of them) lifts exactly
    those units, and *extents* supplies their prefetched direct extents
    (see :func:`fetch_extents`, default direct agent reads; a missing
    extent lifts as empty): this is how the maintained
    :class:`FederationView` re-lifts one changed unit.
    """
    if mappings is None:
        mappings = MappingRegistry()
    if units is None:
        units = lift_units(integrated, databases)
    if extents is None:
        extents = fetch_extents(units, databases)
    store = FactStore()
    for unit in units:
        _lift_unit(
            integrated,
            databases[unit[1]],
            unit,
            extents.get(unit[1:], ()),
            mappings,
            store,
        )
    return store


def _lift_unit(
    integrated: IntegratedSchema,
    database: ComponentStore,
    unit: LiftUnit,
    extent: Sequence[Any],
    mappings: MappingRegistry,
    store: FactStore,
) -> None:
    """Lift one unit's extent into *store* (see :func:`lift_facts`)."""
    integrated_name, schema_name, class_name = unit
    local_class = database.schema.effective_class(class_name)
    local_ancestry = {class_name} | database.schema.ancestors(class_name)
    # per target: its inst predicate, then the (name, local attribute,
    # mapping) of every attribute and the (predicate, local attribute)
    # of every aggregation this unit's schema feeds
    targets = []
    for target_name in _ancestor_chain(integrated, integrated_name):
        target = integrated.cls(target_name)
        attributes = [
            (
                attribute.name,
                o_attr,
                mappings.resolve(attribute.name, schema_name, o_attr),
            )
            for attribute in target.attributes.values()
            for o_schema, o_class, o_attr in attribute.origins
            if o_schema == schema_name
            and o_class in local_ancestry
            and local_class.has_member(o_attr)
        ]
        aggregations = [
            (att_predicate(target_name, aggregation.name), o_attr)
            for aggregation in target.aggregations.values()
            for o_schema, o_class, o_attr in aggregation.origins
            if o_schema == schema_name and o_class in local_ancestry
        ]
        targets.append(
            (target_name, inst_predicate(target_name), attributes, aggregations)
        )
    for instance in extent:
        oid = instance.oid
        for target_name, membership, attributes, aggregations in targets:
            store.add(membership, (oid,))
            for name, o_attr, mapping in attributes:
                value = instance.get(o_attr)
                if value is None:
                    continue
                for descriptor, element in iter_value_elements(name, value):
                    translated = mapping.translate(element)
                    if translated is not None:
                        store.add(
                            att_predicate(target_name, descriptor),
                            (oid, translated),
                        )
            for predicate, o_attr in aggregations:
                value = instance.get(o_attr)
                if value is None:
                    continue
                elements = value if isinstance(value, frozenset) else (value,)
                for element in elements:
                    store.add(predicate, (oid, element))


class FederationContext:
    """A live :class:`~repro.integration.result.ValueContext`.

    Answers ``value_set`` from component extents and ``paired_values``
    from the same-object specs — making the value-set specifications of
    Principles 1 and 3 (unions, differences, AIF applications,
    concatenations) executable against real data.
    """

    def __init__(
        self,
        databases: Mapping[str, ComponentStore],
        same_specs: Sequence[SameObjectSpec] = (),
    ) -> None:
        self._databases = databases
        self._same_specs = list(same_specs)

    def value_set(self, schema: str, class_name: str, attribute: str) -> Set[Any]:
        database = self._databases.get(schema)
        if database is None:
            return set()
        return database.value_set(class_name, attribute)

    def paired_values(self, left, right) -> List[Tuple[Any, Any]]:
        left_schema, left_class, left_attr = left
        right_schema, right_class, right_attr = right
        left_db = self._databases.get(left_schema)
        right_db = self._databases.get(right_schema)
        if left_db is None or right_db is None:
            return []
        pair_index: Dict[Any, List[Any]] = {}
        for spec in self._same_specs:
            if (
                spec.left_schema == left_schema
                and spec.left_class == left_class
                and spec.right_schema == right_schema
                and spec.right_class == right_class
            ):
                key_spec = spec
                break
        else:
            return []
        right_by_key: Dict[Any, List[Any]] = {}
        for instance in right_db.extent(right_class):
            key = key_spec.mapping.translate(instance.get(key_spec.right_key))
            if key is not None:
                right_by_key.setdefault(key, []).append(instance)
        pairs: List[Tuple[Any, Any]] = []
        for instance in left_db.extent(left_class):
            key = instance.get(key_spec.left_key)
            if key is None:
                continue
            for partner in right_by_key.get(key, ()):
                pairs.append((instance.get(left_attr), partner.get(right_attr)))
        return pairs


#: the view's key for the same-object fragment (never a lifting unit)
_SAME_OBJECT = ("same_object",)


class _Snapshot(NamedTuple):
    """What one engine fetched for its query: the view answers on it."""

    databases: Mapping[str, ComponentStore]
    #: the units this query refreshes (the plan's allowed ones)
    units: Sequence[LiftUnit]
    extents: Mapping[Tuple[str, str], Sequence[Any]]
    #: unit -> its granule's stamp, or this snapshot's own fresh token
    tokens: Dict[LiftUnit, Any]
    same_object: Optional[FactStore]
    runtime: Optional["FederationRuntime"]


class FederationView:
    """The lifted, materialized federation, kept alive across queries.

    The base is one *fragment* (a :class:`FactStore`) per lifting unit
    (:func:`lift_units`) plus one for the ``same_object`` facts; the
    live store holds their union and everything the rules derive from
    it.  Each fragment is tagged with the stamp of the granule it was
    lifted from (:class:`~repro.runtime.runtime.ExtentScan`), so a query
    re-lifts only the units whose extents changed:

    * a unit whose stamp is unchanged is skipped (a ``view_hits`` count);
    * a changed unit is re-lifted through :func:`lift_facts`
      (``granules_relifted``); when its facts differ, it swaps its
      fragment, and only the predicates it touches are rebuilt from
      their contributing fragments;
    * after a swap, derived facts are retracted (their predicates
      rebuilt from the base) and re-derived in place, semi-naive from
      scratch, through :meth:`QueryEngine.rederive`.

    A unit without a stamp — no runtime, cache off, or a granule that
    failed under ``PARTIAL`` (lifted as empty) — is re-lifted by every
    new snapshot, so it never answers from an old fragment.  A planned
    query refreshes only its allowed units: the planner's closure
    guarantees the others cannot change its answer.

    :meth:`snapshot` runs the fan-out and takes no lock; only the
    fragment swap, re-derivation and the answer (:meth:`ask`) run under
    the view's lock, so concurrent queries overlap their agent waits.
    A view is bound to one integration, mapping registry version and
    set of identity specs: the FSM builds a new one when any changes.
    """

    def __init__(
        self,
        integrated: IntegratedSchema,
        mappings: Optional[MappingRegistry] = None,
        same_specs: Sequence[SameObjectSpec] = (),
    ) -> None:
        self.integrated = integrated
        self.mappings = mappings if mappings is not None else MappingRegistry()
        #: the registry version the lifted fragments were translated at
        self.mappings_version = self.mappings.version
        self.same_specs = tuple(same_specs)
        self._store = FactStore()
        self._engine = QueryEngine(
            integrated.evaluable_rules() + inheritance_rules(integrated), self._store
        )
        self._derived_predicates = frozenset(
            rule.head.predicate for rule in self._engine.rules
        )
        self._fragments: Dict[Any, FactStore] = {}
        self._tokens: Dict[Any, Any] = {}
        #: predicate -> the units whose fragments hold it (insertion-ordered)
        self._contributors: Dict[str, Dict[Any, None]] = {}
        self._lock = threading.Lock()
        #: facts the last derivation added on top of the base (set by _clear)
        self._derived = 0
        self._clear()

    def snapshot(
        self,
        databases: Mapping[str, ComponentStore],
        runtime: Optional["FederationRuntime"] = None,
        plan: Optional["QueryPlan"] = None,
    ) -> _Snapshot:
        """Fetch what a query needs (the fan-out), outside the lock."""
        units = lift_units(self.integrated, databases, plan)
        extents = fetch_extents(units, databases, runtime)
        # a runtime's scan stamps each granule; direct reads carry none
        stamps = extents.stamps if runtime is not None else {}  # type: ignore[attr-defined]
        fresh = object()
        tokens = {}
        for unit in units:
            stamp = stamps.get(unit[1:])
            tokens[unit] = fresh if stamp is None else stamp
        same_object = (
            same_object_facts(self.same_specs, databases) if self.same_specs else None
        )
        return _Snapshot(databases, units, extents, tokens, same_object, runtime)

    def ask(self, snapshot: _Snapshot, goals: Sequence[Atom]) -> List[Dict[str, Any]]:
        """Refresh to *snapshot*, then answer *goals*, atomically."""
        with self._lock:
            self._refresh(snapshot)
            return self._engine.ask(*goals)

    def query_engine(self, snapshot: _Snapshot) -> QueryEngine:
        """The live engine, refreshed to *snapshot* (later refreshes by
        other queries change what it answers)."""
        with self._lock:
            self._refresh(snapshot)
            return self._engine

    # ------------------------------------------------------------------
    def _refresh(self, snapshot: _Snapshot) -> None:
        """Bring the live store to *snapshot* (the caller holds the lock);
        timed as the runtime's ``lift_facts`` phase when one is attached."""
        runtime = snapshot.runtime
        try:
            if runtime is None:
                self._apply(snapshot)
                return
            with runtime.timer("lift_facts"):
                relifted = self._apply(snapshot)
        except BaseException:
            # a half-applied refresh leaves fragments, stamps and the
            # live store disagreeing: start over on the next query
            self._clear()
            raise
        runtime.metrics.incr("granules_relifted", relifted)
        runtime.metrics.incr("view_hits", len(snapshot.units) - relifted)

    def _clear(self) -> None:
        """Forget every fragment: the store holds only what the rules
        derive from nothing."""
        self._fragments.clear()
        self._tokens.clear()
        self._contributors.clear()
        for predicate in self._store.predicates():
            self._store.replace(predicate, set())
        self._engine.rederive()
        self._derived = len(self._store)

    def _apply(self, snapshot: _Snapshot) -> int:
        """Swap in every changed fragment and re-derive; the number of
        units re-lifted."""
        changed: Set[str] = set()
        relifted = 0
        for unit in snapshot.units:
            token = snapshot.tokens[unit]
            if self._tokens.get(unit) == token:
                continue
            fragment = lift_facts(
                self.integrated,
                snapshot.databases,
                self.mappings,
                units=(unit,),
                extents=snapshot.extents,
            )
            relifted += 1
            self._tokens[unit] = token
            self._swap(unit, fragment, changed)
        if snapshot.same_object is not None:
            self._swap(_SAME_OBJECT, snapshot.same_object, changed)
        if changed:
            if self._derived:
                changed.update(self._derived_predicates)  # retract derivations
            for predicate in changed:
                self._rebuild(predicate)
            before = len(self._store)
            self._engine.rederive()
            self._derived = len(self._store) - before
        return relifted

    def _swap(self, unit: Any, fragment: FactStore, changed: Set[str]) -> None:
        """Replace *unit*'s fragment, noting the predicates whose base
        facts may have changed."""
        old = self._fragments.get(unit)
        if old is not None:
            if old == fragment:
                return  # same facts: the live store already holds them
            for predicate in old.predicates():
                contributors = self._contributors[predicate]
                del contributors[unit]
                if not contributors:
                    del self._contributors[predicate]
                changed.add(predicate)
        self._fragments[unit] = fragment
        for predicate in fragment.predicates():
            self._contributors.setdefault(predicate, {})[unit] = None
            changed.add(predicate)

    def _rebuild(self, predicate: str) -> None:
        """Reset *predicate* in the live store to its base facts."""
        units = self._contributors.get(predicate, ())
        if len(units) == 1 and predicate not in self._derived_predicates:
            # shared with the fragment: rules never add to a base-only
            # predicate, and fragments are replaced, never mutated
            (unit,) = units
            facts = self._fragments[unit].facts(predicate)
        else:
            facts = set()
            for unit in units:
                facts.update(self._fragments[unit].facts(predicate))
        self._store.replace(predicate, facts)


class FederationEngine:
    """Bottom-up federated query engine over an integrated schema.

    Construction fetches the query's extents (the fan-out); every
    :meth:`ask` refreshes a :class:`FederationView` to them and answers
    on it.  The FSM passes its long-lived *view*, so warm queries re-lift
    nothing; without one the engine builds a private view and lifts
    everything, as a one-shot engine always did (*mappings* and
    *same_specs* configure that private view only).
    """

    def __init__(
        self,
        integrated: IntegratedSchema,
        databases: Mapping[str, ComponentStore],
        mappings: Optional[MappingRegistry] = None,
        same_specs: Sequence[SameObjectSpec] = (),
        runtime: Optional["FederationRuntime"] = None,
        plan: Optional["QueryPlan"] = None,
        view: Optional[FederationView] = None,
    ) -> None:
        self.integrated = integrated
        self.runtime = runtime
        self.plan = plan
        self.view = (
            view if view is not None else FederationView(integrated, mappings, same_specs)
        )
        self._snapshot = self.view.snapshot(databases, runtime, plan)

    def ask(self, *goals: Atom) -> List[Dict[str, Any]]:
        return self.view.ask(self._snapshot, goals)

    def instances_of(self, class_name: str) -> List[Any]:
        """OIDs (or skolem tokens) populating an integrated class."""
        answers = self.ask(Atom.of(inst_predicate(class_name), "?o"))
        return [answer["o"] for answer in answers]

    def attribute_values(self, class_name: str, attribute: str) -> Set[Any]:
        answers = self.ask(Atom.of(att_predicate(class_name, attribute), "?o", "?v"))
        return {answer["v"] for answer in answers}

    @property
    def query_engine(self) -> QueryEngine:
        return self.view.query_engine(self._snapshot)


def evaluate_value_set(
    integrated: IntegratedSchema,
    class_name: str,
    attribute: str,
    databases: Mapping[str, ComponentStore],
    same_specs: Sequence[SameObjectSpec] = (),
) -> Set[Any]:
    """Compute ``value_set(IS_attr)`` of one integrated attribute.

    Executes the attribute's :class:`ValueSetSpec` (Principle 1/3
    semantics) against live component data — Example 6's union, the
    intersection splits, Example 8's AIF.
    """
    integrated_class = integrated.cls(class_name)
    try:
        spec = integrated_class.attributes[attribute].spec
    except KeyError:
        from ..errors import IntegrationError

        raise IntegrationError(
            f"integrated class {class_name!r} has no attribute {attribute!r}"
        ) from None
    context = FederationContext(databases, same_specs)
    return spec.evaluate(context, integrated.aifs)


class AgentSource(SchemaSource):
    """Appendix B source: one schema served live by its FSM-agent.

    ``fetch`` answers only mangled concept predicates (``inst$N`` /
    ``att$N$a``) whose integrated class has an origin in this schema,
    pulling exactly one class extension per call — never a rule, never
    a join: locals stay autonomous.
    """

    def __init__(
        self,
        schema_name: str,
        agent: FSMAgent,
        integrated: IntegratedSchema,
        mappings: Optional[MappingRegistry] = None,
        runtime: Optional["FederationRuntime"] = None,
    ) -> None:
        super().__init__(schema_name)
        self._agent = agent
        self._integrated = integrated
        self._mappings = mappings or MappingRegistry()
        self._runtime = runtime

    def _extent(self, schema_name: str, local_class: str):
        """One class extension — through the runtime when attached."""
        if self._runtime is not None:
            return self._runtime.extent(schema_name, local_class)
        return self._agent.fetch_extent(schema_name, local_class)

    def _nested_descriptors(self, local_class: str, attr: str, base: str) -> List[str]:
        """Flattened descriptors under one local attribute (Def 4.1 paths)."""
        from ..model.attributes import ClassType

        schema = self._agent.export_schema(self.name)
        descriptors = [base]

        def walk(class_name: str, prefix: str, depth: int) -> None:
            if depth > 4:  # nested records are shallow in practice
                return
            effective = schema.effective_class(class_name)
            for nested in effective.attributes:
                dotted = f"{prefix}.{nested.name}"
                descriptors.append(dotted)
                if isinstance(nested.value_type, ClassType):
                    walk(nested.value_type.class_name, dotted, depth + 1)

        effective = schema.effective_class(local_class)
        attribute = effective.get_attribute(attr)
        if attribute is not None and isinstance(attribute.value_type, ClassType):
            walk(attribute.value_type.class_name, base, 0)
        return descriptors

    def concepts(self) -> Tuple[str, ...]:
        names: List[str] = []
        for integrated_class in self._integrated:
            if any(s == self.name for s, _ in integrated_class.origins):
                names.append(inst_predicate(integrated_class.name))
                for attribute in integrated_class.attributes.values():
                    for o_schema, o_class, o_attr in attribute.origins:
                        if o_schema != self.name:
                            continue
                        for descriptor in self._nested_descriptors(
                            o_class, o_attr, attribute.name
                        ):
                            names.append(
                                att_predicate(integrated_class.name, descriptor)
                            )
                        break
                for aggregation in integrated_class.aggregations.values():
                    if any(s == self.name for s, _, _ in aggregation.origins):
                        names.append(
                            att_predicate(integrated_class.name, aggregation.name)
                        )
        return tuple(names)

    def fetch(self, predicate: str) -> Set[FactTuple]:
        self.fetch_count += 1
        parsed = parse_predicate(predicate)
        if parsed is None:
            return set()
        class_name, descriptor = parsed
        if class_name not in self._integrated.classes:
            return set()
        integrated_class = self._integrated.cls(class_name)
        result: Set[FactTuple] = set()
        for schema_name, local_class in integrated_class.origins:
            if schema_name != self.name:
                continue
            if descriptor is None:
                for instance in self._extent(schema_name, local_class):
                    result.add((instance.oid,))
                continue
            # Nested (dotted) descriptors address inside a complex
            # attribute: the top-level member owns the origin mapping.
            top_level, _, _ = descriptor.partition(".")
            member = integrated_class.attributes.get(
                top_level
            ) or integrated_class.aggregations.get(top_level)
            if member is None:
                continue
            for o_schema, o_class, o_attr in member.origins:
                if o_schema != schema_name:
                    continue
                mapping = self._mappings.resolve(descriptor, schema_name, o_attr)
                for instance in self._extent(schema_name, local_class):
                    value = instance.get(o_attr)
                    if value is None:
                        continue
                    for flattened, element in iter_value_elements(top_level, value):
                        if flattened != descriptor:
                            continue
                        translated = mapping.translate(element)
                        if translated is not None:
                            result.add((instance.oid, translated))
        return result


def appendix_b_program(
    integrated: IntegratedSchema,
    agents: Mapping[str, FSMAgent],
    mappings: Optional[MappingRegistry] = None,
    same_specs: Sequence[SameObjectSpec] = (),
    databases: Optional[Mapping[str, ComponentStore]] = None,
    runtime: Optional["FederationRuntime"] = None,
) -> LabelledProgram:
    """Build the Appendix B labelled program for an integrated schema.

    *agents* maps schema name → hosting agent.  ``same_object`` facts
    (needed by Principle 3 rules) are served by an extra synthetic
    source when *same_specs* and *databases* are provided.  With a
    *runtime*, every source's extension fetches run through the extent
    cache and the executor's failure model.
    """
    sources: List[SchemaSource] = [
        AgentSource(schema_name, agent, integrated, mappings, runtime)
        for schema_name, agent in agents.items()
    ]
    if same_specs and databases:
        store = same_object_facts(same_specs, databases)
        sources.append(SchemaSource("__identity__", store))
    rules: List[DatalogRule] = compile_rules(
        integrated.evaluable_rules() + inheritance_rules(integrated)
    )
    return LabelledProgram(rules, sources)
