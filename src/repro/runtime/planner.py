"""The federation query planner: prune, then coalesce.

The runtime executes one :class:`~repro.runtime.transport.ScanRequest`
per (agent, class, op, attribute); a multi-class query or Appendix-B
rule evaluation therefore pays many round-trips per agent.  This module
plans a :class:`~repro.federation.query.FederatedQuery` into a
:class:`QueryPlan` before any scan is dispatched:

1. **Prune** — the assertion-graph reachability argument §6's
   ``schema_integration`` applies at integration time is replayed at
   query time: starting from the queried class, a fixpoint over the
   integrated is-a links (descendant extents feed ancestors through the
   inheritance rules) and the evaluable derivation rules (a rule whose
   head can reach a relevant class makes its body classes relevant)
   yields the set of integrated classes that can possibly contribute a
   fact to the answer.  Everything else is never scanned and never
   lifted.  The closure is deliberately conservative: any indeterminate
   head or schematic (variable-class) body disables pruning for that
   path, so a planned query can only scan *less*, never answer less.
2. **Coalesce** — all granules bound for one endpoint ride a single
   batched round-trip (:func:`~repro.runtime.executor.coalesce_by_endpoint`
   builds the :class:`~repro.runtime.transport.BatchScanRequest`\\ s;
   the executor owns that step since it owns dispatch).

The planner sees only schema-level metadata (the integrated schema's
classes, links and rules) — never component data — so planning cost is
independent of extent sizes.
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Container,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
)

from ..logic.atoms import Atom
from ..logic.oterms import OTerm, parse_predicate

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..federation.query import FederatedQuery
    from ..integration.result import IntegratedSchema

#: body predicates whose facts exist independently of class scans —
#: ``same_object`` comes from the identity specs, ``is_a`` from the
#: integrated schema itself — so they never widen the scan set
_SCAN_FREE_PREDICATES = frozenset({"same_object", "is_a"})


@dataclasses.dataclass(frozen=True)
class QueryPlan:
    """What one query needs from the federation, decided before dispatch."""

    #: the integrated class the query ranges over
    class_name: str
    #: integrated classes that can contribute facts to the answer
    contributing: FrozenSet[str]
    #: non-virtual integrated classes the plan skips (never scanned)
    pruned: Tuple[str, ...]
    #: (schema, local class) direct-extent scans the plan still needs
    pairs: Tuple[Tuple[str, str], ...]

    def allows(self, class_name: str) -> bool:
        """May *class_name* contribute to this query's answer?"""
        return class_name in self.contributing

    def describe(self) -> str:
        kept = len(self.contributing)
        return (
            f"plan({self.class_name}: {kept} classes kept, "
            f"{len(self.pruned)} pruned, {len(self.pairs)} scans)"
        )


class _RuleFeeds:
    """One evaluable rule's head/body coordinates for the fixpoint."""

    __slots__ = (
        "head_classes",
        "head_predicates",
        "head_indeterminate",
        "body_classes",
        "body_predicates",
        "body_schematic",
    )

    def __init__(self) -> None:
        self.head_classes: Set[str] = set()
        self.head_predicates: Set[str] = set()
        #: a variable class name (or non-O-term head) can derive facts
        #: about any class — such a rule always fires in the closure
        self.head_indeterminate = False
        self.body_classes: Set[str] = set()
        self.body_predicates: Set[str] = set()
        #: a schematic body ranges over every class — pruning must stop
        self.body_schematic = False


def _classify_rule(rule) -> _RuleFeeds:
    feeds = _RuleFeeds()
    for head in rule.heads:
        if isinstance(head, OTerm):
            if isinstance(head.class_name, str):
                feeds.head_classes.add(head.class_name)
            else:
                feeds.head_indeterminate = True
        elif isinstance(head, Atom):
            parsed = parse_predicate(head.predicate)
            if parsed is not None:
                feeds.head_classes.add(parsed[0])
            else:
                feeds.head_predicates.add(head.predicate)
        else:  # TypingOTerm or anything newer: be conservative
            feeds.head_indeterminate = True
    for item in rule.body:
        element = item.element
        if isinstance(element, OTerm):
            if isinstance(element.class_name, str):
                feeds.body_classes.add(element.class_name)
            else:
                feeds.body_schematic = True
        elif isinstance(element, Atom):
            parsed = parse_predicate(element.predicate)
            if parsed is not None:
                feeds.body_classes.add(parsed[0])
            else:
                feeds.body_predicates.add(element.predicate)
        # Comparisons and typing O-terms consume no scanned facts
    return feeds


def contributing_classes(
    integrated: "IntegratedSchema", class_name: str
) -> FrozenSet[str]:
    """The integrated classes whose extents can feed facts about
    *class_name* — the §6 pruning argument run at query time.

    Unknown classes (or any indeterminate rule shape encountered during
    the closure) fall back to *every* class: the planner never guesses.
    """
    all_classes = frozenset(integrated.classes)
    if class_name not in all_classes:
        return all_classes

    children: Dict[str, Set[str]] = {}
    for child, parent in integrated.is_a_links():
        children.setdefault(parent, set()).add(child)
    feeds = [_classify_rule(rule) for rule in integrated.evaluable_rules()]
    # base facts for same_object / is_a exist without any class scan —
    # but only treat them as scan-free if no rule also *derives* them
    derived_predicates: Set[str] = set()
    for rule in feeds:
        derived_predicates.update(rule.head_predicates)
    scan_free = _SCAN_FREE_PREDICATES - derived_predicates

    relevant: Set[str] = {class_name}
    relevant_predicates: Set[str] = set()
    changed = True
    while changed:
        changed = False
        # descendants feed ancestors: inst$parent(x) <= inst$child(x),
        # and lifting pushes a class's facts up its whole ancestor chain
        frontier = list(relevant)
        while frontier:
            for child in children.get(frontier.pop(), ()):
                if child not in relevant:
                    relevant.add(child)
                    frontier.append(child)
                    changed = True
        for rule in feeds:
            fires = (
                rule.head_indeterminate
                or not rule.head_classes.isdisjoint(relevant)
                or not rule.head_predicates.isdisjoint(relevant_predicates)
            )
            if not fires:
                continue
            if rule.body_schematic:
                return all_classes
            for body_class in rule.body_classes:
                if body_class not in relevant:
                    relevant.add(body_class)
                    changed = True
            for predicate in rule.body_predicates:
                if predicate not in scan_free and predicate not in relevant_predicates:
                    relevant_predicates.add(predicate)
                    changed = True
    return frozenset(relevant & all_classes)


def plan_query(
    integrated: "IntegratedSchema",
    query: "FederatedQuery",
    schemas: Optional[Container[str]] = None,
) -> QueryPlan:
    """Plan *query* against *integrated*: the scan pairs left after pruning.

    *schemas* restricts the scan pairs to component schemas the caller
    can actually reach (the FSM's registered databases); None keeps all
    origins.
    """
    contributing = contributing_classes(integrated, query.class_name)
    pruned: List[str] = []
    pairs: List[Tuple[str, str]] = []
    for integrated_class in integrated:
        if integrated_class.virtual:
            continue
        if integrated_class.name not in contributing:
            pruned.append(integrated_class.name)
            continue
        for schema_name, local_class in integrated_class.origins:
            if schemas is None or schema_name in schemas:
                pairs.append((schema_name, local_class))
    return QueryPlan(
        class_name=query.class_name,
        contributing=contributing,
        pruned=tuple(pruned),
        pairs=tuple(dict.fromkeys(pairs)),
    )
