"""Federation architecture (§3, Appendix B of the paper).

FSM-agents hosting component databases (native object stores or
relational databases wrapped through the §3 transformation), data
mappings ``F^A_{DB_i,B}``, same-object identity resolution, fact lifting,
the FSM coordination layer with both Fig 2 multi-schema strategies, and
federated query evaluation via the bottom-up engine or the faithful
Appendix B top-down evaluator.
"""

from .agent import FSMAgent
from .decomposition import LocalSubQuery, QueryPlan, decompose_query, explain
from .evaluation import (
    AgentSource,
    FederationContext,
    FederationEngine,
    FederationView,
    evaluate_value_set,
    appendix_b_program,
    inheritance_rules,
    lift_facts,
)
from .fsm import FSM
from .mappings import (
    DataMapping,
    DefaultMapping,
    FunctionMapping,
    MappingRegistry,
    SameObjectSpec,
    TripleMapping,
    same_object_facts,
)
from .query import FederatedQuery
from .relational import Column, ForeignKey, Relation, RelationalDatabase
from .transform import materialize_view, transform_schema

__all__ = [
    "AgentSource",
    "Column",
    "DataMapping",
    "DefaultMapping",
    "FSM",
    "FSMAgent",
    "FederatedQuery",
    "FederationContext",
    "FederationEngine",
    "FederationView",
    "evaluate_value_set",
    "LocalSubQuery",
    "QueryPlan",
    "decompose_query",
    "explain",
    "ForeignKey",
    "FunctionMapping",
    "MappingRegistry",
    "Relation",
    "RelationalDatabase",
    "SameObjectSpec",
    "TripleMapping",
    "appendix_b_program",
    "inheritance_rules",
    "lift_facts",
    "materialize_view",
    "same_object_facts",
    "transform_schema",
]
