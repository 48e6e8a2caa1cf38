"""FactStore's lazy, compact argument index.

An index covers one ``(predicate, position)``, is built on its first
probe and is kept current by every mutation afterwards; a one-fact
bucket is stored as the bare tuple.  Whatever the history, a probe must
answer exactly what a scan of the predicate's facts would.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.logic import Atom, FactStore, QueryEngine, Rule


def scan(store, predicate, position, value):
    return {f for f in store.facts(predicate) if len(f) > position and f[position] == value}


def assert_consistent(store, predicates=("p", "q"), values=range(4)):
    for predicate in predicates:
        for position in (0, 1):
            for value in values:
                assert store.facts_at(predicate, position, value) == scan(
                    store, predicate, position, value
                ), (predicate, position, value)


def bucket(store, predicate, position, value):
    return store._indexes[predicate][position].get(value)


class TestLazyIndex:
    def test_no_index_until_first_probe(self):
        store = FactStore()
        store.add("p", (1, "a"))
        assert store._indexes == {}
        store.facts_at("p", 1, "a")
        assert set(store._indexes["p"]) == {1}

    def test_one_fact_bucket_is_the_bare_tuple_and_grows_and_shrinks(self):
        store = FactStore()
        store.add("p", (1, "a"))
        assert store.facts_at("p", 0, 1) == {(1, "a")}
        assert bucket(store, "p", 0, 1) == (1, "a")
        store.add("p", (1, "b"))  # grows to two: a set
        assert bucket(store, "p", 0, 1) == {(1, "a"), (1, "b")}
        assert store.facts_at("p", 0, 1) == {(1, "a"), (1, "b")}
        store.discard("p", (1, "a"))  # shrinks back to the bare tuple
        assert bucket(store, "p", 0, 1) == (1, "b")
        assert store.facts_at("p", 0, 1) == {(1, "b")}
        store.discard("p", (1, "b"))
        assert store.facts_at("p", 0, 1) == set()
        assert "p" not in store.predicates()

    def test_candidates_keep_the_tightest_bucket(self):
        store = FactStore()
        for values in ((1, "a"), (1, "b"), (2, "a")):
            store.add("p", values)
        assert store.candidates("p", [(0, 1), (1, "b")]) == {(1, "b")}
        assert store.candidates("p", [(0, 2), (1, "zz")]) == set()

    def test_discard_reports_presence(self):
        store = FactStore()
        store.add("p", (1,))
        assert store.discard("p", (1,)) is True
        assert store.discard("p", (1,)) is False
        assert store.discard("absent", (1,)) is False

    def test_replace_takes_the_set_and_drops_the_index(self):
        store = FactStore()
        store.add("p", (1, "a"))
        store.facts_at("p", 0, 1)
        store.replace("p", {(2, "b"), (2, "c")})
        assert "p" not in store._indexes
        assert store.facts_at("p", 0, 1) == set()
        assert store.facts_at("p", 0, 2) == {(2, "b"), (2, "c")}
        store.replace("p", set())
        assert "p" not in store.predicates()
        assert len(store) == 0

    def test_copy_is_independent_and_reindexes(self):
        store = FactStore()
        store.add("p", (1, "a"))
        store.facts_at("p", 0, 1)
        clone = store.copy()
        assert clone._indexes == {}
        store.add("p", (1, "b"))
        clone.add("p", (3, "c"))
        assert clone.facts_at("p", 0, 1) == {(1, "a")}
        assert clone.facts_at("p", 0, 3) == {(3, "c")}
        assert store.facts_at("p", 0, 3) == set()

    def test_merge_updates_built_indexes(self):
        left = FactStore()
        left.add("p", (1, "a"))
        left.facts_at("p", 0, 1)  # built: merge must keep it current
        right = FactStore()
        right.add("p", (1, "b"))
        right.add("q", (5,))
        left.merge(right)
        assert left.facts_at("p", 0, 1) == {(1, "a"), (1, "b")}
        assert left.facts_at("q", 0, 5) == {(5,)}

    def test_equality_compares_facts(self):
        left, right = FactStore(), FactStore()
        left.add("p", (1,))
        assert left != right
        right.add("p", (1,))
        assert left == right

    def test_rederive_materializes_in_place(self):
        store = FactStore()
        store.add("p", (1,))
        engine = QueryEngine([Rule.of(Atom.of("q", "?x"), [Atom.of("p", "?x")])], store)
        engine.rederive()
        assert engine.materialized is store
        assert store.facts("q") == {(1,)}


FACT = st.tuples(st.integers(0, 3), st.integers(0, 3))
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from("pq"), FACT),
        st.tuples(st.just("discard"), st.sampled_from("pq"), FACT),
        st.tuples(st.just("replace"), st.sampled_from("pq"), st.frozensets(FACT, max_size=4)),
        st.tuples(st.just("merge"), st.sampled_from("pq"), st.frozensets(FACT, max_size=4)),
        st.tuples(st.just("probe"), st.integers(0, 1), st.integers(0, 3)),
        st.tuples(st.just("copy"), st.just(None), st.just(None)),
    ),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(operations=OPERATIONS)
def test_index_matches_a_scan_through_any_mutation_history(operations):
    store = FactStore()
    for op, target, argument in operations:
        if op == "add":
            store.add(target, argument)
        elif op == "discard":
            store.discard(target, argument)
        elif op == "replace":
            store.replace(target, set(argument))
        elif op == "merge":
            other = FactStore()
            for values in argument:
                other.add(target, values)
            store.merge(other)
        elif op == "probe":
            store.facts_at("p", target, argument)
            store.facts_at("q", target, argument)
        else:
            store = store.copy()
        assert_consistent(store)
        for predicate, indexes in store._indexes.items():
            for index in indexes.values():
                for entry in index.values():
                    # compact: a set bucket always holds two or more facts
                    assert not isinstance(entry, set) or len(entry) >= 2
