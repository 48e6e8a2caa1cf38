"""Data mappings F^A_{DB_i,B} and same-object resolution (§3)."""

import pytest

from repro.errors import MappingError
from repro.federation import (
    DefaultMapping,
    FunctionMapping,
    MappingRegistry,
    SameObjectSpec,
    TripleMapping,
    same_object_facts,
)
from repro.integration import SAME_OBJECT
from repro.logic import FactStore
from repro.model import ClassDef, ObjectDatabase, Schema


class TestDefaultMapping:
    def test_identity(self):
        assert DefaultMapping().translate("x") == "x"

    def test_translate_set_drops_none(self):
        assert DefaultMapping().translate_set(["a", None]) == {"a"}


class TestTripleMapping:
    def test_best_degree_wins(self):
        mapping = TripleMapping.of(("It", "Italy", 0.9), ("Ita", "Italy", 0.5))
        assert mapping.translate("Italy") == "It"

    def test_threshold_filters(self):
        mapping = TripleMapping.of(("It", "Italy", 0.4), threshold=0.5)
        assert mapping.translate("Italy") is None

    def test_degree_lookup(self):
        mapping = TripleMapping.of(("It", "Italy", 0.9))
        assert mapping.degree("It", "Italy") == 0.9
        assert mapping.degree("It", "France") == 0.0

    def test_degree_out_of_range_rejected(self):
        with pytest.raises(MappingError):
            TripleMapping.of(("a", "b", 1.5))


class TestFunctionMapping:
    def test_paper_example_inch_to_cm(self):
        mapping = FunctionMapping(lambda x: 2.54 * x, "y = 2.54 * x")
        assert mapping.translate(10) == 25.4

    def test_none_passes_through(self):
        assert FunctionMapping(lambda x: x + 1).translate(None) is None


class TestRegistry:
    def test_resolve_falls_back_to_default(self):
        registry = MappingRegistry()
        assert isinstance(registry.resolve("a", "S1", "b"), DefaultMapping)

    def test_registered_mapping_wins(self):
        registry = MappingRegistry()
        registry.register("height", "S1", "height_in", FunctionMapping(lambda x: 2.54 * x))
        assert registry.resolve("height", "S1", "height_in").translate(1) == 2.54
        assert len(registry) == 1

    def test_register_bumps_the_version(self):
        registry = MappingRegistry()
        assert registry.version == 0
        registry.register("a", "S1", "b", DefaultMapping())
        registry.register("a", "S1", "b", DefaultMapping())
        assert registry.version == 2


class TestSameObject:
    @pytest.fixture
    def databases(self):
        s1 = Schema("S1")
        s1.add_class(ClassDef("faculty").attr("fssn#"))
        s2 = Schema("S2")
        s2.add_class(ClassDef("student").attr("ssn#"))
        db1 = ObjectDatabase(s1, agent="a1")
        db2 = ObjectDatabase(s2, agent="a2")
        f = db1.insert("faculty", {"fssn#": "123"})
        s = db2.insert("student", {"ssn#": "123"})
        db2.insert("student", {"ssn#": "999"})
        return {"S1": db1, "S2": db2}, f.oid, s.oid

    def test_matching_keys_produce_symmetric_facts(self, databases):
        dbs, f_oid, s_oid = databases
        spec = SameObjectSpec("S1", "faculty", "fssn#", "S2", "student", "ssn#")
        store = same_object_facts([spec], dbs)
        assert (f_oid, s_oid) in store.facts(SAME_OBJECT)
        assert (s_oid, f_oid) in store.facts(SAME_OBJECT)
        assert len(store.facts(SAME_OBJECT)) == 2

    def test_facts_land_in_a_caller_supplied_empty_store(self, databases):
        # an empty FactStore is falsy (len 0): it must still be the target
        dbs, f_oid, s_oid = databases
        spec = SameObjectSpec("S1", "faculty", "fssn#", "S2", "student", "ssn#")
        store = FactStore()
        assert same_object_facts([spec], dbs, store) is store
        assert store.facts(SAME_OBJECT) == {(f_oid, s_oid), (s_oid, f_oid)}

    def test_translation_applied_to_right_key(self, databases):
        dbs, f_oid, s_oid = databases
        mapping = FunctionMapping(lambda v: v.lstrip("0"))
        dbs["S2"].insert("student", {"ssn#": "00123"})
        spec = SameObjectSpec(
            "S1", "faculty", "fssn#", "S2", "student", "ssn#", mapping=mapping
        )
        store = same_object_facts([spec], dbs)
        assert len(store.facts(SAME_OBJECT)) == 4  # two partners, both ways

    def test_unregistered_schema_rejected(self, databases):
        dbs, _, _ = databases
        spec = SameObjectSpec("S9", "x", "k", "S2", "student", "ssn#")
        with pytest.raises(MappingError):
            same_object_facts([spec], dbs)
