import re

import pytest

from ontosoc import hat
from ontosoc.canonical import graph_equal
from ontosoc.rdf import (
    OWL_DISJOINT_WITH,
    OWL_EQUIVALENT_CLASS,
    RDF_TYPE,
    OWL_CLASS,
    Graph,
    Iri,
    PrefixMap,
    Triple,
)
from ontosoc.schema import (
    FOAF_NS,
    ONTOSOC_NS,
    AlignmentMapping,
    ClassDef,
    DisjointnessAxiom,
    PropertyDef,
    SchemaDef,
    SchemaError,
    UnknownClassError,
    builtin_schema,
    export_alignment,
    schema_from_graph,
    schema_prefixes,
    schema_to_graph,
)
from ontosoc.turtle import Document, parse_turtle, serialize_turtle

from .oracles import scan_class_iris, scan_lookup_property, scan_signatures_for, scan_superclass_closure


def _c(name):
    return ONTOSOC_NS + name


class TestBuiltinShape:
    def test_seven_upper_classes(self, schema):
        assert len(schema.upper_classes()) == 7
        assert {c.label for c in schema.upper_classes()} == {
            "Community", "Resource", "Regulations", "Activity",
            "Individual", "Locality", "Role",
        }

    def test_is_member_of_signature(self, schema):
        p = schema.lookup_property(_c("isMemberOf"))
        assert p is not None
        assert p.domain == _c("Individual")
        assert p.range == _c("Community")

    def test_individual_has_no_subclasses(self, schema):
        assert schema.subclasses(_c("Individual")) == []

    def test_ten_canonical_properties(self, schema):
        assert len(schema.properties) == 10

    def test_twenty_one_disjointness_axioms(self, schema):
        assert len(schema.disjointness) == 21
        assert len(set(schema.disjointness)) == 21

    def test_only_reflexive_signature_is_borderd_by(self, schema):
        reflexive = [p.iri for p in schema.properties if p.domain == p.range]
        assert reflexive == [_c("isBorderdBy")]

    def test_activity_subtree_depth(self, schema):
        depths = {}
        for c in schema.classes:
            depths[c.iri] = len(schema.superclass_closure(c.iri)) - 1
        assert max(depths.values()) <= 5
        assert depths[_c("CulturalActivity")] == 1

    def test_spelling_aliases_resolve_to_canonical(self, schema):
        assert schema.lookup_property(_c("isOccurredIn")).iri == _c("isOccuredIn")
        assert schema.lookup_property(_c("isBorderedBy")).iri == _c("isBorderdBy")
        assert schema.lookup_property(_c("isRealizeBy")).iri == _c("isRealisedBy")

    def test_unknown_property_is_none(self, schema):
        assert schema.lookup_property(_c("unknownProp")) is None


class TestClosure:
    def test_upper_class_closure_is_itself(self, schema):
        assert schema.superclass_closure(_c("Activity")) == {_c("Activity")}

    def test_one_edge(self, schema):
        assert schema.superclass_closure(_c("CulturalActivity")) == {
            _c("CulturalActivity"),
            _c("Activity"),
        }

    def test_depth_three_chain(self):
        base = builtin_schema()
        classes = base.classes + (
            ClassDef(_c("FestivalActivity"), "", _c("CulturalActivity")),
            ClassDef(_c("MaskFestival"), "", _c("FestivalActivity")),
        )
        schema = SchemaDef(classes, base.properties, base.disjointness, base.alignments)
        assert schema.superclass_closure(_c("MaskFestival")) == {
            _c("MaskFestival"),
            _c("FestivalActivity"),
            _c("CulturalActivity"),
            _c("Activity"),
        }

    def test_unknown_class_raises(self, schema):
        with pytest.raises(UnknownClassError):
            schema.superclass_closure(_c("Nothing"))


def _derived_schema():
    pairs, _ = hat.dedupe_pairs(hat.candidate_relations(hat.default_triads()))
    return hat.schema_from_relations(hat.full_relation_set(hat.apply_decisions(pairs, hat.default_decision_table())))


def _schema_with_shared_iris():
    """The builtin schema with a deeper class chain, where an alias IRI
    is another property's canonical IRI, two properties have an alias of
    one IRI, and two properties have one canonical IRI."""
    base = builtin_schema()
    classes = base.classes + (
        ClassDef(_c("FestivalActivity"), "", _c("CulturalActivity")),
        ClassDef(_c("MaskFestival"), "", _c("FestivalActivity")),
    )
    p = list(base.properties)
    p[0] = p[0]._replace(aliases=(*p[0].aliases, PropertyDef(p[1].iri, _c("Role"), _c("Resource"))))
    p[4] = p[4]._replace(aliases=(*p[4].aliases, PropertyDef(_c("usedTool"), _c("Individual"), _c("Role"))))
    p[7] = p[7]._replace(iri=p[2].iri)
    return SchemaDef(classes, tuple(p), base.disjointness, base.alignments)


@pytest.mark.parametrize(
    "make",
    [builtin_schema, lambda: schema_from_graph(schema_to_graph(builtin_schema())), _derived_schema, _schema_with_shared_iris],
    ids=["builtin", "round-tripped", "derived", "shared-iris"],
)
def test_lookups_equal_the_scans_of_the_declarations(make):
    schema = make()
    class_iris = {c.iri for c in schema.classes}
    property_iris = {q.iri for p in schema.properties for q in (p, *p.aliases)}
    assert schema.class_iris() == scan_class_iris(schema)
    for iri in sorted(class_iris | property_iris | {_c("Unknown")}):
        assert schema.signatures_for(iri) == scan_signatures_for(schema, iri)
        assert schema.lookup_property(iri) is scan_lookup_property(schema, iri)
        if iri in class_iris:
            assert schema.superclass_closure(iri) == scan_superclass_closure(schema, iri)
        else:
            with pytest.raises(UnknownClassError, match=f"^unknown class: {re.escape(iri)}$"):
                schema.superclass_closure(iri)


class TestInvariantChecks:
    def test_cycle_rejected(self):
        base = builtin_schema()
        classes = tuple(
            ClassDef(c.iri, c.label, _c("SportActivity")) if c.iri == _c("Activity") else c
            for c in base.classes
        )
        with pytest.raises(SchemaError):
            SchemaDef(classes, base.properties, base.disjointness, base.alignments)

    def test_individual_subclass_rejected(self):
        base = builtin_schema()
        classes = base.classes + (ClassDef(_c("Member"), "", _c("Individual")),)
        with pytest.raises(SchemaError):
            SchemaDef(classes, base.properties, base.disjointness, base.alignments)

    def test_wrong_root_count_rejected(self):
        base = builtin_schema()
        classes = base.classes + (ClassDef(_c("Extra"), ""),)
        with pytest.raises(SchemaError):
            SchemaDef(classes, base.properties, base.disjointness, base.alignments)

    def test_alignment_must_cross_namespaces(self):
        base = builtin_schema()
        bad = (AlignmentMapping(FOAF_NS + "Person", FOAF_NS + "Agent", "equivalent-class"),)
        with pytest.raises(SchemaError):
            SchemaDef(base.classes, base.properties, base.disjointness, bad)

    def test_alias_repeating_its_canonical_iri_rejected(self):
        base = builtin_schema()
        member = PropertyDef(_c("isMemberOf"), _c("Individual"), _c("Community"))
        properties = tuple(p._replace(aliases=(member,)) if p.iri == member.iri else p for p in base.properties)
        with pytest.raises(SchemaError, match=f"^alias IRI equals canonical IRI: {re.escape(member.iri)}$"):
            SchemaDef(base.classes, properties, base.disjointness, base.alignments)

    def test_unknown_alignment_kind_rejected(self):
        base = builtin_schema()
        bad = (AlignmentMapping(_c("Individual"), FOAF_NS + "Person", "same-as"),)
        with pytest.raises(SchemaError, match="^unknown alignment kind: same-as$"):
            SchemaDef(base.classes, base.properties, base.disjointness, bad)

    def test_disjointness_is_canonically_sorted(self):
        ax = DisjointnessAxiom(_c("Resource"), _c("Activity"))
        assert (ax.class_a, ax.class_b) == (_c("Activity"), _c("Resource"))
        with pytest.raises(SchemaError):
            DisjointnessAxiom(_c("Activity"), _c("Activity"))

    def test_disjointness_made_or_replaced_is_checked_and_sorted(self):
        ax = DisjointnessAxiom("b", "a")._replace(class_a="z")
        assert (ax.class_a, ax.class_b) == ("b", "z")
        assert DisjointnessAxiom._make(["b", "a"]) == DisjointnessAxiom("a", "b")
        with pytest.raises(SchemaError, match="^class cannot be disjoint with itself: b$"):
            DisjointnessAxiom._make(["b", "b"])

    def test_a_replaced_schema_is_checked(self):
        with pytest.raises(SchemaError, match="^expected exactly 10 canonical properties, found 0$"):
            builtin_schema()._replace(properties=())


class TestSchemaGraph:
    def test_seven_top_level_class_declarations(self, schema):
        g = schema_to_graph(schema)
        declared = {
            t.subject.value
            for t in g.match(predicate=Iri(RDF_TYPE), object=Iri(OWL_CLASS))
        }
        uppers = {c.iri for c in schema.upper_classes()}
        assert uppers <= declared

    def test_disjointness_triple_count(self, schema):
        g = schema_to_graph(schema)
        assert len(g.match(predicate=Iri(OWL_DISJOINT_WITH))) == 21

    def test_individual_aligned_to_foaf_person(self, schema):
        g = schema_to_graph(schema)
        assert (
            Triple(Iri(_c("Individual")), Iri(OWL_EQUIVALENT_CLASS), Iri(FOAF_NS + "Person"))
            in g
        )

    def test_round_trip_through_turtle(self, schema):
        g = schema_to_graph(schema)
        doc = Document(graph=g, prefixes=PrefixMap(schema_prefixes()))
        reloaded = schema_from_graph(parse_turtle(serialize_turtle(doc)).graph)
        assert set(reloaded.classes) == set(schema.classes)
        assert set(reloaded.properties) == set(schema.properties)
        assert set(reloaded.disjointness) == set(schema.disjointness)
        assert set(reloaded.alignments) == set(schema.alignments)


class TestExportAlignment:
    def test_count_matches_mapping_table(self, schema):
        g = export_alignment(schema)
        assert len(g) == len(schema.alignments) >= 6

    def test_empty_alignments_empty_graph(self):
        base = builtin_schema()
        schema = SchemaDef(base.classes, base.properties, base.disjointness, ())
        assert len(export_alignment(schema)) == 0

    def test_subjects_all_in_namespace(self, schema):
        for t in export_alignment(schema):
            assert t.subject.value.startswith(ONTOSOC_NS)
            assert not t.object.value.startswith(ONTOSOC_NS)
