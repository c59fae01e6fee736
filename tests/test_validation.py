from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontosoc import rdf
from ontosoc.rdf import RDF_TYPE, RDFS_LABEL, Blank, Graph, Iri, Literal, Triple
from ontosoc.schema import (
    ONTOSOC_NS,
    ClassDef,
    SchemaDef,
    builtin_schema,
    schema_to_graph,
)
from ontosoc.turtle import parse_turtle
from ontosoc.validation import (
    DISJOINTNESS,
    DOMAIN,
    RANGE,
    ValidationReport,
    check_disjointness,
    check_domain_range,
    entail_types,
    infer_types,
    validate,
    validate_delta,
)

from .oracles import brute_force_violation_count, brute_force_violations, reference_added_violations

FIXTURES = Path(__file__).parent / "fixtures"


def _c(name):
    return ONTOSOC_NS + name


def _i(name):
    return Iri("http://example.org/soc/" + name)


def _typed(graph, name, cls):
    graph.add(Triple(_i(name), Iri(RDF_TYPE), Iri(_c(cls))))


class TestInferTypes:
    def test_subclass_entails_supertype(self, schema):
        g = Graph()
        _typed(g, "e", "CulturalActivity")
        out = infer_types(g, schema)
        assert Triple(_i("e"), Iri(RDF_TYPE), Iri(_c("Activity"))) in out

    def test_no_type_triples_unchanged(self, schema):
        g = Graph([Triple(_i("a"), Iri(_c("isMemberOf")), _i("b"))])
        assert set(infer_types(g, schema)) == set(g)

    def test_depth_three_chain_entails_two(self):
        base = builtin_schema()
        classes = base.classes + (
            ClassDef(_c("FestivalActivity"), "", _c("CulturalActivity")),
        )
        schema = SchemaDef(classes, base.properties, base.disjointness, base.alignments)
        g = Graph()
        _typed(g, "leaf", "FestivalActivity")
        out = infer_types(g, schema)
        assert len(out) - len(g) == 2  # CulturalActivity and Activity

    def test_idempotent_and_monotone(self, schema, corpus_graph):
        once = infer_types(corpus_graph, schema)
        twice = infer_types(once, schema)
        assert set(once) == set(twice)
        assert set(corpus_graph) <= set(once)


class TestDomainRange:
    def test_conformant_membership(self, schema):
        g = Graph()
        _typed(g, "Tangoche", "Individual")
        _typed(g, "Naakosenda", "Community")
        g.add(Triple(_i("Tangoche"), Iri(_c("isMemberOf")), _i("Naakosenda")))
        assert check_domain_range(g, schema, entail_types(g, schema)) == []

    def test_range_violation_reports_expected_and_found(self, schema):
        g = Graph()
        _typed(g, "Tangoche", "Individual")
        _typed(g, "Mokolo", "Locality")
        g.add(Triple(_i("Tangoche"), Iri(_c("isMemberOf")), _i("Mokolo")))
        [v] = check_domain_range(g, schema, entail_types(g, schema))
        assert v.kind == RANGE
        assert v.expected == _c("Community")
        assert v.found == frozenset({_c("Locality")})

    def test_empty_graph(self, schema):
        assert check_domain_range(Graph(), schema, {}) == []

    def test_untyped_subject_is_domain_violation(self, schema):
        g = Graph()
        _typed(g, "Naakosenda", "Community")
        g.add(Triple(_i("Ghost"), Iri(_c("isMemberOf")), _i("Naakosenda")))
        [v] = check_domain_range(g, schema, entail_types(g, schema))
        assert v.kind == DOMAIN
        assert v.found == frozenset()

    def test_subclass_satisfies_range(self, schema):
        g = Graph()
        _typed(g, "Organizer", "Role")
        _typed(g, "Event", "CulturalActivity")
        g.add(Triple(_i("Organizer"), Iri(_c("isRealisedBy")), _i("Event")))
        assert check_domain_range(g, schema, entail_types(g, schema)) == []

    def test_alias_validates_against_own_signature(self, schema):
        g = Graph()
        _typed(g, "Event", "CulturalActivity")
        _typed(g, "Organizer", "Role")
        g.add(Triple(_i("Event"), Iri(_c("isRealizeBy")), _i("Organizer")))
        assert check_domain_range(g, schema, entail_types(g, schema)) == []

    def test_query_direction_tool_usage_is_accepted(self, schema):
        g = Graph()
        _typed(g, "Organizer", "Role")
        _typed(g, "Drums", "Resource")
        g.add(Triple(_i("Organizer"), Iri(_c("isUsedBy")), _i("Drums")))
        assert check_domain_range(g, schema, entail_types(g, schema)) == []

    def test_unknown_predicates_skipped(self, schema):
        g = Graph([Triple(_i("a"), Iri("http://other/prop"), _i("b"))])
        assert check_domain_range(g, schema, entail_types(g, schema)) == []
        report = validate(g, schema)
        assert report.skipped_predicates == 1
        assert report.checked_triples == 0


class TestDisjointness:
    def test_disjoint_pair_violation(self, schema):
        g = Graph()
        _typed(g, "x", "Community")
        _typed(g, "x", "Activity")
        [v] = check_disjointness(schema, entail_types(g, schema))
        assert v.kind == DISJOINTNESS
        assert v.found == frozenset({_c("Community"), _c("Activity")})

    def test_subclass_is_not_disjoint_from_superclass(self, schema):
        g = Graph()
        _typed(g, "x", "CulturalActivity")
        _typed(g, "x", "Activity")
        assert check_disjointness(schema, entail_types(g, schema)) == []

    def test_three_disjoint_classes_three_violations(self, schema):
        g = Graph()
        for cls in ("Individual", "Community", "Role"):
            _typed(g, "y", cls)
        assert len(check_disjointness(schema, entail_types(g, schema))) == 3


class TestValidate:
    def test_conformant_corpus(self, schema, corpus_graph):
        report = validate(corpus_graph, schema)
        assert report.conforms
        assert report.violations == []

    def test_one_injected_range_error(self, schema, corpus_graph):
        g = corpus_graph.copy()
        g.add(Triple(_i("Tangoche"), Iri(_c("isMemberOf")), _i("Mokolo")))
        report = validate(g, schema)
        assert len(report.violations) == 1
        assert report.violations[0].kind == RANGE

    def test_empty_graph(self, schema):
        report = validate(Graph(), schema)
        assert report.conforms
        assert report.checked_triples == 0

    def test_schema_graph_validates_clean(self, schema):
        report = validate(schema_to_graph(schema), schema)
        assert report.conforms

    def test_machine_format_line_per_violation(self, schema, corpus_graph):
        g = corpus_graph.copy()
        g.add(Triple(_i("Tangoche"), Iri(_c("isMemberOf")), _i("Mokolo")))
        report = validate(g, schema)
        lines = report.render_machine().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("range\t")

    def test_signatures_looked_up_once_per_predicate_per_check(self, schema, corpus_graph, monkeypatch):
        calls = []
        lookup = SchemaDef.signatures_for
        monkeypatch.setattr(SchemaDef, "signatures_for", lambda self, iri: calls.append(iri) or lookup(self, iri))
        validate(corpus_graph, schema)
        assert calls and set(Counter(calls).values()) == {2}  # validate's count, then check_domain_range

    def test_counts_match_brute_force_on_corpus(self, schema, corpus_graph):
        g = corpus_graph.copy()
        g.add(Triple(_i("Tangoche"), Iri(_c("isMemberOf")), _i("Mokolo")))
        g.add(Triple(_i("Mixed"), Iri(RDF_TYPE), Iri(_c("Community"))))
        g.add(Triple(_i("Mixed"), Iri(RDF_TYPE), Iri(_c("Resource"))))
        entailed = infer_types(g, schema)
        report = validate(g, schema)
        assert len(report.violations) == brute_force_violation_count(entailed, schema)


FAULT_EXPECTATIONS = [
    ("fault_domain_untyped_subject.ttl", DOMAIN, 1),
    ("fault_domain_wrong_class.ttl", DOMAIN, 1),
    ("fault_range_wrong_class.ttl", RANGE, 1),
    ("fault_range_literal_object.ttl", RANGE, 1),
    ("fault_disjoint_pair.ttl", DISJOINTNESS, 1),
    ("fault_disjoint_three_classes.ttl", DISJOINTNESS, 3),
]


@pytest.mark.parametrize("name,kind,count", FAULT_EXPECTATIONS)
def test_fault_fixture_counts(schema, name, kind, count):
    doc = parse_turtle((FIXTURES / name).read_text(encoding="utf-8"))
    report = validate(doc.graph, schema)
    assert len(report.violations) == count
    assert all(v.kind == kind for v in report.violations)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_violations_monotone_under_property_triple_addition(schema, data):
    names = ["n1", "n2", "n3"]
    classes = ["Individual", "Community", "Role", "Resource"]
    g = Graph()
    for name in names:
        if data.draw(st.booleans()):
            _typed(g, name, data.draw(st.sampled_from(classes)))
    props = ["isMemberOf", "plays", "isUsedBy"]
    for _ in range(data.draw(st.integers(0, 4))):
        g.add(
            Triple(
                _i(data.draw(st.sampled_from(names))),
                Iri(_c(data.draw(st.sampled_from(props)))),
                _i(data.draw(st.sampled_from(names))),
            )
        )
    before = validate(g, schema)
    g2 = g.copy()
    g2.add(
        Triple(
            _i(data.draw(st.sampled_from(names))),
            Iri(_c(data.draw(st.sampled_from(props)))),
            _i(data.draw(st.sampled_from(names))),
        )
    )
    after = validate(g2, schema)
    assert len(after.violations) >= len(before.violations)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_one_pass_validate_matches_brute_force(schema, data):
    names = ["n1", "n2", "n3", "n4"]
    classes = ["Individual", "Community", "Role", "Resource", "Activity", "Locality", "CulturalActivity", "SportActivity"]
    props = ["isMemberOf", "plays", "isPlayedBy", "isUsedBy", "usedTool", "isRealisedBy", "isRealizeBy", "isOccurredIn"]
    g = Graph()
    for name in names:  # some nodes stay untyped
        for cls in data.draw(st.lists(st.sampled_from(classes), max_size=3)):
            _typed(g, name, cls)
    if data.draw(st.booleans()):
        g.add(Triple(_i("n1"), Iri(RDF_TYPE), Iri("http://xmlns.com/foaf/0.1/Person")))
    for _ in range(data.draw(st.integers(0, 6))):
        obj = data.draw(st.one_of(st.sampled_from(names).map(_i), st.just(Literal("x"))))
        g.add(Triple(_i(data.draw(st.sampled_from(names))), Iri(_c(data.draw(st.sampled_from(props)))), obj))
    report = validate(g, schema)
    assert len(report.violations) == brute_force_violation_count(g, schema)
    assert report.entailed_types == len(infer_types(g, schema)) - len(g)


_NAMES = ["n1", "n2", "n3", "n4"]
_CLASSES = ["Individual", "Community", "Role", "Resource", "Activity", "Locality", "CulturalActivity", "SportActivity"]
_PROPS = ["isMemberOf", "plays", "isPlayedBy", "isUsedBy", "usedTool", "isRealisedBy", "isRealizeBy", "isOccurredIn"]


def _type_triple(name, cls):
    return Triple(_i(name), Iri(RDF_TYPE), Iri(_c(cls)))


_FOLD = 3  # so that the graphs below are overlays over a base folded on the way


def _assert_delta_matches_full(schema, triples, delta):
    """``validate_delta`` finds what diffing two full validations finds,
    on a graph of ``triples`` built by one-triple unions under a small
    FOLD_TRIPLES, and returns the graph with ``delta``."""
    with mock.patch.object(rdf, "FOLD_TRIPLES", _FOLD):
        g = Graph()
        for t in triples:
            g, _ = g.union([t])
        before = entail_types(g, schema)
        types_before = dict(before)
        merged, added = g.union(delta)
        retyped, offenses = validate_delta(merged, schema, before, added)
    flat_before, flat_merged = Graph(triples), Graph([*triples, *delta])
    expected = reference_added_violations(
        validate(flat_before, schema).violations, validate(flat_merged, schema).violations
    )
    assert offenses == expected
    assert ValidationReport(offenses).render_machine() == ValidationReport(expected).render_machine()
    assert before == types_before == entail_types(flat_before, schema)
    assert {**before, **retyped} == entail_types(flat_merged, schema)
    assert all(before.get(node) != classes for node, classes in retyped.items())
    assert validate(merged, schema) == validate(flat_merged, schema)
    return merged


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_delta_validation_matches_full_validation(schema, data):
    g = Graph()
    for name in _NAMES:  # some nodes stay untyped
        for cls in data.draw(st.lists(st.sampled_from(_CLASSES), max_size=2)):
            g.add(_type_triple(name, cls))
    for _ in range(data.draw(st.integers(0, 6))):
        obj = data.draw(st.one_of(st.sampled_from(_NAMES).map(_i), st.just(Literal("x"))))
        g.add(Triple(_i(data.draw(st.sampled_from(_NAMES))), Iri(_c(data.draw(st.sampled_from(_PROPS)))), obj))
    type_triples = st.builds(_type_triple, st.sampled_from(_NAMES), st.sampled_from(_CLASSES))
    property_triples = st.builds(
        lambda s, p, o: Triple(_i(s), Iri(_c(p)), _i(o)),
        st.sampled_from(_NAMES), st.sampled_from(_PROPS), st.sampled_from(_NAMES),
    )
    repeats = st.sampled_from(sorted(g, key=Triple.sort_key)) if len(g) else type_triples
    delta = data.draw(st.lists(st.one_of(type_triples, property_triples, repeats), max_size=5))
    _assert_delta_matches_full(schema, list(g), delta)


@pytest.mark.parametrize(
    "graph,delta",
    [
        # a type that fixes a domain violation
        ([Triple(_i("a"), Iri(_c("isMemberOf")), _i("c")), _type_triple("c", "Community")],
         [_type_triple("a", "Individual")]),
        # a type that adds a class disjoint with one the node has
        ([_type_triple("a", "Individual"), Triple(_i("a"), Iri(_c("isMemberOf")), _i("c"))],
         [_type_triple("a", "Community")]),
        # a type on an object that was untyped
        ([_type_triple("a", "Individual"), Triple(_i("a"), Iri(_c("isMemberOf")), _i("c"))],
         [_type_triple("c", "Community")]),
        # repeats of triples already in the graph
        ([_type_triple("a", "Individual"), Triple(_i("a"), Iri(_c("isMemberOf")), _i("c"))],
         [_type_triple("a", "Individual"), Triple(_i("a"), Iri(_c("isMemberOf")), _i("c"))]),
        # a type that moves an old triple's best signature, so its domain
        # violation becomes a range violation, which is added
        ([Triple(_i("a"), Iri(_c("isUsedBy")), _i("c")), _type_triple("c", "Resource")],
         [_type_triple("a", "Resource")]),
    ],
    ids=["fixes-domain", "adds-disjoint", "types-object", "repeats", "moves-signature"],
)
def test_delta_validation_cases(schema, graph, delta):
    _assert_delta_matches_full(schema, graph, delta)


def test_delta_validation_retypes_a_node_of_the_base(schema):
    member = Triple(_i("a"), Iri(_c("isMemberOf")), _i("c"))
    padding = [_type_triple(name, "Locality") for name in ("x", "y", "z")]
    # the first four triples fold into the base; the fifth and the delta form the overlay
    merged = _assert_delta_matches_full(
        schema,
        [member, _type_triple("c", "Community"), *padding],
        [_type_triple("a", "Individual"), _type_triple("a", "Community")],
    )
    assert member in merged._base and _i("a") in merged._spo  # a's old triple below, its new types above


# nodes of every kind an instance graph holds, some typed with several classes
_ORACLE_NODES = [_i("n1"), _i("n2"), _i("n3"), Blank("b1"), Blank("b2")]
_ORACLE_OBJECTS = _ORACLE_NODES + [Literal("x"), Literal("7", datatype="http://www.w3.org/2001/XMLSchema#integer")]
_ORACLE_PREDICATES = [Iri(_c(p)) for p in _PROPS] + [Iri("http://example.org/soc/unknown"), Iri(RDFS_LABEL)]
_ORACLE_CLASSES = [Iri(_c(c)) for c in _CLASSES] + [Iri("http://xmlns.com/foaf/0.1/Person"), Literal("Role")]


@st.composite
def _instance_triples(draw):
    """Type triples (schema classes, a foreign class, a literal) and
    property triples (canonical, alias, unknown and vocabulary
    predicates; IRI, blank and literal objects), some nodes untyped."""
    out = [
        Triple(node, Iri(RDF_TYPE), cls)
        for node in _ORACLE_NODES
        for cls in draw(st.lists(st.sampled_from(_ORACLE_CLASSES), max_size=3))
    ]
    out += draw(
        st.lists(
            st.builds(
                Triple,
                st.sampled_from(_ORACLE_NODES),
                st.sampled_from(_ORACLE_PREDICATES),
                st.sampled_from(_ORACLE_OBJECTS),
            ),
            max_size=10,
        )
    )
    return out


@given(_instance_triples())
@settings(max_examples=300, deadline=None)
def test_violations_equal_the_per_triple_oracle(schema, triples):
    report = validate(Graph(triples), schema)
    assert [v.machine_line() for v in report.violations] == brute_force_violations(Graph(triples), schema)


@given(_instance_triples(), st.data())
@settings(max_examples=300, deadline=None)
def test_delta_validation_matches_validate_on_random_splits(schema, triples, data):
    later = data.draw(st.lists(st.booleans(), min_size=len(triples), max_size=len(triples)))
    base = [t for t, moved in zip(triples, later) if not moved]
    delta = [t for t, moved in zip(triples, later) if moved]
    _assert_delta_matches_full(schema, base, delta)
