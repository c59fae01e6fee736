import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontosoc.rdf import (
    Blank,
    Graph,
    Iri,
    Literal,
    PrefixMap,
    TermError,
    Triple,
    UndeclaredPrefixError,
    graph_equal,
)

from .strategies import graphs, subjects, triples

EX = "http://example.org/"
A, P, B = Iri(EX + "a"), Iri(EX + "p"), Iri(EX + "b")
ONTOSOC = "http://maroua-univ/ns/ontosoc#"

# few blanks and predicates, so that random pairs of graphs are often isomorphic
_small_blanks = st.sampled_from([Blank(x) for x in "abcde"])
_small_triples = st.builds(Triple, _small_blanks, st.sampled_from([P, B]), st.one_of(_small_blanks, st.just(A)))


class TestTerms:
    def test_iri_rejects_empty_and_whitespace(self):
        with pytest.raises(TermError):
            Iri("")
        with pytest.raises(TermError):
            Iri("http://x/ y")

    def test_iri_rejects_exactly_the_str_isspace_characters(self):
        for ch in map(chr, range(sys.maxunicode + 1)):
            if ch.isspace():
                with pytest.raises(TermError):
                    Iri("http://x/" + ch)
        Iri("http://x/\u200b")  # zero width space: not whitespace to str.isspace

    def test_literal_normalizes_plain_to_string_datatype(self):
        assert Literal("x") == Literal("x", datatype="http://www.w3.org/2001/XMLSchema#string")

    def test_literal_rejects_datatype_and_language_together(self):
        with pytest.raises(TermError):
            Literal("x", datatype="http://x/dt", language="en")

    def test_language_literal_carries_no_datatype(self):
        lit = Literal("bonjour", language="fr")
        assert lit.datatype is None

    def test_triple_rejects_literal_subject(self):
        with pytest.raises(TermError):
            Triple(Literal("x"), P, B)

    def test_triple_rejects_non_iri_predicate(self):
        with pytest.raises(TermError):
            Triple(A, Literal("p"), B)
        with pytest.raises(TermError):
            Triple(A, Blank("p"), B)


class TestGraphBasics:
    def test_insert_into_empty(self):
        g = Graph()
        assert g.add(Triple(A, P, B)) is True
        assert len(g) == 1

    def test_insert_is_idempotent(self):
        g = Graph([Triple(A, P, B)])
        assert g.add(Triple(A, P, B)) is False
        assert len(g) == 1

    def test_insert_membership_triple(self):
        g = Graph()
        t = Triple(
            Iri(EX + "Tangoche"), Iri(ONTOSOC + "isMemberOf"), Iri(EX + "Naakosenda")
        )
        assert g.add(t) is True
        assert t in g

    def test_remove_present(self):
        g = Graph([Triple(A, P, B)])
        assert g.remove(Triple(A, P, B)) is True
        assert len(g) == 0

    def test_remove_absent(self):
        assert Graph().remove(Triple(A, P, B)) is False

    def test_insert_remove_insert_round_trip(self):
        g = Graph()
        t = Triple(A, P, B)
        g.add(t)
        g.remove(t)
        g.add(t)
        assert graph_equal(g, Graph([t]))

    def test_size_examples(self):
        g = Graph()
        assert len(g) == 0
        g.add(Triple(A, P, B))
        g.add(Triple(B, P, A))
        assert len(g) == 2
        g.add(Triple(A, P, B))
        assert len(g) == 2


class TestMatch:
    def test_subject_bound(self):
        g = Graph([Triple(A, P, B)])
        assert g.match(subject=A) == [Triple(A, P, B)]

    def test_empty_graph(self):
        assert Graph().match() == []

    def test_order_is_lexicographic(self):
        g = Graph([Triple(B, P, A), Triple(A, P, B), Triple(A, P, A)])
        assert g.match() == [Triple(A, P, A), Triple(A, P, B), Triple(B, P, A)]

    def test_membership_count_matches_linear_scan(self, corpus_graph):
        from .oracles import brute_force_match

        pred = Iri(ONTOSOC + "isMemberOf")
        got = g_set = set(corpus_graph.match(predicate=pred))
        assert got == brute_force_match(corpus_graph, p=pred)
        assert len(g_set) == 3  # one membership per use case

    @given(graphs(), st.one_of(st.none(), subjects), st.booleans(), st.booleans())
    def test_matches_equal_brute_force(self, g, s, bind_p, bind_o):
        from .oracles import brute_force_match

        some = next(iter(g), None)
        p = some.predicate if (bind_p and some) else None
        o = some.object if (bind_o and some) else None
        assert set(g.match(s, p, o)) == brute_force_match(g, s, p, o)

    @given(graphs(max_size=15))
    def test_all_index_routes_agree(self, g):
        for t in g:
            expect = [t]
            assert g.match(t.subject, t.predicate, t.object) == expect
            assert t in g.match(subject=t.subject)
            assert t in g.match(predicate=t.predicate)
            assert t in g.match(object=t.object)
            assert t in g.match(subject=t.subject, predicate=t.predicate)
            assert t in g.match(predicate=t.predicate, object=t.object)
            assert t in g.match(subject=t.subject, object=t.object)

    def test_fully_bound_pattern_no_triple_can_fill_matches_nothing(self):
        g = Graph([Triple(A, P, Literal("v"))])
        assert g.match(Literal("v"), P, B) == []
        assert g.match(A, Literal("p"), Literal("v")) == []
        assert g.match(A, Blank("p"), Literal("v")) == []

    @given(triples)
    def test_insert_then_match_exact(self, t):
        g = Graph()
        g.add(t)
        assert g.match(t.subject, t.predicate, t.object) == [t]


def test_random_interleaving_preserves_size():
    rng = random.Random(20240817)
    pool = [
        Triple(Iri(EX + s), Iri(EX + p), Iri(EX + o))
        for s in "abcd"
        for p in "pq"
        for o in "xyz"
    ]
    g = Graph()
    model: set[Triple] = set()
    for _ in range(1000):
        t = rng.choice(pool)
        if rng.random() < 0.5:
            assert g.add(t) == (t not in model)
            model.add(t)
        else:
            assert g.remove(t) == (t in model)
            model.discard(t)
        assert len(g) == len(model)
    assert set(g) == model


class TestGraphEqual:
    def test_reflexive(self):
        g = Graph([Triple(A, P, B)])
        assert graph_equal(g, g)

    def test_superset_differs(self):
        g = Graph([Triple(A, P, B)])
        h = g.copy()
        h.add(Triple(B, P, A))
        assert not graph_equal(g, h)

    def test_blank_relabeling_is_equal(self):
        g = Graph([Triple(Blank("x"), P, B), Triple(Blank("x"), P, A)])
        h = Graph([Triple(Blank("y"), P, B), Triple(Blank("y"), P, A)])
        assert graph_equal(g, h)

    def test_distinct_blank_structure_differs(self):
        g = Graph([Triple(Blank("x"), P, A), Triple(Blank("x"), P, B)])
        h = Graph([Triple(Blank("x"), P, A), Triple(Blank("y"), P, B)])
        assert not graph_equal(g, h)

    def test_densely_linked_blanks_compare_in_bounded_memory(self):
        # colours that embed their neighbours' colours grow 4x per round here
        n = 32
        ring = Graph(
            Triple(Blank(f"b{i}"), P, Blank(f"b{(i + k) % n}")) for i in range(n) for k in (1, 3)
        )
        assert graph_equal(ring, ring.copy())


    def test_relabeled_blank_four_cycle_is_equal(self):
        def cycle(order):
            return Graph(Triple(Blank(order[i]), P, Blank(order[(i + 1) % 4])) for i in range(4))

        assert graph_equal(cycle("abcd"), cycle("acbd"))

    def test_four_cycle_differs_from_two_two_cycles(self):
        cycle = Graph(Triple(Blank(x), P, Blank(y)) for x, y in ("ab", "bc", "cd", "da"))
        pairs = Graph(Triple(Blank(x), P, Blank(y)) for x, y in ("ab", "ba", "cd", "dc"))
        assert not graph_equal(cycle, pairs)

    def test_relabeled_regular_digraph_is_equal(self):
        # every node has two in- and two out-edges, so refinement splits no
        # colour, and the nodes are not all alike: only the search tells
        edges = [(0, 4), (0, 5), (1, 2), (1, 3), (2, 0), (2, 5), (3, 1), (3, 2), (4, 0), (4, 1), (5, 3), (5, 4)]
        perm = [4, 5, 1, 0, 2, 3]
        g = Graph(Triple(Blank(f"n{i}"), P, Blank(f"n{j}")) for i, j in edges)
        h = Graph(Triple(Blank(f"n{perm[i]}"), P, Blank(f"n{perm[j]}")) for i, j in edges)
        assert graph_equal(g, h)

    @pytest.mark.parametrize(
        "graph",
        [
            Graph(Triple(Blank(f"x{i}"), P, Literal("v")) for i in range(40)),
            Graph(Triple(Blank(f"x{i}"), P, Blank(f"y{i}")) for i in range(20)),
            Graph(Triple(Blank("hub"), P, Blank(f"leaf{i}")) for i in range(40)),
            Graph(Triple(Blank(f"k{i}"), P, Blank(f"k{j}")) for i in range(12) for j in range(12) if i != j),
            Graph(t for i in range(8) for t in (Triple(Blank("hub"), P, Blank(f"x{i}")), Triple(Blank(f"x{i}"), P, Blank(f"y{i}")))),
        ],
        ids=["twins", "pairs", "star", "complete", "spider"],
    )
    def test_symmetric_blanks_do_not_blow_up_the_search(self, graph):
        assert graph_equal(graph, permute_blanks(graph, random.Random(7)))

    @given(graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_equal_to_any_blank_permutation(self, g, rng):
        assert graph_equal(g, permute_blanks(g, rng))

    @given(st.lists(_small_triples, max_size=9), st.randoms(use_true_random=False), st.data())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_brute_force_isomorphism(self, first, rng, data):
        g = Graph(first)
        h = permute_blanks(g, rng)
        if len(h) and data.draw(st.booleans()):  # rewire one triple: often no longer isomorphic
            rest = sorted(h, key=Triple.sort_key)
            rest[data.draw(st.integers(0, len(rest) - 1))] = data.draw(_small_triples)
            h = Graph(rest)
        assert graph_equal(g, h) == brute_force_isomorphic(g, h)


def permute_blanks(graph: Graph, rng: random.Random) -> Graph:
    """``graph`` with its blank labels shuffled among its blanks."""
    labels = sorted({t.label for t in _blank_terms(graph)})
    shuffled = labels[:]
    rng.shuffle(shuffled)
    rename = {Blank(a): Blank(b) for a, b in zip(labels, shuffled)}
    return Graph(Triple(rename.get(t.subject, t.subject), t.predicate, rename.get(t.object, t.object)) for t in graph)


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """Try every bijection between the two graphs' blank nodes."""
    g_blanks, h_blanks = sorted(_blank_terms(g), key=str), sorted(_blank_terms(h), key=str)
    if len(g_blanks) != len(h_blanks) or len(g) != len(h):
        return False
    for image in itertools.permutations(h_blanks):
        m = dict(zip(g_blanks, image))
        if {Triple(m.get(t.subject, t.subject), t.predicate, m.get(t.object, t.object)) for t in g} == set(h):
            return True
    return False


def _blank_terms(graph: Graph) -> set[Blank]:
    return {x for t in graph for x in (t.subject, t.object) if isinstance(x, Blank)}


class TestUnion:
    def test_source_unchanged_and_new_triples_listed(self):
        g = Graph([Triple(A, P, B)])
        before = g.match()
        out, added = g.union([Triple(A, P, B), Triple(B, P, A), Triple(B, P, A)])
        assert added == [Triple(B, P, A)]
        assert g.match() == before and len(g) == 1
        assert set(out) == {Triple(A, P, B), Triple(B, P, A)}

    def test_untouched_inner_containers_are_shared(self):
        g = Graph([Triple(A, P, B), Triple(B, P, A)])
        out, _ = g.union([Triple(A, P, Literal("v"))])
        assert out._spo[B] is g._spo[B]
        assert out._spo[A] is not g._spo[A]

    @given(graphs(), st.lists(triples, max_size=10), st.lists(triples, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_matches_a_graph_built_from_scratch(self, g, new, later):
        before = set(g)
        out, added = g.union(new)
        assert added == list(dict.fromkeys(t for t in new if t not in before))
        expected = Graph(before | set(new))
        terms = [None] + sorted({x for t in expected for x in (t.subject, t.predicate, t.object)}, key=str)[:6]
        for s, p, o in itertools.product(terms, repeat=3):
            assert out.match(s, p, o) == expected.match(s, p, o)
        # mutating either graph afterwards leaves the other as it was
        for t in later:
            out.add(t)
            g.remove(t)
        assert set(g) == before - set(later)
        assert set(out) == before | set(new) | set(later)
        assert sorted(g.match(), key=Triple.sort_key) == Graph(before - set(later)).match()
        for t in set(g):
            assert g.match(t.subject) == Graph(set(g)).match(t.subject)
            assert out.match(None, None, t.object) == Graph(set(out)).match(None, None, t.object)


class TestPrefixMap:
    def test_lookup_of_undeclared_fails(self):
        with pytest.raises(UndeclaredPrefixError):
            PrefixMap().namespace("ex")

    def test_expand(self):
        pm = PrefixMap([("ex", EX)])
        assert pm.expand("ex:a") == A

    def test_labels_unique(self):
        pm = PrefixMap([("ex", EX)])
        pm.declare("ex", "http://other/")
        assert pm.namespace("ex") == "http://other/"
        assert len(pm) == 1
