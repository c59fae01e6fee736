import copy
import gc
import itertools
import pickle
import random
import sys
import threading
import uuid
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontosoc import rdf
from ontosoc.canonical import graph_equal
from ontosoc.rdf import (
    XSD,
    Blank,
    FrozenGraphError,
    Graph,
    Iri,
    Literal,
    PrefixMap,
    TermError,
    Triple,
    UndeclaredPrefixError,
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


THREADS = 8


def _fresh(n: int) -> list[str]:
    """``n`` strings no other test has made a term of."""
    tag = uuid.uuid4().hex
    return [f"{tag}-{i}" for i in range(n)]


class TestInterning:
    def test_threads_building_the_same_terms_get_the_same_objects(self):
        names = _fresh(300)
        barrier = threading.Barrier(THREADS)
        results: list = [None] * THREADS

        def build(slot: int) -> None:
            barrier.wait()
            results[slot] = [
                (Iri(EX + name), Literal(name, language="en"), Literal(name), Blank(name))
                for name in names
            ]

        workers = [threading.Thread(target=build, args=(i,)) for i in range(THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible, so races happen
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        finally:
            sys.setswitchinterval(interval)
        first = results[0]
        for other in results[1:]:
            assert all(a is b for row, other_row in zip(first, other) for a, b in zip(row, other_row))
        assert len({id(row[0]) for row in first}) == len(names)

    def test_equal_values_are_one_object(self):
        assert Iri(EX + "a") is A
        assert Literal("x") is Literal("x", datatype=XSD + "string")
        assert Literal("1", datatype=XSD + "integer") is not Literal("1")
        assert Blank("x") is Blank("x")
        assert Iri("x") is not Blank("x")

    @pytest.mark.parametrize("kind,table", [(Iri, "_IRIS"), (Blank, "_BLANKS"), (Literal, "_LITERALS")])
    def test_an_unreferenced_term_leaves_its_table(self, kind, table):
        names = _fresh(1000)
        before = len(getattr(rdf, table))
        term = kind(names[0])
        probe = weakref.ref(term)
        del term
        for name in names[1:]:
            kind(name)
        gc.collect()
        assert probe() is None
        assert len(getattr(rdf, table)) <= before

    @pytest.mark.parametrize(
        "term",
        [Iri(EX + "a"), Blank("b1"), Literal("v"), Literal("v", language="fr"), Literal("7", datatype=XSD + "integer")],
        ids=repr,
    )
    def test_copy_deepcopy_and_pickle_return_the_canonical_term(self, term):
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(term, protocol)) is term
        t = Triple(A, P, term)
        assert copy.deepcopy(t) == t and pickle.loads(pickle.dumps(t)) == t
        assert pickle.loads(pickle.dumps(t)).object is term

    def test_fields_cannot_be_assigned_or_deleted(self):
        lit = Literal("v")
        for term, field in ((A, "value"), (Blank("b"), "label"), (lit, "lexical"), (lit, "datatype")):
            with pytest.raises(AttributeError):
                setattr(term, field, "other")
            with pytest.raises(AttributeError):
                delattr(term, field)
            with pytest.raises(AttributeError):
                term.extra = 1
        assert A.value == EX + "a" and lit.lexical == "v"

    def test_triple_is_a_tuple_of_its_terms(self):
        t = Triple(A, P, B)
        assert isinstance(t, tuple) and tuple(t) == (A, P, B)
        assert (t.subject, t.predicate, t.object) == (A, P, B)
        s, p, o = t
        assert s is A and p is P and o is B
        with pytest.raises(AttributeError):
            t.subject = B


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

    def test_an_iterable_that_raises_part_way_leaves_the_count_true(self):
        def two_then_fail():
            yield A, P, A
            yield A, P, B
            raise ValueError("the source failed")

        g = Graph()
        with pytest.raises(ValueError):
            g.bulk_insert(two_then_fail())
        assert len(g) == len(list(g)) == 2
        assert g.bulk_insert([(A, P, A), (B, P, B)]) == 1 and len(g) == 3

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


# a small pool, so that random operations hit the same triples often
_M_SUBJECTS = [Iri(f"http://m/{c}") for c in "abcd"] + [Blank("m1"), Blank("m2")]
_M_PREDICATES = [Iri(f"http://m/p{i}") for i in range(3)]
_M_OBJECTS = _M_SUBJECTS + [Literal("v"), Literal("v", language="en")]
# what each position of a pattern may be bound to: the terms that can
# stand there, and one that no triple can fill there
_M_BINDINGS = (_M_SUBJECTS + [Literal("v")], _M_PREDICATES + [Blank("m1")], _M_OBJECTS)
_model_triples = st.tuples(
    st.sampled_from(_M_SUBJECTS), st.sampled_from(_M_PREDICATES), st.sampled_from(_M_OBJECTS)
)
_graph_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _model_triples),
        st.tuples(st.just("union"), st.lists(_model_triples, max_size=6)),
        st.tuples(st.just("bulk"), st.lists(_model_triples, max_size=6)),
    ),
    max_size=40,
)


def _n3_order(spo: tuple) -> tuple:
    return tuple(x.n3() for x in spo)


def _assert_graph_is(g: Graph, model: set) -> None:
    """``g`` against a set of (s, p, o) tuples: size, membership,
    iteration, the predicates and their POS slices, and every
    bound/unbound shape of ``match``."""
    assert len(g) == len(model)
    listed = [tuple(t) for t in g]
    assert len(listed) == len(model) and set(listed) == model
    for spo in itertools.product(_M_SUBJECTS, _M_PREDICATES, _M_OBJECTS):
        assert (Triple(*spo) in g) == (spo in model)
    predicates = g.predicates()
    assert len(predicates) == len(set(predicates)) and set(predicates) == {p for _, p, _ in model}
    for p in _M_PREDICATES:
        expected: dict = {}
        for s, q, o in model:
            if q is p:
                expected.setdefault(o, set()).add(s)
        view = g.subjects_by_object(p)
        assert len(view) == len(expected) and len(list(view)) == len(expected)
        assert {o: set(subs) for o, subs in view.items()} == expected
        assert all((o in view) == (o in expected) for o in _M_OBJECTS)
        with pytest.raises(TypeError):  # read-only, whether one level holds the predicate or both do
            view[_M_OBJECTS[0]] = set()
    for bound in itertools.product((False, True), repeat=3):
        slots = [terms if b else [None] for b, terms in zip(bound, _M_BINDINGS)]
        for pattern in itertools.product(*slots):
            expected = sorted(
                (spo for spo in model if all(x is None or x is y for x, y in zip(pattern, spo))),
                key=_n3_order,
            )
            assert [tuple(t) for t in g.match(*pattern)] == expected


@pytest.mark.parametrize("fold", [1, 4, rdf.FOLD_TRIPLES])
@settings(max_examples=60, deadline=None)
@given(ops=_graph_ops)
def test_graph_agrees_with_a_set_of_tuples(fold, ops):
    with mock.patch.object(rdf, "FOLD_TRIPLES", fold):  # a small size folds mid-sequence
        _check_graph_ops(ops)


def _check_graph_ops(ops: list) -> None:
    g, model = Graph(), set()
    sources = []  # (graph, its triples) before each union
    for op, arg in ops:
        if op == "union":
            out, added = g.union([Triple(*spo) for spo in arg])
            assert [tuple(t) for t in added] == [spo for spo in dict.fromkeys(arg) if spo not in model]
            sources.append((g, set(model)))
            g, model = out, model | set(arg)
        elif sources:  # a union has read or returned ``g``: it refuses the op
            with pytest.raises(FrozenGraphError):
                g.add(Triple(*arg)) if op == "add" else g.bulk_insert(arg)
        elif op == "add":
            assert g.add(Triple(*arg)) == (arg not in model)
            model.add(arg)
        else:
            assert g.bulk_insert(arg) == len(set(arg) - model)
            model.update(arg)
        _assert_graph_is(g, model)
    for source, triples in sources:
        _assert_graph_is(source, triples)


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

    def test_an_overlay_shares_its_base_until_a_fold_returns_a_flat_graph(self, monkeypatch):
        monkeypatch.setattr(rdf, "FOLD_TRIPLES", 2)
        g = Graph([Triple(A, P, B), Triple(B, P, A)])
        out, _ = g.union([Triple(A, P, Literal("v"))])
        assert out._base._spo is g._spo and out._base._pos is g._pos
        assert set(out._spo) == {A}  # its own index holds only the new triple
        again, _ = out.union([Triple(B, P, Literal("v"))])
        assert again._base is out._base and len(again) - len(again._base) == 2
        folded, _ = again.union([Triple(A, B, A)])  # three own triples would pass 2
        assert folded._base is None and len(folded) == 5
        assert folded._spo[A] is not g._spo[A]  # copied on the new triples' paths
        untouched, _ = folded.union([Triple(Blank("x"), P, A)])
        assert untouched._base._spo is folded._spo
        refolded, _ = g.union([Triple(B, B, A), Triple(B, B, B), Triple(B, P, B)])
        assert refolded._base is None and refolded._spo[A] is g._spo[A]  # untouched: shared

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
        # both graphs refuse ``later``; a copy of the result takes it
        for t in later:
            for graph in (g, out):
                with pytest.raises(FrozenGraphError):
                    graph.add(t)
        copied = out.copy()
        assert copied.update(later) == len(set(later) - set(out))
        assert set(g) == before
        assert set(out) == before | set(new)
        assert set(copied) == before | set(new) | set(later)
        assert g.match() == Graph(before).match()
        for t in set(g):
            assert g.match(t.subject) == Graph(set(g)).match(t.subject)
            assert out.match(None, None, t.object) == Graph(set(out)).match(None, None, t.object)

    def test_a_union_freezes_both_graphs_and_a_copy_is_mutable(self):
        g = Graph([Triple(A, P, B)])
        out, _ = g.union([Triple(B, P, A)])
        for graph, triples in ((g, {Triple(A, P, B)}), (out, {Triple(A, P, B), Triple(B, P, A)})):
            for refused in (
                lambda: graph.add(Triple(A, P, A)),
                lambda: graph.bulk_insert([(A, P, A)]),
                lambda: graph.bulk_insert([]),
                lambda: graph.update([Triple(A, P, A)]),
            ):
                with pytest.raises(FrozenGraphError):
                    refused()
                assert set(graph) == triples and len(graph) == len(triples)
            copied = graph.copy()
            assert copied.add(Triple(A, P, A)) is True
            assert set(copied) == triples | {Triple(A, P, A)} and set(graph) == triples
            assert copied._base is None and copied._spo[A] is not graph._spo.get(A)
        assert issubclass(FrozenGraphError, TypeError)


class TestPrefixMap:
    def test_lookup_of_undeclared_fails(self):
        pm = PrefixMap([("ex", EX)])
        with pytest.raises(UndeclaredPrefixError) as raised:
            pm["other"]
        assert isinstance(raised.value, KeyError) and raised.value.label == "other"
        assert "other" not in pm and pm.get("other") is None

    def test_labels_unique(self):
        pm = PrefixMap([("ex", EX)])
        pm["ex"] = "http://other/"
        assert pm["ex"] == "http://other/"
        assert len(pm) == 1

    def test_declaration_order_is_kept(self):
        pm = PrefixMap([("b", "http://b/"), ("", "http://empty/")])
        pm["a"] = "http://a/"
        pm["b"] = "http://b2/"  # a label declared again keeps its place
        assert list(pm.items()) == [("b", "http://b2/"), ("", "http://empty/"), ("a", "http://a/")]
        assert pm == {"b": "http://b2/", "": "http://empty/", "a": "http://a/"}
