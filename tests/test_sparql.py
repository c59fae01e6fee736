import json
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench.gen import make_corpus
from ontosoc.rdf import Blank, Graph, Iri, Literal, PrefixMap, Triple
from ontosoc.sparql import (
    Filter,
    GroupPattern,
    QueryAST,
    QueryError,
    SolutionTable,
    TriplePattern,
    Var,
    evaluate,
    parse_query,
    to_json_results,
)
from ontosoc.turtle import ParseError, parse_turtle

from . import resources
from .oracles import brute_force_bgp, json_dumps_results, nested_loop_rows, pattern_variables
from .strategies import blanks, iris, literals, objects, pool_graphs

EX = "http://example.org/"


def _p(n):
    return Iri(EX + n)


class TestParse:
    def test_shipped_query_shape(self):
        ast = parse_query(resources.community_activities_query())
        assert ast.projection == ["Communities", "Activity", "task", "person", "tools"]
        assert len(ast.pattern.required) == 1
        assert len(ast.pattern.optionals) == 3
        assert ast.order_by == [("Communities", True)]
        assert ast.warnings == []

    def test_select_star_empty_pattern(self):
        ast = parse_query("SELECT * WHERE { }")
        assert ast.projection is None
        assert ast.pattern == GroupPattern()

    def test_undeclared_prefix(self):
        with pytest.raises(QueryError) as exc:
            parse_query("SELECT ?x WHERE { ?x foo:bar ?y }")
        assert "undeclared prefix" in exc.value.message

    def test_unsupported_forms_named(self):
        for text, feature in [
            ("CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }", "CONSTRUCT"),
            ("ASK { ?s ?p ?o }", "ASK"),
            ("SELECT ?s WHERE { { ?s ?p ?o } UNION { ?s ?p ?o } }", "UNION"),
        ]:
            with pytest.raises(QueryError) as exc:
                parse_query(text)
            assert feature in str(exc.value)

    def test_syntax_error_has_position(self):
        with pytest.raises(QueryError) as exc:
            parse_query("SELECT ?x WHERE ?x")
        assert exc.value.line == 1
        assert exc.value.column > 0

    @pytest.mark.parametrize(
        "text,lexical",
        [
            (r'"a\\nb"', "a\\nb"),
            (r'"a\nb"', "a\nb"),
            (r'"\u0041\t\"\r"', 'A\t"\r'),
        ],
    )
    def test_literal_escapes_decode_like_turtle(self, text, lexical):
        ast = parse_query(f"SELECT ?s WHERE {{ ?s <http://p/q> {text} }}")
        assert ast.pattern.required[0].object == Literal(lexical)

    @pytest.mark.parametrize(
        "escape,message",
        [(r"\q", "unknown escape"), (r"\u00G1", "bad \\u escape"), (r"\uD800", "\\u escape of a surrogate, U+D800")],
    )
    def test_bad_escape_has_position(self, escape, message):
        with pytest.raises(QueryError) as exc:
            parse_query(f'SELECT ?s WHERE {{\n  ?s <http://p/q> "ab{escape}" }}')
        assert (exc.value.line, exc.value.column) == (2, 22)  # the backslash
        assert message in exc.value.message

    def test_unbound_projection_warns(self):
        ast = parse_query("SELECT ?x ?gone WHERE { ?x <http://p/q> ?y }")
        assert any("?gone" in w for w in ast.warnings)

    @pytest.mark.parametrize("modifier", ["LIMIT -1", "LIMIT 5 OFFSET -2"])
    def test_negative_limit_or_offset_is_an_error(self, modifier):
        with pytest.raises(QueryError) as exc:
            parse_query(f"SELECT * WHERE {{ ?s ?p ?o }} {modifier}")
        assert "non-negative integer" in exc.value.message

    def test_filter_limit_offset(self):
        ast = parse_query(
            "SELECT ?x WHERE { ?x <http://p/q> ?y . FILTER ( ?y != ?x ) } "
            "ORDER BY DESC(?x) LIMIT 5 OFFSET 2"
        )
        assert ast.pattern.filters == [Filter(Var("y"), "!=", Var("x"))]
        assert ast.order_by == [("x", False)]
        assert ast.limit == 5
        assert ast.offset == 2

    @pytest.mark.parametrize(
        "modifier,limit,offset",
        [
            ("LIMIT +" + "0" * 30 + "7 OFFSET 0", 7, 0),
            (f"LIMIT {sys.maxsize}", sys.maxsize, None),
            (f"LIMIT {sys.maxsize + 1}", sys.maxsize, None),
            ("OFFSET 0" + "9" * 5000, None, sys.maxsize),  # `int` refuses more than 4,300 digits
        ],
        ids=["leading-zeros", "maxsize", "past-maxsize", "5000-digits"],
    )
    def test_a_limit_or_offset_past_sys_maxsize_acts_as_sys_maxsize(self, modifier, limit, offset):
        ast = parse_query(f"SELECT * WHERE {{ ?s ?p ?o }} {modifier}")
        assert (ast.limit, ast.offset) == (limit, offset)


class TestEvaluate:
    def test_empty_pattern_yields_one_empty_row(self):
        ast = parse_query("SELECT * WHERE { }")
        table = evaluate(ast, Graph([Triple(_p("a"), _p("p"), _p("b"))]))
        assert table.rows == [{}]

    def test_simple_join(self):
        g = Graph(
            [
                Triple(_p("a"), _p("knows"), _p("b")),
                Triple(_p("b"), _p("knows"), _p("c")),
            ]
        )
        ast = parse_query(
            "SELECT ?x ?z WHERE { ?x <http://example.org/knows> ?y . ?y <http://example.org/knows> ?z }"
        )
        table = evaluate(ast, g)
        assert table.rows == [{"x": _p("a"), "z": _p("c")}]

    def test_optional_preserves_mandatory_rows(self):
        g = Graph([Triple(_p("a"), _p("p"), _p("b"))])
        ast = parse_query(
            "SELECT ?x ?y WHERE { ?x <http://example.org/p> ?o OPTIONAL { ?x <http://example.org/q> ?y } }"
        )
        table = evaluate(ast, g)
        assert table.rows == [{"x": _p("a")}]  # ?y stays unbound

    def test_optional_extends_when_compatible(self):
        g = Graph(
            [
                Triple(_p("a"), _p("p"), _p("b")),
                Triple(_p("a"), _p("q"), _p("c")),
            ]
        )
        ast = parse_query(
            "SELECT ?x ?y WHERE { ?x <http://example.org/p> ?o OPTIONAL { ?x <http://example.org/q> ?y } }"
        )
        assert evaluate(ast, g).rows == [{"x": _p("a"), "y": _p("c")}]

    def test_join_variable_bound_to_literal_in_subject_position(self):
        g = Graph([Triple(Iri("http://x/s"), Iri("http://x/p"), Literal("v"))])
        ast = parse_query("SELECT * WHERE { ?s <http://x/p> ?o . ?o <http://x/q> <http://x/o> }")
        assert evaluate(ast, g).rows == []

    def test_shipped_query_over_corpus(self, corpus_graph):
        ast = parse_query(resources.community_activities_query())
        table = evaluate(ast, corpus_graph)
        assert len(table.rows) == 3
        communities = [row["Communities"].value for row in table.rows]
        assert communities == sorted(communities)
        naakosenda = table.rows[2]
        assert naakosenda["person"] == Iri("http://example.org/soc/Tangoche")

    def test_order_by_term_kinds(self):
        g = Graph(
            [
                Triple(_p("s"), _p("p"), Literal("10")),
                Triple(_p("s"), _p("p"), _p("iri")),
            ]
        )
        ast = parse_query("SELECT ?o WHERE { ?s <http://example.org/p> ?o } ORDER BY ?o")
        values = [row["o"] for row in evaluate(ast, g).rows]
        assert values == [_p("iri"), Literal("10")]  # IRI sorts before literal

    def test_filter_equality(self):
        g = Graph(
            [
                Triple(_p("a"), _p("p"), _p("a")),
                Triple(_p("a"), _p("p"), _p("b")),
            ]
        )
        ast = parse_query(
            "SELECT ?x ?y WHERE { ?x <http://example.org/p> ?y . FILTER ( ?x = ?y ) }"
        )
        assert evaluate(ast, g).rows == [{"x": _p("a"), "y": _p("a")}]

    def test_limit_offset_apply_after_order(self):
        g = Graph([Triple(_p(c), _p("p"), _p("o")) for c in "abcd"])
        ast = parse_query(
            "SELECT ?s WHERE { ?s <http://example.org/p> ?o } ORDER BY ?s LIMIT 2 OFFSET 1"
        )
        assert [r["s"] for r in evaluate(ast, g).rows] == [_p("b"), _p("c")]


class TestJsonResults:
    def test_empty_table(self):
        payload = json.loads(to_json_results(SolutionTable(["x"], [])))
        assert payload == {"head": {"vars": ["x"]}, "results": {"bindings": []}}

    def test_iri_binding_tagged_uri(self):
        payload = json.loads(to_json_results(SolutionTable(["x"], [{"x": _p("a")}])))
        assert payload["results"]["bindings"] == [
            {"x": {"type": "uri", "value": EX + "a"}}
        ]

    def test_unbound_variables_omitted(self):
        payload = json.loads(to_json_results(SolutionTable(["x", "y"], [{"x": _p("a")}])))
        assert "y" not in payload["results"]["bindings"][0]

    def test_literal_annotations(self):
        table = SolutionTable(
            ["a", "b"],
            [{"a": Literal("x", language="fr"), "b": Literal("5", datatype="http://www.w3.org/2001/XMLSchema#integer")}],
        )
        [binding] = json.loads(to_json_results(table))["results"]["bindings"]
        assert binding["a"] == {"type": "literal", "value": "x", "xml:lang": "fr"}
        assert binding["b"]["datatype"].endswith("integer")

    def test_shipped_query_results(self, corpus_graph):
        ast = parse_query(resources.community_activities_query())
        payload = json.loads(to_json_results(evaluate(ast, corpus_graph)))
        assert len(payload["results"]["bindings"]) == 3
        assert set(payload["results"]["bindings"][0]) == {
            "Communities", "Activity", "task", "person", "tools",
        }



_JSON_VARS = st.sampled_from(["x", "y", "z\u00e9", "w_1"])
_JSON_TERMS = st.one_of(
    iris,
    blanks,
    literals,
    st.builds(lambda s: Iri("http://t/\u00e9" + s), st.text(alphabet="ab\u00fc\u4e2d\U0001f600\"\\", max_size=5)),
    st.builds(Blank, st.text(alphabet="ab\u00fc\u4e2d", min_size=1, max_size=4)),
    st.builds(lambda s: Literal(s, datatype="http://t/d\u00e9"), st.text(max_size=6)),
)


@st.composite
def _json_tables(draw):
    header = draw(st.lists(_JSON_VARS, max_size=4))  # may repeat a variable, or be empty
    row = st.dictionaries(st.sampled_from(header), _JSON_TERMS) if header else st.just({})
    return SolutionTable(header, draw(st.lists(row, max_size=5)))


@given(_json_tables())
@settings(max_examples=300, deadline=None)
def test_json_results_equal_the_standard_encoder(table):
    assert to_json_results(table) == json_dumps_results(table)


def _print_slot(slot) -> str:
    if isinstance(slot, Var):
        return f"?{slot.name}"
    return slot.n3()


def _print_group(group: GroupPattern, indent: str) -> str:
    inner = indent + "  "
    lines = ["{"]
    for tp in group.required:
        lines.append(f"{inner}{_print_slot(tp.subject)} {_print_slot(tp.predicate)} {_print_slot(tp.object)} .")
    for opt in group.optionals:
        lines.append(f"{inner}OPTIONAL {_print_group(opt, inner)}")
    for flt in group.filters:
        lines.append(f"{inner}FILTER ( {_print_slot(flt.left)} {flt.op} {_print_slot(flt.right)} )")
    lines.append(indent + "}")
    return "\n".join(lines)


def print_query(ast: QueryAST) -> str:
    """Render an AST back to query text; parse_query inverts this."""
    lines = [f"PREFIX {label}: <{ns}>" for label, ns in ast.prefixes.items()]
    projection = "*" if ast.projection is None else " ".join(f"?{v}" for v in ast.projection)
    lines.append(f"SELECT {projection}")
    lines.append("WHERE " + _print_group(ast.pattern, ""))
    if ast.order_by:
        parts = [f"?{v}" if asc else f"DESC(?{v})" for v, asc in ast.order_by]
        lines.append("ORDER BY " + " ".join(parts))
    if ast.limit is not None:
        lines.append(f"LIMIT {ast.limit}")
    if ast.offset is not None:
        lines.append(f"OFFSET {ast.offset}")
    return "\n".join(lines) + "\n"


class TestPrinter:
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT * WHERE { }",
            "SELECT ?x WHERE { ?x <http://p/q> ?y . FILTER ( ?x != ?y ) } ORDER BY DESC(?x) LIMIT 3",
            None,  # replaced with the shipped query below
        ],
    )
    def test_round_trip(self, text):
        if text is None:
            text = resources.community_activities_query()
        ast = parse_query(text)
        assert parse_query(print_query(ast)) == ast


def _patterns_strategy():
    terms = [Iri(f"http://p/{c}") for c in "abcdefgh"] + [Iri(f"http://p/p{i}") for i in range(4)]
    variables = [Var(n) for n in ("v0", "v1", "v2", "v3")]
    slot = st.sampled_from(terms + variables)
    pattern = st.builds(
        TriplePattern,
        st.sampled_from([t for t in terms] + variables),
        st.sampled_from([Iri(f"http://p/p{i}") for i in range(4)] + variables),
        slot,
    )
    return st.lists(pattern, min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(pool_graphs(), _patterns_strategy())
def test_bgp_equals_brute_force(graph, patterns):
    ast_pattern = GroupPattern(required=patterns)
    from ontosoc.sparql import _eval_group

    rows = list(_eval_group(ast_pattern, graph, [{}]))
    got = {frozenset(r.items()) for r in rows}
    assert got == brute_force_bgp(graph, patterns)
    # bag vs set: joins over set-semantics graphs cannot duplicate full rows
    assert len(rows) == len(got)


@settings(max_examples=50, deadline=None)
@given(pool_graphs(max_size=60), _patterns_strategy(), _patterns_strategy())
def test_optional_law(graph, mandatory, optional):
    group = GroupPattern(required=mandatory, optionals=[GroupPattern(required=optional)])
    from ontosoc.sparql import _eval_group

    mandatory_rows = list(_eval_group(GroupPattern(required=mandatory), graph, [{}]))
    full_rows = list(_eval_group(group, graph, [{}]))
    assert len(full_rows) >= len(mandatory_rows)
    mand_vars = {v for p in mandatory for v in pattern_variables(p)}

    def project(rows):
        out = {}
        for r in rows:
            key = frozenset((k, v) for k, v in r.items() if k in mand_vars)
            out[key] = out.get(key, 0) + 1
        return set(out)

    assert project(full_rows) == project(mandatory_rows)


_NODES = [Iri(f"http://p/{c}") for c in "abcd"]
_PREDICATES = [Iri("http://p/p0"), Iri("http://p/p1")]
# graphs over 32 possible triples, dense enough that most joins find rows
_dense_graphs = st.lists(
    st.builds(Triple, st.sampled_from(_NODES), st.sampled_from(_PREDICATES), st.sampled_from(_NODES)),
    min_size=8,
    max_size=32,
).map(Graph)


def _open_patterns(max_size):
    """Patterns over the dense graphs' terms, with a variable in about
    half of their slots.  Predicate variables have names of their own,
    since no predicate is a node."""
    nodes = st.sampled_from([Var("v0"), Var("v1"), Var("v2"), *_NODES])
    predicates = st.sampled_from([Var("q0"), Var("q1"), *_PREDICATES])
    pattern = st.builds(TriplePattern, nodes, predicates, nodes)
    return st.lists(pattern, min_size=1, max_size=max_size)


@settings(max_examples=200, deadline=None)
@given(
    _dense_graphs,
    _open_patterns(max_size=3),
    st.none() | _open_patterns(max_size=2),
    st.none() | st.integers(0, 10),
    st.none() | st.integers(0, 10),
)
def test_streamed_rows_follow_nested_loop_order(graph, required, optional, limit, offset):
    optionals = [] if optional is None else [GroupPattern(required=optional)]
    ast = QueryAST(PrefixMap(), None, GroupPattern(required, optionals), limit=limit, offset=offset)
    table = evaluate(ast, graph)
    assert set(table.header) == {v for p in required + (optional or []) for v in pattern_variables(p)}
    start = offset or 0
    expected = nested_loop_rows(graph, required, optional)[start : None if limit is None else start + limit]
    assert table.rows == [{v: row[v] for v in table.header if v in row} for row in expected]


def test_limit_stops_a_cross_product_early(monkeypatch):
    graph = parse_turtle(make_corpus(1, 5, True).turtle()).graph
    calls = []
    match = Graph.match
    monkeypatch.setattr(Graph, "match", lambda self, *args: calls.append(args) or match(self, *args))
    ast = parse_query("SELECT * WHERE { ?a ?b ?c . ?d ?e ?f } LIMIT 1")
    tracemalloc.start()
    try:
        table = evaluate(ast, graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.rows) == 1 and len(calls) <= 2
    assert peak < 1_000_000


_LONG = sys.getrecursionlimit() + 100  # more steps than frames
_DEEP = sys.getrecursionlimit() * 6 // 10  # nested groups that leave the parser room


@pytest.mark.parametrize(
    "where",
    [
        "?a ?b ?c . " * _LONG,
        "OPTIONAL { ?a ?b ?c } " * _LONG,
        "FILTER ( ?a = ?a ) " * _LONG,
        "OPTIONAL { ?a ?b ?c " * _DEEP + "}" * _DEEP,
    ],
    ids=["patterns", "optionals", "filters", "nested-optionals"],
)
def test_a_long_or_deep_query_evaluates(where):
    graph = Graph([Triple(_p("s"), _p("p"), _p(f"o{i}")) for i in range(3)])
    table = evaluate(parse_query(f"SELECT * WHERE {{ ?a ?b ?c . {where} }} LIMIT 2"), graph)
    assert table.rows == [{"a": _p("s"), "b": _p("p"), "c": _p(f"o{i}")} for i in (0, 1)]


@settings(max_examples=50, deadline=None)
@given(pool_graphs(max_size=60))
def test_order_by_is_permutation_of_unordered(graph):
    base = "SELECT ?s ?o WHERE { ?s <http://p/p0> ?o }"
    unordered = evaluate(parse_query(base), graph)
    ordered = evaluate(parse_query(base + " ORDER BY ?o"), graph)
    key = lambda rows: sorted(sorted((k, v.n3()) for k, v in r.items()) for r in rows)
    assert key(unordered.rows) == key(ordered.rows)


_LEXICAL = st.text(alphabet=st.one_of(st.sampled_from('\\"\n\r\tnrtu'), st.characters()), max_size=12)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.builds(Literal, _LEXICAL),
        st.builds(lambda s: Literal(s, language="en"), _LEXICAL),
        st.builds(lambda s: Literal(s, datatype="http://p/dt"), _LEXICAL),
    )
)
def test_query_from_literal_n3_matches_that_literal(literal):
    s, p = Iri("http://p/s"), Iri("http://p/q")
    g = Graph([Triple(s, p, literal), Triple(s, p, Literal("other"))])
    table = evaluate(parse_query(f"SELECT ?s WHERE {{ ?s <http://p/q> {literal.n3()} }}"), g)
    assert table.rows == [{"s": s}]


# where a term stands at the object slot of a query and of a Turtle
# statement: at column 24 and at column 27
_QUERY_AT = "SELECT * WHERE { ?s ?p "
_TURTLE_AT = "<http://t/s> <http://t/p> "
_LABELS = st.from_regex(r"(?:[A-Za-z][A-Za-z0-9_\-]{0,5})?", fullmatch=True)
_LOCAL_NAMES = st.from_regex(r"(?:[A-Za-z0-9_][A-Za-z0-9_\-]{0,5})?", fullmatch=True)


def _query_object(term: str, head: str = ""):
    return parse_query(f"{head}{_QUERY_AT}{term} }}").pattern.required[0].object


def _turtle_object(term: str, head: str = ""):
    [triple] = parse_turtle(f"{head}{_TURTLE_AT}{term} .").graph
    return triple.object


@settings(max_examples=200, deadline=None)
@given(objects)
def test_a_term_reads_as_turtle_reads_it(term):
    assert _query_object(term.n3()) is _turtle_object(term.n3())


@settings(max_examples=100, deadline=None)
@given(_LABELS, _LOCAL_NAMES)
def test_a_prefixed_name_reads_as_turtle_reads_it(label, local):
    name = f"{label}:{local}"
    read = _query_object(name, f"PREFIX {label}: <http://t/ns#>\n")
    assert read is _turtle_object(name, f"@prefix {label}: <http://t/ns#> .\n")
    assert read is Iri("http://t/ns#" + local)


# each character the IRIREF rule excludes, but whitespace
_NOT_IN_IRIREF = '<"{}|^`\\'


@pytest.mark.parametrize(
    "term", ["<>", "<a b>", r'"a\q"', '"x"^^<>', "u:x", '"abc', *(f"<a{c}b>" for c in _NOT_IN_IRIREF), '"x"^^<a{b>']
)
def test_a_malformed_term_fails_as_in_turtle(term):
    with pytest.raises(QueryError) as query:
        _query_object(term)
    with pytest.raises(ParseError) as turtle:
        _turtle_object(term)
    assert query.value.line == turtle.value.line == 1
    assert query.value.message == turtle.value.message
    assert query.value.column - len(_QUERY_AT) == turtle.value.column - len(_TURTLE_AT)


def test_a_namespace_with_whitespace_is_a_query_error_where_declared():
    with pytest.raises(QueryError) as exc:
        parse_query("PREFIX e: <http://x/a b/>\nSELECT * WHERE { ?s ?p ?o }")
    assert (exc.value.line, exc.value.column) == (1, 11)
    assert exc.value.message == "IRI contains whitespace: 'http://x/a b/'"
