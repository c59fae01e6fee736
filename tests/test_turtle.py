import re
import sys
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ontosoc.canonical import graph_equal
from bench.gen import deltas, make_corpus
from ontosoc.rdf import (
    RDF_NS,
    RDF_TYPE,
    XSD,
    XSD_INTEGER,
    XSD_STRING,
    Blank,
    Graph,
    Iri,
    Literal,
    PrefixMap,
    Triple,
)
from ontosoc.schema import builtin_schema, export_alignment, schema_prefixes, schema_to_graph
from ontosoc import turtle, turtle_tokens
from ontosoc.service import load_state
from ontosoc.turtle import Document, ParseError, parse_turtle, serialize_turtle

from . import resources
from .oracles import reference_serialize_turtle
from .strategies import graphs, pool_graphs

EX = "http://example.org/"
ONTOSOC = "http://maroua-univ/ns/ontosoc#"


class TestParse:
    def test_empty_input(self):
        doc = parse_turtle("")
        assert len(doc.graph) == 0

    def test_prefixed_names_expand(self):
        text = (
            "@prefix ontosoc: <http://maroua-univ/ns/ontosoc#> . "
            "@prefix ex: <http://example.org/> . "
            "ex:Tangoche ontosoc:isMemberOf ex:Naakosenda ."
        )
        doc = parse_turtle(text)
        assert set(doc.graph) == {
            Triple(
                Iri(EX + "Tangoche"),
                Iri(ONTOSOC + "isMemberOf"),
                Iri(EX + "Naakosenda"),
            )
        }

    def test_truncated_prefix_directive(self):
        with pytest.raises(ParseError) as exc:
            parse_turtle("@prefix x")
        assert exc.value.line == 1

    def test_undeclared_prefix_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_turtle("ex:a ex:p ex:b .")
        assert "undeclared prefix" in exc.value.message
        assert exc.value.line == 1
        assert exc.value.column == 1

    def test_unterminated_literal(self):
        with pytest.raises(ParseError) as exc:
            parse_turtle('@prefix ex: <http://example.org/> .\nex:a ex:p "oops .')
        assert exc.value.line == 2
        assert "unterminated" in exc.value.message

    def test_eof_inside_statement(self):
        with pytest.raises(ParseError):
            parse_turtle("@prefix ex: <http://example.org/> . ex:a ex:p")

    def test_literal_subject_rejected(self):
        with pytest.raises(ParseError):
            parse_turtle('"x" <http://example.org/p> <http://example.org/o> .')

    def test_a_keyword_and_lists(self):
        text = (
            "@prefix ex: <http://example.org/> .\n"
            "ex:s a ex:C ;\n"
            "    ex:p ex:o1, ex:o2 .\n"
        )
        g = parse_turtle(text).graph
        assert len(g) == 3
        assert Triple(Iri(EX + "s"), Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), Iri(EX + "C")) in g

    def test_typed_and_tagged_literals(self):
        text = (
            "@prefix ex: <http://example.org/> .\n"
            '@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n'
            'ex:s ex:p "plain", "tagged"@fr, "7"^^xsd:int, 42 .\n'
        )
        g = parse_turtle(text).graph
        objects = {t.object for t in g}
        assert Literal("plain") in objects
        assert Literal("tagged", language="fr") in objects
        assert Literal("7", datatype="http://www.w3.org/2001/XMLSchema#int") in objects
        assert Literal("42", datatype=XSD_INTEGER) in objects

    def test_blank_node_labels(self):
        text = "@prefix ex: <http://example.org/> .\n_:b1 ex:p _:b2 .\n"
        g = parse_turtle(text).graph
        assert Triple(Blank("b1"), Iri(EX + "p"), Blank("b2")) in g

    def test_comments_ignored(self):
        text = "# leading comment\n@prefix ex: <http://example.org/> . # trailing\nex:a ex:p ex:b .\n"
        assert len(parse_turtle(text).graph) == 1

    def test_base_resolution(self):
        text = "@base <http://example.org/dir/> .\n<item> <p> <other> .\n"
        g = parse_turtle(text).graph
        assert Triple(Iri("http://example.org/dir/item"), Iri("http://example.org/dir/p"), Iri("http://example.org/dir/other")) in g

    def test_error_position_is_inside_input(self):
        text = "@prefix ex: <http://example.org/> .\nex:a ex:p ex:b .\nex:c ex:d\n"
        with pytest.raises(ParseError) as exc:
            parse_turtle(text)
        assert exc.value.line <= text.count("\n") + 1


class TestSerialize:
    def test_empty_document(self):
        assert serialize_turtle(Document()) == ""
        doc = Document(prefixes=PrefixMap([("ex", EX)]))
        out = serialize_turtle(doc)
        assert out.strip() == f"@prefix ex: <{EX}> ."

    def test_single_triple_round_trip(self):
        doc = Document(graph=Graph([Triple(Iri(EX + "a"), Iri(EX + "p"), Literal("v"))]))
        again = parse_turtle(serialize_turtle(doc))
        assert graph_equal(doc.graph, again.graph)

    def test_output_is_grouped_and_sorted(self):
        g = Graph(
            [
                Triple(Iri(EX + "b"), Iri(EX + "q"), Iri(EX + "x")),
                Triple(Iri(EX + "a"), Iri(EX + "q"), Iri(EX + "y")),
                Triple(Iri(EX + "a"), Iri(EX + "p"), Iri(EX + "x")),
            ]
        )
        out = serialize_turtle(Document(graph=g, prefixes=PrefixMap([("ex", EX)])))
        assert out.index("ex:a") < out.index("ex:b")
        block_a = out[out.index("ex:a") : out.index("ex:b")]
        assert block_a.index("ex:p") < block_a.index("ex:q")

    def test_schema_graph_round_trips(self):
        g = schema_to_graph(builtin_schema())
        doc = Document(graph=g, prefixes=PrefixMap(schema_prefixes()))
        again = parse_turtle(serialize_turtle(doc))
        assert graph_equal(g, again.graph)

    def test_repeated_serialization_is_byte_identical(self):
        g = schema_to_graph(builtin_schema())
        doc = Document(graph=g, prefixes=PrefixMap(schema_prefixes()))
        assert serialize_turtle(doc) == serialize_turtle(doc)


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_round_trip_random_graphs(g):
    doc = Document(graph=g)
    parsed = parse_turtle(serialize_turtle(doc))
    assert graph_equal(g, parsed.graph)


# duplicate, nested and empty namespaces, and some that no IRI fits
_NAMESPACES = ["", "http://", "http://t", "http://t/", "http://t/a", "http://t/ab", "http://p/", "http://p/p", RDF_NS, XSD]
_prefix_maps = st.lists(
    st.tuples(st.sampled_from(["", "t", "u", "p", "rdf", "xsd"]), st.sampled_from(_NAMESPACES)), max_size=8
).map(PrefixMap)
_RDF_TYPE_IRI = Iri(RDF_TYPE)
# rdf:type in each position, and IRIs that only an empty namespace would
# fit, next to the terms of `graphs()` and `pool_graphs()`
_EXTRA = [
    Triple(_RDF_TYPE_IRI, _RDF_TYPE_IRI, _RDF_TYPE_IRI),
    Triple(Iri("http://t/a"), _RDF_TYPE_IRI, Iri("http://p/a")),
    Triple(Iri("http://p/a"), _RDF_TYPE_IRI, _RDF_TYPE_IRI),
    Triple(_RDF_TYPE_IRI, Iri("http://p/p0"), Literal("1", datatype=XSD_INTEGER)),
    Triple(Iri("s"), Iri("p"), Literal("1", datatype="dt")),
]


class TestSerializeAsTheReference:
    """The one-pass writer against the regrouping writer it replaced,
    kept in `tests.oracles`."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(graphs(), pool_graphs()), st.lists(st.sampled_from(_EXTRA)), _prefix_maps)
    def test_output_is_byte_identical(self, g, extra, prefixes):
        doc = Document(graph=Graph([*g, *extra]), prefixes=prefixes)
        assert serialize_turtle(doc) == reference_serialize_turtle(doc)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_generated_corpus_is_byte_identical(self, seed):
        doc = parse_turtle(make_corpus(seed, 20, True).turtle())
        assert serialize_turtle(doc) == reference_serialize_turtle(doc)
        doc.prefixes = PrefixMap(schema_prefixes())
        assert serialize_turtle(doc) == reference_serialize_turtle(doc)

    def test_shipped_files_and_builtin_graphs_are_byte_identical(self):
        paths = resources.corpus_paths() + sorted(Path(__file__).with_name("fixtures").glob("*.ttl"))
        docs = [parse_turtle(path.read_text(encoding="utf-8")) for path in paths]
        schema = builtin_schema()
        for graph in (schema_to_graph(schema), export_alignment(schema)):
            docs.append(Document(graph=graph, prefixes=PrefixMap(schema_prefixes())))
        for doc in docs:
            assert serialize_turtle(doc) == reference_serialize_turtle(doc)

    def test_rdf_type_is_written_a_only_as_a_predicate(self):
        g = Graph([Triple(_RDF_TYPE_IRI, _RDF_TYPE_IRI, Iri("http://t/C")), Triple(Iri("http://t/x"), Iri("http://t/p"), _RDF_TYPE_IRI)])
        out = serialize_turtle(Document(graph=g, prefixes=PrefixMap([("rdf", RDF_NS), ("t", "http://t/")])))
        assert out.splitlines()[3:] == ["t:x", "    t:p rdf:type .", "rdf:type", "    a t:C ."]
        out = serialize_turtle(Document(graph=g))
        assert out.splitlines() == ["<http://t/x>", f"    <http://t/p> <{RDF_TYPE}> .", f"<{RDF_TYPE}>", "    a <http://t/C> ."]

    def test_an_empty_namespace_is_never_used(self):
        g = Graph([Triple(Iri("abc"), Iri("http://t/p"), Literal("v", datatype="dt"))])
        out = serialize_turtle(Document(graph=g, prefixes=PrefixMap([("e", ""), ("t", "http://t/")])))
        assert out == '@prefix e: <> .\n@prefix t: <http://t/> .\n\n<abc>\n    t:p "v"^^<dt> .\n'


class TestErrorPositions:
    def test_comment_on_last_line_without_newline(self):
        assert len(parse_turtle("<http://x/s> <http://x/p> <http://x/o> .\n# done").graph) == 1
        text = "<http://x/s> <http://x/p> # no object"
        with pytest.raises(ParseError) as exc:
            parse_turtle(text)
        assert (exc.value.line, exc.value.column) == (1, len(text) + 1)
        assert exc.value.message == "expected object, found end of input"
        assert exc.value.snippet == text

    @pytest.mark.parametrize("bad", ["<open", '"open', "@", "_:", "!"])
    def test_a_comment_word_after_a_failed_token_is_never_lexed(self, bad):
        text = f"# leading comment\n{bad}"
        with pytest.raises(ParseError) as exc:
            parse_turtle(text)
        assert (exc.value.line, exc.value.column, exc.value.snippet) == (2, 1, bad)

    def test_tab_before_token_counts_as_one_column(self):
        text = (
            "@prefix ex: <http://example.org/> .\n"
            "ex:a ex:p ex:b .\n"
            "\tno:c ex:p ex:b .\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_turtle(text)
        assert (exc.value.line, exc.value.column) == (3, 2)
        assert "undeclared prefix" in exc.value.message
        assert exc.value.snippet == "\tno:c ex:p ex:b ."

    def test_bad_escape_on_crlf_line(self):
        bad = '<http://x/s> <http://x/p> "a\\qb" .'
        text = '<http://x/s> <http://x/p> "ok" .\r\n' + bad + "\r\n"
        with pytest.raises(ParseError) as exc:
            parse_turtle(text)
        assert (exc.value.line, exc.value.column) == (2, bad.index("\\") + 1)
        assert exc.value.message == "unknown escape \\q"
        assert exc.value.snippet == bad + "\r"

    @pytest.mark.parametrize("escape", ["\\uD800", "\\udbff", "\\uDC00", "\\uDFFF"])
    def test_a_surrogate_escape_is_reported_at_its_backslash(self, escape):
        bad = f'<http://x/s> <http://x/p> "a{escape}b" .'
        text = '<http://x/s> <http://x/p> "ok" .\n' + bad + "\n"
        with pytest.raises(ParseError) as exc:
            parse_turtle(text)
        assert (exc.value.line, exc.value.column) == (2, bad.index("\\") + 1)
        assert exc.value.message == f"\\u escape of a surrogate, U+{escape[2:].upper()}"

    def test_the_escapes_around_the_surrogates_decode(self):
        doc = parse_turtle('<http://x/s> <http://x/p> "\\uD7FF\\uE000" .')
        assert [t.object for t in doc.graph] == [Literal("\ud7ff\ue000")]


@settings(max_examples=200, deadline=None)
@given(graphs(), st.booleans(), st.booleans(), st.data())
def test_inserted_character_is_reported_at_its_line_and_column(g, crlf, comment, data):
    text = serialize_turtle(Document(graph=g, prefixes=PrefixMap([("t", "http://t/")])))
    header = 1  # the @prefix line
    if comment:
        text = "# a leading comment\n" + text
        header += 1
    if crlf:
        text = text.replace("\n", "\r\n")
    lines = text.split("\n")
    index = data.draw(st.integers(header, len(lines) - 1))
    lines[index] = "!" + lines[index]
    with pytest.raises(ParseError) as exc:
        parse_turtle("\n".join(lines))
    assert (exc.value.line, exc.value.column) == (index + 1, 1)
    assert exc.value.message == "unexpected character '!'"
    assert exc.value.snippet == lines[index]


class TestIris:
    @pytest.mark.parametrize(
        "text,line,column,message",
        [
            ("<http://x/a b> <http://x/p> <http://x/o> .", 1, 1, "IRI contains whitespace"),
            ("<http://x/s> <http://x/p>\n  <> .", 2, 3, "IRI must be non-empty"),
            ("@prefix w: <http://x/a b/> .\nw:c <http://x/p> <http://x/o> .", 2, 1, "IRI contains whitespace"),
            ('@prefix e: <> .\n<http://x/s> <http://x/p> "v"^^e: .', 2, 32, "IRI must be non-empty"),
            ('<http://x/s> <http://x/p> "v"^^<a b> .', 1, 32, "IRI contains whitespace"),
            # each character the IRIREF rule excludes, but whitespace
            *((f"<http://x/s> <http://x/p>\n  <a{c}b> .", 2, 3, f"IRI contains {c!r}: {'a' + c + 'b'!r}") for c in '<"{}|^`\\'),
        ],
    )
    def test_bad_iri_is_a_parse_error_at_its_token(self, text, line, column, message):
        with pytest.raises(ParseError) as exc:
            parse_turtle(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert message in exc.value.message

    def test_one_object_per_iri_string(self):
        doc = parse_turtle("@prefix x: <http://x/> .\n<http://x/a> x:a x:a .")
        (t,) = doc.graph
        assert t.subject is t.predicate is t.object

    def test_redeclared_prefix_expands_to_the_new_namespace(self):
        text = (
            "@prefix e: <http://x/1/> .\ne:a e:p e:o .\n"
            "@prefix e: <http://x/2/> .\ne:a e:p e:o .\n"
        )
        subjects = {t.subject for t in parse_turtle(text).graph}
        assert subjects == {Iri("http://x/1/a"), Iri("http://x/2/a")}


# Turtle 1.1 STRING_LITERAL_QUOTE, ECHAR and UCHAR, as the grammar writes them
_STRING_LITERAL_QUOTE = re.compile(
    r'"(?:[^"\\\n\r]|\\[tbnrf"\'\\]|\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8})*"'
)
# any quoted run: finds each literal token, conforming or not, in output
# whose IRIs and blank labels hold no quote
_QUOTED = re.compile(r'"(?:[^"\\]|\\.)*"', re.DOTALL)


def _assert_literals_conform(g: Graph) -> None:
    text = serialize_turtle(Document(graph=g, prefixes=PrefixMap([("t", "http://t/"), ("e", "http://e/")])))
    found = _QUOTED.findall(text)
    assert len(found) == sum(isinstance(t.object, Literal) for t in g)
    for token in found:
        assert _STRING_LITERAL_QUOTE.fullmatch(token), token


class TestLiteralOutput:
    @pytest.mark.parametrize("lexical", ["a\rb", "a\tb", 'a"b', "a\\b", "a\nb", "\r\n\t\"\\"])
    @pytest.mark.parametrize(
        "kind", [{}, {"language": "fr"}, {"datatype": "http://e/dt"}, {"datatype": "http://other/dt"}], ids=repr
    )
    def test_each_escape_is_written_escaped(self, lexical, kind):
        lit = Literal(lexical, **kind)
        g = Graph([Triple(Iri("http://t/s"), Iri("http://t/p"), lit)])
        _assert_literals_conform(g)
        (t,) = parse_turtle(serialize_turtle(Document(graph=g, prefixes=PrefixMap([("e", "http://e/")])))).graph
        assert t.object is lit

    def test_typed_literal_with_a_carriage_return(self):
        g = Graph([Triple(Iri("http://t/s"), Iri("http://t/p"), Literal("a\rb", datatype="http://e/dt"))])
        out = serialize_turtle(Document(graph=g, prefixes=PrefixMap([("e", "http://e/")])))
        assert '"a\\rb"^^e:dt' in out and "\r" not in out

    @settings(max_examples=200, deadline=None)
    @given(graphs())
    def test_every_literal_matches_the_grammar(self, g):
        _assert_literals_conform(g)


# ---------------------------------------------------------------------------
# the reader against the token path alone

# the error cases of the suites, each raising a ParseError
_ERROR_CASES = [
    "@prefix x",
    "ex:a ex:p ex:b .",
    '@prefix ex: <http://example.org/> .\nex:a ex:p "oops .',
    "@prefix ex: <http://example.org/> . ex:a ex:p",
    '"x" <http://example.org/p> <http://example.org/o> .',
    "@prefix ex: <http://example.org/> .\nex:a ex:p ex:b .\nex:c ex:d\n",
    "<http://x/s> <http://x/p> # no object",
    *(f"# leading comment\n{bad}" for bad in ["<open", '"open', "@", "_:", "!"]),
    "@prefix ex: <http://example.org/> .\nex:a ex:p ex:b .\n\tno:c ex:p ex:b .\n",
    '<http://x/s> <http://x/p> "ok" .\r\n<http://x/s> <http://x/p> "a\\qb" .\r\n',
    "<http://x/a b> <http://x/p> <http://x/o> .",
    "<http://x/s> <http://x/p>\n  <> .",
    "@prefix w: <http://x/a b/> .\nw:c <http://x/p> <http://x/o> .",
    '@prefix e: <> .\n<http://x/s> <http://x/p> "v"^^e: .',
    "<http://x/s> <http://x/p> <> .\n",
    # characters the IRIREF rule excludes; the reader leaves each to the token path
    '<http://x/s> <http://x/p> <http://x/"o"> .',
    "<http://x/s> <http://x/p> <a<b> .",
    "@prefix t: <http://t/> .\nt:s t:p <http://x/a{b> .",
    "@prefix t: <http://t/a|b/> .\nt:s t:p t:o .",
    "this is not turtle @@",
    "ex:a ex:b",
    # shapes the reader reads, each with one fault
    "@prefix t: <http://t/> .\nt:s t:p t:o ; t:q .",
    "@prefix t: <http://t/> .\nt:s t:p t:o , t:q t:r .",
    "@prefix t: <http://t/> .\nt:s t:p t:o ; u:q t:r .",
    "@prefix t: <http://t/> .\nt:s t:p u:o ; t:q t:r .",
    "@prefix t: <http://t/> .\nu:s t:p t:o .",
    "@prefix t: <http://t/> .\nt:s t:p t:o ;; , t:r .",
    "@prefix t: <http://t/> .\nt:s a t:o ; ab t:r .",
    "@prefix t: <http://t/> .\nt:s at:o .",  # the name `at:o`, not `a` and `t:o`
    "@prefix t: <http://t/> .\n. t:s t:p t:o .",
    "@prefix t: <http://t/> .\nt:s t:p t:o . t:x t:y .",
    "@prefix t: <http://t/> .\nt:s t:p t:o . t:a t:b t:c t:d .",
    "@prefix t: <http://t/> .\nt:s t:p t:o .\nu:s t:p t:o .",
    "@prefix t: <http://t/> .\nt:s t:p t:o .\n_:b t:p t:o , u:o .",
    "@prefix t: <http://t/> .\nt:s t:p t:o ; t:q t:r , t:r2 .\nt:s2 t:p .",
    "@prefix t: <http://t/> .\nt:s t:p t:o:x .",
    "@prefix t: <http://t/> .\nt:s t:p t:o . . ",
    "@prefix t: <http://t/> .\nt:s t:p <a b> .",
    "@prefix t: <http://t/> .\nt:s t:p t:o ; t:q t:r\n",
    "@prefix t: <http://t/> .\nt:s t:p t:o ; t:q t:r ! .",
    # what the reader leaves to the token path, each with one fault
    '<http://x/s> <http://x/p> "v"^^<a b> .',
    '<http://x/s> <http://x/p> "v"^^a .',
    '<http://x/s> <http://x/p> "v"@prefix .',
    '<http://x/s> <http://x/p> "v"@en@fr .',
    '<http://x/s> <http://x/p> "v" "w" .',
    '<http://x/s> <http://x/p> "v"@en <http://x/o> .',
    '<http://x/s> <http://x/p> "v"^^<http://x/dt> <http://x/o> ; <http://x/q> <http://x/o> .',
    '<http://x/s> <http://x/p> "a\\"b" ; "c" .',
    '<http://x/s> <http://x/p> "a\\qb" .',
    '<http://x/s> <http://x/p> "a\nb" .',
    '"v" <http://x/p> <http://x/o> .',
    '<http://x/s> "v" <http://x/o> .',
    "<http://x/s> <http://x/p> <http://x/o> .\x0b<http://x/s> <http://x/p> <http://x/o> .",
    "<http://x/s>\xa0<http://x/p> <http://x/o> .",
    '<http://x/s> <http://x/p> <http://x/o> . # a "quoted" word\n<http://x/s> <http://x/p> .',
    "<http://x/s> <http://x/p> <http://x/o>> .",
    "<http://x/s> <http://x/p> <http://x/o><http://x/o2> .",
    "@base <http://x/> .\n<s> <p> .",
    "@prefix t: <http://t/> .\n@prefix t: <http://u/> .\nt:s t:p t:o .\nu:s t:p t:o .",
    "@prefix t <http://t/> .\nt:s t:p t:o .",
    "@prefix t: <http://t/>\nt:s t:p t:o .",
    "@prefix t: <http://t/> .\nt:s t:p a .",
    "@prefix t: <http://t/> .\na t:p t:o .",
    "@prefix t: <http://t/> .\nt:s t:p _:b. .",
    "@prefix t: <http://t/> .\nt:s t:p 12a .",
    "@prefix t: <http://t/> .\nt:s t:p t:o # no '.'\n",
    # escaped quotes and backslashes at the ends of literal bodies
    '<http://x/s> <http://x/p> "abc\\" .',
    '<http://x/s> <http://x/p> "a\\\\" b" .',
    '<http://x/s> <http://x/p> "a\\\\\\" .',
    '<http://x/s> <http://x/p> "\\"a\\"b\\q" .',
    '<http://x/s> <http://x/p> "\\"" "\\"" .',
]

# well-formed documents that the reader leaves to the token path
_FALLBACK_CASES = [
    '<http://x/s> <http://x/p> <http://x/o> . # a "quoted" word\n',
    '<http://x/s> <http://x/p> # "x"@en ,\n"y" .',  # cut at each '"', the comment would hold "x"@en
    "@base <http://x/> .\n<s> <p> <o> .",
    '<http://x/s> <http://x/p> "a\xa0b" .',
    "@prefix t: <http://t/> .\nt:s t:p <http://x/a,b>, t:o.",
]

# well-formed documents that the reader reads: a prefix bound anew, and
# punctuation glued to the token before or after it
_READ_CASES = [
    "@prefix t: <http://t/> .\nt:s t:p t:o .\n@prefix t: <http://u/> .\nt:s t:p t:o .",
    "@prefix t: <http://t/> .\nt:s a t:o .\n@prefix t: <http://u/> .\nt:s a t:o .",
    "@prefix t: <http://t/> .\nt:s t:p t:o.",
    "@prefix t: <http://t/> .\nt:s t:p t:o;t:q t:r .",
    "@prefix t: <http://t/> .\nt:s t:p t:o , t:o2,t:o3 ;.",
    "@prefix t: <http://t/>.\nt:s t:p _:b.\n_:b.c t:p 12.",
    '<http://x/s> <http://x/p> "v"@en.',
    '<http://x/s> <http://x/p> "v"^^<http://x/dt>;<http://x/q> "w"^^<http://x/dt>.',
    '<http://x/s> <http://x/p> "a \\"quoted\\" word" .',
    '<http://x/s> <http://x/p> "\\"" , "\\\\" , "\\\\\\"" , "a\\\\\\\\" .',
    '<http://x/s> <http://x/p> "\\"a\\"b\\""@en ; <http://x/q> "\\\\"^^<http://x/dt> .',
]

_CLASS = Iri("http://t/Class")
_TYPED = Iri("http://t/typed")
_BODY_ENDS = st.sampled_from(["", '"', "\\", '\\"'])  # written \", \\ and \\\"


def _outcome(text: str) -> tuple:
    try:
        doc = parse_turtle(text)
    except ParseError as exc:
        return ("ParseError", exc.line, exc.column, exc.message, exc.snippet)
    except ValueError as exc:  # what the token path lets through, the reader must too
        return (type(exc).__name__, str(exc))
    return ("ok", list(doc.graph), list(doc.prefixes.items()))


def _token_path_outcome(text: str) -> tuple:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(turtle, "_read", lambda text: None)
        return _outcome(text)


@st.composite
def documents(draw, quoted_comments: bool = True) -> str:
    """A `graphs()` graph, with literals added, laid out at random:
    prefixed names or IRIREFs, `a`, bare integers, datatypes as IRIREFs
    or prefixed names, literal bodies that begin or end with an escaped
    quote or backslash, comments on their own line, after a token and
    after a '.', ',' object lists, runs of ';', a trailing ';', repeated
    triples, and a mid-document @prefix that rebinds `t:`."""
    g = draw(graphs())
    comments = [" # ex:p ex:o . ;\n", "\n# comment , <x>\n    "]
    if quoted_comments:
        comments.append(' # a "quoted" <word>\n')
    gaps = st.sampled_from([" ", "  ", "\n", "\t", "\r\n", *comments])
    by_subject: dict = {}
    for t in sorted(g, key=Triple.sort_key):  # terms hash by address: draw in a fixed order
        by_subject.setdefault(t.subject, {}).setdefault(t.predicate, []).append(t.object)
    for s in by_subject:
        if draw(st.booleans()):
            by_subject[s].setdefault(_RDF_TYPE_IRI, []).append(_CLASS)
        if draw(st.booleans()):
            datatype = draw(st.sampled_from([None, "http://t/dt", "http://t/a", XSD_INTEGER]))
            lexical = draw(_BODY_ENDS) + draw(st.text(max_size=6)) + draw(_BODY_ENDS)
            by_subject[s].setdefault(_TYPED, []).append(Literal(lexical, datatype=datatype))
    namespace = "http://t/"

    def term(x) -> str:
        if isinstance(x, Iri) and x.value.startswith(namespace) and draw(st.booleans()):
            return "t:" + x.value[len(namespace) :]
        if isinstance(x, Literal) and x.language is None and x.datatype != XSD_STRING:
            if x.datatype == XSD_INTEGER and re.fullmatch("[+-]?[0-9]+", x.lexical) and draw(st.booleans()):
                return x.lexical
            quoted = x.n3()[: -len(x.datatype) - 4]
            return quoted + "^^" + draw(st.sampled_from(["", " "])) + term(Iri(x.datatype))
        return x.n3()

    out = ["@prefix t: <http://t/> ."]
    rebind_at = draw(st.integers(0, len(by_subject)))
    for i, (s, preds) in enumerate(by_subject.items()):
        if i == rebind_at:
            namespace = "http://t/a"  # `t:b` now names http://t/ab
            out.append(f"@prefix t: <{namespace}> .")
        units = []
        for p, objs in preds.items():
            verb = "a" if p is _RDF_TYPE_IRI and draw(st.booleans()) else term(p)
            if draw(st.booleans()):  # one ',' list
                units.append(verb + draw(gaps) + ("," + draw(gaps)).join(term(o) for o in objs))
            else:
                units.extend(verb + draw(gaps) + term(o) for o in objs)
            if draw(st.integers(0, 4)) == 0:  # a repeated triple
                units.append(units[-1])
        sep = st.sampled_from([" ;", " ; ;", ";\n    ", " ;;", ";"])
        text = term(s) + draw(gaps) + "".join(u + draw(sep) + draw(gaps) for u in units[:-1]) + units[-1]
        if draw(st.booleans()):
            text += draw(sep)
        out.append(text + draw(gaps) + ".")
    between = st.sampled_from(["\n", " ", "\n\n# between\n", " # after a '.'\n"])
    return "".join(line + draw(between) for line in out)


def _service_data_file(tmp_path) -> str:
    """A service data file: a whole write, then records appended by posts."""
    state = load_state(data_path=str(tmp_path / "kb.ttl"))
    assert state.apply_post(make_corpus(1, 2, False).turtle())[0] == 200
    for delta in islice(deltas(1, 2), 4):
        assert state.apply_post(delta.body)[0] == (200 if delta.valid else 422)
    text = state.snapshot_path.read_text(encoding="utf-8")
    assert text.count("# epoch") == 6  # the whole write's two, then one per accepted post
    return text


class TestReader:
    def test_the_reader_alone_reads_the_shipped_shapes(self, tmp_path):
        texts = [path.read_text(encoding="utf-8") for path in resources.corpus_paths()]
        texts.append(next(deltas(1, 50)).body)  # a 3-triple post
        texts.append(_service_data_file(tmp_path))
        read = []

        def spy(text):
            doc = real(text)
            read.append(doc is not None)
            return doc

        def refuse(*args, **kwargs):
            raise AssertionError("the token path ran")

        real = turtle._read
        for text in texts:
            expected = _token_path_outcome(text)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(turtle, "_read", spy)
                mp.setattr(turtle_tokens, "_Parser", refuse)
                assert _outcome(text) == expected
        assert read == [True] * len(texts)
        assert expected[0] == "ok" and len(expected[1]) > 0

    def test_the_patterns_need_no_python_3_11_syntax(self):
        # atomic groups and possessive quantifiers came with Python 3.11
        patterns = [turtle_tokens._TOKEN, turtle._PNAME_RE.pattern, turtle._BLANK_RE.pattern]
        patterns += [turtle._INTEGER_RE.pattern, turtle._LANGTAG_RE.pattern]
        for pattern in patterns:
            assert "(?>" not in pattern
            assert not re.search(r"[*+?}]\+", pattern.replace("\\+", ""))

    def test_the_odd_spaces_are_the_rest_of_what_split_splits_on(self):
        spaces = {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()}
        assert set(turtle._ODD_SPACES) == spaces - set(" \t\r\n")

    def test_the_token_scanner_compiles_on_first_use(self):
        turtle_tokens._scanner.cache_clear()
        parse_turtle("<http://x/s> <http://x/p> <http://x/o> .")
        assert turtle_tokens._scanner.cache_info().currsize == 0
        parse_turtle("@base <http://x/> .\n<s> <p> <o> .")
        assert turtle_tokens._scanner.cache_info().currsize == 1

    @pytest.mark.parametrize("text", _ERROR_CASES)
    def test_each_error_case_fails_alike(self, text):
        outcome = _outcome(text)
        assert outcome[0] == "ParseError"
        assert outcome == _token_path_outcome(text)

    @pytest.mark.parametrize("text", _FALLBACK_CASES)
    def test_the_token_path_reads_what_the_reader_leaves(self, text):
        assert turtle._read(text) is None
        outcome = _outcome(text)
        assert outcome[0] == "ok"
        assert outcome == _token_path_outcome(text)

    @pytest.mark.parametrize("text", _READ_CASES)
    def test_the_reader_reads_these_alike(self, text):
        assert turtle._read(text) is not None
        outcome = _outcome(text)
        assert outcome[0] == "ok"
        assert outcome == _token_path_outcome(text)

    @settings(max_examples=300, deadline=None)
    @given(documents(), st.data())
    def test_a_document_and_its_damaged_copies_parse_alike(self, text, data):
        outcome = _outcome(text)
        assert outcome[0] == "ok"
        assert outcome == _token_path_outcome(text)
        cut = data.draw(st.integers(0, len(text)), label="cut")
        assert _outcome(text[:cut]) == _token_path_outcome(text[:cut])
        at = data.draw(st.integers(0, len(text)), label="at")
        bad = data.draw(
            st.sampled_from(
                ["!", "u:", ";", ",", ".", "a", "<", ">", '"', "_:", "#", "-", ":", "\\", "@", "^^", "\x0b", "\xa0"]
            ),
            label="bad",
        )
        damaged = text[:at] + bad + text[at:]
        assert _outcome(damaged) == _token_path_outcome(damaged)

    @settings(max_examples=200, deadline=None)
    @given(documents(quoted_comments=False))
    def test_the_reader_reads_a_document_without_an_odd_space(self, text):
        assume(not any(space in text for space in turtle._ODD_SPACES))
        assert turtle._read(text) is not None
