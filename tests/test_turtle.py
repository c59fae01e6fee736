import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontosoc.canonical import graph_equal
from ontosoc.rdf import (
    XSD_INTEGER,
    Blank,
    Graph,
    Iri,
    Literal,
    PrefixMap,
    Triple,
)
from ontosoc.schema import builtin_schema, schema_prefixes, schema_to_graph
from ontosoc import resources, turtle
from ontosoc.turtle import Document, ParseError, parse_turtle, serialize_turtle

from .strategies import graphs

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
# the fused unit against the token path alone

_NEVER = re.compile(r"(?!)")

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
    "this is not turtle @@",
    "ex:a ex:b",
    # shapes the unit reads, each with one fault
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
]

_RDF_TYPE_IRI = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
_CLASS = Iri("http://t/Class")


def _outcome(text: str) -> tuple:
    try:
        doc = parse_turtle(text)
    except ParseError as exc:
        return ("ParseError", exc.line, exc.column, exc.message, exc.snippet)
    except ValueError as exc:  # what the token path lets through, the fused path must too
        return (type(exc).__name__, str(exc))
    return ("ok", list(doc.graph), doc.prefixes.items(), doc.base)


def _token_path_outcome(text: str) -> tuple:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(turtle, "_UNIT", _NEVER)
        return _outcome(text)


@st.composite
def documents(draw) -> str:
    """A serialized `graphs()` graph laid out at random: prefixed names or
    IRIREFs, `a`, comments, ',' object lists, runs of ';' and a trailing ';'."""
    g = draw(graphs())
    gaps = st.sampled_from([" ", "  ", "\n", "\t", "\r\n", " # ex:p ex:o . ;\n", "\n# comment , <x>\n    "])
    by_subject: dict = {}
    for t in sorted(g, key=Triple.sort_key):  # terms hash by address: draw in a fixed order
        by_subject.setdefault(t.subject, {}).setdefault(t.predicate, []).append(t.object)
    for s in by_subject:
        if draw(st.booleans()):
            by_subject[s].setdefault(_RDF_TYPE_IRI, []).append(_CLASS)

    def term(x) -> str:
        if isinstance(x, Iri) and x.value.startswith("http://t/") and draw(st.booleans()):
            return "t:" + x.value[len("http://t/") :]
        return x.n3()

    out = ["@prefix t: <http://t/> ."]
    for s, preds in by_subject.items():
        units = []
        for p, objs in preds.items():
            verb = "a" if p is _RDF_TYPE_IRI and draw(st.booleans()) else term(p)
            if draw(st.booleans()):  # one ',' list
                units.append(verb + draw(gaps) + ("," + draw(gaps)).join(term(o) for o in objs))
            else:
                units.extend(verb + draw(gaps) + term(o) for o in objs)
        sep = st.sampled_from([" ;", " ; ;", ";\n    ", " ;;", ";"])
        text = term(s) + draw(gaps) + "".join(u + draw(sep) + draw(gaps) for u in units[:-1]) + units[-1]
        if draw(st.booleans()):
            text += draw(sep)
        out.append(text + draw(gaps) + ".")
    return draw(st.sampled_from(["\n", " ", "\n\n# between\n"])).join(out) + "\n"


class TestFusedUnit:
    def test_the_unit_reads_every_triple_of_a_corpus(self):
        class Counting:
            def __init__(self, pattern):
                self.pattern, self.hits = pattern, 0

            def match(self, text, pos):
                m = self.pattern.match(text, pos)
                self.hits += m is not None
                return m

        text = resources.corpus_paths()[0].read_text(encoding="utf-8")
        spy = Counting(turtle._UNIT)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(turtle, "_UNIT", spy)
            doc = parse_turtle(text)
        assert spy.hits == len(doc.graph) > 0

    def test_the_pattern_needs_no_python_3_11_syntax(self):
        # atomic groups and possessive quantifiers came with Python 3.11
        for pattern in (turtle._UNIT, turtle._TOKEN):
            assert "(?>" not in pattern.pattern
            assert not re.search(r"[*+?}]\+", pattern.pattern.replace("\\+", ""))

    @pytest.mark.parametrize("text", _ERROR_CASES)
    def test_each_error_case_fails_alike(self, text):
        fused = _outcome(text)
        assert fused[0] == "ParseError"
        assert fused == _token_path_outcome(text)

    @settings(max_examples=300, deadline=None)
    @given(documents(), st.data())
    def test_a_document_and_its_damaged_copies_parse_alike(self, text, data):
        fused = _outcome(text)
        assert fused[0] == "ok"
        assert fused == _token_path_outcome(text)
        cut = data.draw(st.integers(0, len(text)), label="cut")
        assert _outcome(text[:cut]) == _token_path_outcome(text[:cut])
        at = data.draw(st.integers(0, len(text)), label="at")
        bad = data.draw(st.sampled_from(["!", "u:", ";", ",", ".", "a", "<", '"', "_:", "#", "-", ":"]), label="bad")
        damaged = text[:at] + bad + text[at:]
        assert _outcome(damaged) == _token_path_outcome(damaged)
