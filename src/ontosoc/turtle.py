"""Turtle subset reader and writer.

Covers what the schema, alignment and corpus files need: @prefix/@base,
the `a` keyword, `;` predicate lists, `,` object lists, IRIs, prefixed
names, string literals with language tags or datatype annotations,
integers, labeled blank nodes and comments.  Collections and anonymous
blank nodes are deliberately out.

`parse_turtle` first tries the whole-document reader, `_read`.  It
cuts the text at each '"' into code and string literal bodies, in turn,
cuts the comments out of the code, and splits the code on whitespace
with `str.split`, a lone '"' standing where each literal stood.  It then
walks the tokens through the grammar, resolving each distinct token
once per @prefix scope, and hands the triples, in document order, to one
`Graph.bulk_insert`, which skips the checks the grammar already makes.
It reads prefixed names, `a`, IRIREFs, blank node labels, integers,
string literals (plain, with a language tag or with a datatype), ',',
';' and '.', and comments; where punctuation is glued to a token, as in
`ex:o.`, it splits the code again with '.', ',' and ';' split off.  It
raises nothing: on anything it cannot read it returns None, and the
token path parses the whole text from the start.  A quote that a
backslash escapes, as the writer writes each '"' of a literal, does not
end its literal: where a text holds one, the pieces of each body that
such quotes cut are joined again, so the service's own files stay on
the reader.  It leaves to the token path a text with a whitespace
character other than space, tab, CR and LF, with a '"' inside a comment
or an IRIREF, or with `@base`; any token that does not resolve (an
undeclared prefix, a malformed IRI or escape); and any fault of the
grammar.  So the token path alone raises every ParseError.

The token path, a recursive-descent parser over a scanner, is its own
module, `turtle_tokens`, which `parse_turtle` imports on its first
fallback; so a command whose input the reader reads whole never compiles
it.  It reads queries too, through `sparql._QueryParser`.

Both paths build terms through the hash-consing constructors, so a term
occurring many times is one object.

The serializer emits a byte-stable layout: prefix declarations first,
then one block per subject.  It walks the triples once, sorted by the
N3 strings of subject, predicate and object (unique, as terms are
interned), and opens a block where the subject changes, writes ' ;'
where the predicate changes and ', ' between objects.  Each distinct
term is rendered once per call: an IRI as a prefixed name under the
longest namespace that leaves a local name the reader reads (the first
declared among equally long ones; never an empty namespace), else as an
IRIREF.  `a` stands for rdf:type in predicate position only.  Every
literal is written with the escapes of its N3 string, so `rdf._escape`
is the one encoder.  Serializer output always re-parses to an equal
graph.
"""

from __future__ import annotations

import re
from typing import Optional

from .rdf import (
    RDF_TYPE,
    XSD_INTEGER,
    XSD_STRING,
    Blank,
    EscapeError,
    Graph,
    Iri,
    Literal,
    PrefixMap,
    Term,
    TermError,
    Triple,
    UndeclaredPrefixError,
    unescape,
)


class ParseError(Exception):
    """Syntax or resolution error with a 1-based source position."""

    def __init__(self, line: int, column: int, message: str, snippet: str = ""):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message
        self.snippet = snippet


class Document:
    """A Turtle file's content: its graph and its prefixes."""

    __slots__ = ("graph", "prefixes")

    def __init__(self, graph: Optional[Graph] = None, prefixes: Optional[PrefixMap] = None):
        self.graph = Graph() if graph is None else graph
        self.prefixes = PrefixMap() if prefixes is None else prefixes

    def __repr__(self) -> str:
        return f"Document(graph={self.graph!r}, prefixes={self.prefixes!r})"


# Token patterns the scanner (`turtle_tokens`), the reader and the writer share.
_LOCAL = r"(?:[A-Za-z0-9_][A-Za-z0-9_\-]*)?"  # a prefixed name's local part
_PNAME = rf"(?:[A-Za-z][A-Za-z0-9_\-]*)?:{_LOCAL}"
_BLANK = r"_:[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?"  # a trailing '.' ends the statement
_INTEGER = r"[+-]?[0-9]+"
_LANGTAG = r"[A-Za-z][A-Za-z0-9\-]*"
# a character of an IRIREF: none that the IRIREF rule excludes but
# whitespace, which `Iri` reports, and no newline
_IRI_CHAR = r'[^<>"{}|^`\\\n]'

_RDF_TYPE = Iri(RDF_TYPE)

# ---------------------------------------------------------------------------
# the whole-document reader

# the whitespace on which `str.split` splits and which the scanner does not skip
_ODD_SPACES = "\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
_PNAME_RE = re.compile(_PNAME)
_LOCAL_RE = re.compile(_LOCAL)
_BLANK_RE = re.compile(_BLANK)
_INTEGER_RE = re.compile(_INTEGER)
_LANGTAG_RE = re.compile(_LANGTAG)
_IRI_BODY_RE = re.compile(f"{_IRI_CHAR}*")
# the tokens of code with ',' and ';' split off, and each '.' that ends a token
_PUNCT_SPLIT = re.compile(r"[^\s,;]*[^\s,;.]|[,;.]")
_PUNCTS = frozenset(".,;")


class _Unreadable(Exception):
    """Input the reader leaves to the token path."""


class _Glued(_Unreadable):
    """A token that may have punctuation glued to it, as in `ex:o.`."""


def _unreadable(token: str) -> _Unreadable:
    """The error for ``token``, which the reader cannot read where it stands."""
    glued = "," in token or ";" in token or token[0] == "." or token[-1] == "."
    return _Glued() if glued else _Unreadable()


def _uncomment(code: str) -> str:
    """``code``, text outside string literals, with its comments cut out.
    A '#' starts a comment unless an IRIREF is open on its line.  A
    comment must end at a newline within ``code``; one that does not
    holds the quote that ended ``code``."""
    out = []
    start = 0
    at = code.find("#")
    while at != -1:
        line = code.rfind("\n", 0, at) + 1
        if code.rfind("<", line, at) > code.rfind(">", line, at):
            at = code.find("#", at + 1)
            continue
        end = code.find("\n", at)
        if end == -1:
            raise _Unreadable
        out.append(code[start:at])
        start = end
        at = code.find("#", end)
    out.append(code[start:])
    return "".join(out)


def _unescaped_cuts(parts: list[str]) -> list[str]:
    """``parts``, a text cut at each '"', with each string literal body
    joined again where an escaped quote cut it: where a piece of it ends
    in an odd run of backslashes."""
    out = []
    at = 0
    while at < len(parts):
        part = piece = parts[at]
        if len(out) % 2:  # a body
            while (len(piece) - len(piece.rstrip("\\"))) % 2 and at + 1 < len(parts):
                at += 1
                piece = parts[at]
                part += '"' + piece
        out.append(part)
        at += 1
    return out


def _read(text: str) -> Optional[Document]:
    """The document, read in one pass over whitespace-split tokens, or
    None where the token path must read it.

    The text is cut at each '"' into code and string literal bodies, in
    turn, a quote that a backslash escapes staying in its body; the
    code, its comments cut out, is joined with a lone '"' token where
    each literal stood, and split on whitespace.  A token that does not
    resolve where it stands ends the read; if it may have punctuation
    glued to it, the code is read once more with '.', ',' and ';' split
    off the tokens they end.
    """
    if any(space in text for space in _ODD_SPACES):
        return None
    parts = text.split('"')
    if "\\" in text and '\\"' in text:
        parts = _unescaped_cuts(parts)
    if len(parts) % 2 == 0:
        return None
    parts[-1] += "\n"  # so that a comment on the last line ends
    code = parts[::2]
    try:
        if "#" in text:
            code = [_uncomment(part) if "#" in part else part for part in code]
        code = ' " '.join(code)
        try:
            return _statements(code.split(), parts[1::2])
        except _Glued:
            return _statements(_PUNCT_SPLIT.findall(code), parts[1::2])
    except (_Unreadable, StopIteration, UndeclaredPrefixError, TermError, EscapeError):
        return None


def _statements(words: list[str], bodies: list[str]) -> Document:
    """The document that ``words`` state, each '"' standing for the next
    of the string literal ``bodies``.  Each distinct word is resolved
    once per @prefix scope.  Raises where the token path must read it."""
    doc = Document()
    prefixes = doc.prefixes
    nodes: dict[str, Term] = {}  # word -> its term as a subject or an object
    verbs: dict[str, Iri] = {"a": _RDF_TYPE}  # word -> its term as a verb
    literals = iter(bodies)

    def iri(token: str) -> Iri:
        if _PNAME_RE.fullmatch(token):
            label, _, local = token.partition(":")
            return Iri(prefixes[label] + local)
        return Iri(iriref(token))

    def iriref(token: str) -> str:
        body = token[1:-1]
        if token[0] != "<" or token[-1] != ">" or not _IRI_BODY_RE.fullmatch(body):
            raise _unreadable(token)
        return body

    def verb(token: str) -> Iri:
        term = verbs[token] = iri(token)
        return term

    def node(token: str) -> Term:
        if token == '"':  # the next string literal, not filed under '"'
            body = next(literals)
            if "\n" in body:
                raise _Unreadable
            return Literal(unescape(body) if "\\" in body else body)
        if token[0] == "_":
            if not _BLANK_RE.fullmatch(token):
                raise _unreadable(token)
            term = Blank(token[2:])
        elif token[0] in "+-0123456789" and _INTEGER_RE.fullmatch(token):
            term = Literal(token, datatype=XSD_INTEGER)
        else:
            term = iri(token)
        nodes[token] = term
        return term

    def annotated(lexical: str, token: str) -> Literal:
        """The string literal ``lexical`` with the language tag or
        datatype that ``token`` starts."""
        if token[0] == "@":
            if not _LANGTAG_RE.fullmatch(token, 1):
                raise _unreadable(token)
            if token in ("@prefix", "@base"):
                raise _Unreadable
            return Literal(lexical, language=token[1:])
        if token[:2] != "^^":
            raise _unreadable(token)
        return Literal(lexical, datatype=iri(token[2:] or next(tokens)).value)

    triples: list[tuple[Term, Iri, Term]] = []
    append = triples.append
    tokens = iter(words)
    for token in tokens:
        if token == "@prefix":
            label, namespace, end = next(tokens), next(tokens), next(tokens)
            if not _PNAME_RE.fullmatch(label) or label[-1] != ":":
                raise _unreadable(label)
            namespace = iriref(namespace)
            if end != ".":
                raise _unreadable(end)
            prefixes[label[:-1]] = namespace
            nodes.clear()
            verbs.clear()
            verbs["a"] = _RDF_TYPE
            continue
        s = nodes.get(token) or node(token)
        if s.__class__ is Literal:
            raise _Unreadable
        token = next(tokens)
        while True:  # a verb and its objects
            p = verbs.get(token) or verb(token)
            while True:
                before = next(tokens)
                o = nodes.get(before) or node(before)
                token = next(tokens)
                if token not in _PUNCTS:
                    if before != '"':
                        raise _unreadable(token)
                    o = annotated(o.lexical, token)
                    token = next(tokens)
                append((s, p, o))
                if token != ",":
                    break
            if token == ".":
                break
            if token != ";":
                raise _unreadable(token)
            token = next(tokens)
            while token == ";":
                token = next(tokens)
            if token == ".":  # trailing semicolon
                break
    # the grammar admits no literal subject and only IRI verbs
    doc.graph.bulk_insert(triples)
    return doc


def parse_turtle(text: str) -> Document:
    """Parse Turtle text; raises ParseError at the first offense."""
    doc = _read(text)
    if doc is None:
        from .turtle_tokens import _Parser  # compiled on the first text the reader leaves

        doc = _Parser(text).parse()
    return doc


def _compress(iri: Iri, namespaces: list[tuple[str, str]]) -> str:
    """``iri`` as a prefixed name under the first of ``namespaces`` that
    leaves a local name the reader reads, else as an IRIREF."""
    value = iri.value
    for label, ns in namespaces:
        if value.startswith(ns) and _LOCAL_RE.fullmatch(value, len(ns)):
            return f"{label}:{value[len(ns):]}"
    return iri.n3()


def _render(term: Term, namespaces: list[tuple[str, str]]) -> str:
    if isinstance(term, Iri):
        return _compress(term, namespaces)
    if isinstance(term, Literal) and term.datatype not in (None, XSD_STRING):
        # the N3 string ends with ^^<datatype>; what comes before it is the
        # lexical form as `rdf._escape` quotes it
        quoted = term.n3()[: -len(term.datatype) - 4]
        return f"{quoted}^^{_compress(Iri(term.datatype), namespaces)}"
    return term.n3()


def serialize_turtle(doc: Document) -> str:
    """Write a Document as Turtle with a deterministic layout."""
    declared = doc.prefixes.items()
    out = [f"@prefix {label}: <{ns}> .\n" for label, ns in sorted(declared)]
    if out:
        out.append("\n")
    # longest first, so the longest namespace that fits wins, and among
    # equally long ones the first declared; an empty one shortens nothing
    namespaces = sorted((item for item in declared if item[1]), key=lambda item: -len(item[1]))
    rendered: dict[Term, str] = {}

    def text(term: Term) -> str:
        found = rendered.get(term)
        if found is None:
            found = rendered[term] = _render(term, namespaces)
        return found

    subject = predicate = None
    end = ""  # what closes the open subject block
    for s, p, o in sorted(doc.graph, key=Triple.sort_key):
        if s is subject and p is predicate:
            out.append(", ")
        else:
            verb = "a" if p is _RDF_TYPE else text(p)
            out.append(f" ;\n    {verb} " if s is subject else f"{end}{text(s)}\n    {verb} ")
            subject, predicate, end = s, p, " .\n"
        out.append(text(o))
    out.append(end)
    return "".join(out)
