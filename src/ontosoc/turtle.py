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
token path parses the whole text from the start.  It leaves to the
token path a text with an escaped quote, with a whitespace character
other than space, tab, CR and LF, with a '"' inside a comment or an
IRIREF, or with `@base`; any token that does not resolve (an
undeclared prefix, a malformed IRI or escape); and any fault of the
grammar.  So the token path alone raises every ParseError.

The token path is a recursive-descent parser over a scanner, one
pattern with a named group per token kind, matched at the offset where
the last token ended; it is compiled on the path's first use.  A token
carries its offset; only a ParseError turns an offset into a line (one
plus the newlines before it) and a column (the offset from the line
start, plus one), and takes that line as its snippet.  It keeps each
prefixed name's IRI until the next @prefix.  It reads queries too:
`sparql._QueryParser` subclasses it, supplying its own scanner (this
one with the query's punctuation and variables) and its own error,
QueryError, a ParseError, and reads every term of a query with the
term rules here.

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
from functools import cache
from typing import Optional
from urllib.parse import urljoin

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


_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")

# Token patterns the scanner, the reader and the writer share.
_LOCAL = r"(?:[A-Za-z0-9_][A-Za-z0-9_\-]*)?"  # a prefixed name's local part
_PNAME = rf"(?:[A-Za-z][A-Za-z0-9_\-]*)?:{_LOCAL}"
_BLANK = r"_:[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?"  # a trailing '.' ends the statement
_INTEGER = r"[+-]?[0-9]+"
_LANGTAG = r"[A-Za-z][A-Za-z0-9\-]*"
# a character of an IRIREF: none that the IRIREF rule excludes but
# whitespace, which `Iri` reports, and no newline
_IRI_CHAR = r'[^<>"{}|^`\\\n]'

# The scanner: the gap of whitespace and comments, then one named group
# per token kind, tried in order.  `bad_iri` and the last five groups
# catch what no token matches, so every scan succeeds and names its
# error.  The gap is atomic, so no token can start inside a comment and
# a comment's words are never lexed: a lookahead captures the gap once
# and the backreference consumes it without backtracking (`(?>...)`
# would need Python 3.11).  `_scanner` compiles Turtle's on the token
# path's first use; the query parser's has more punctuation and a group
# for variables.
def _token_pattern(punct: str, more: str = "") -> str:
    """The scanner's pattern, with ``punct`` matching the punctuation
    tokens and ``more`` the further token groups, each led by '|'."""
    return rf"""
    (?=(?P<gap>[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*))(?P=gap)
    (?:
      (?P<pname>{_PNAME})
    | (?P<punct>{punct})
    {more}
    | (?P<iriref><{_IRI_CHAR}*>)
    | (?P<bad_iri><[^>\n]*>)
    | (?P<string>"(?:[^"\\\n]|\\[\s\S])*")
    | (?P<at>@{_LANGTAG})
    | (?P<dtype>\^\^)
    | (?P<blank>{_BLANK})
    | (?P<integer>{_INTEGER})
    | (?P<word>[A-Za-z][A-Za-z0-9_]*)
    | (?P<eof>\Z)
    | (?P<open_string>"(?:[^"\\\n]|\\[\s\S])*)
    | (?P<open_iri><)
    | (?P<bad_at>@)
    | (?P<bad_blank>_:)
    | (?P<unexpected>[\s\S])
    )
    """


_TOKEN = _token_pattern("[.,;]")
_SCAN_ERRORS = {
    "open_iri": "unterminated IRI",
    "bad_at": "bad '@' token",
    "bad_blank": "bad blank node label",
}


@cache
def _scanner() -> re.Pattern:
    return re.compile(_TOKEN, re.VERBOSE)


class _Parser:
    """A recursive-descent parser over the scanner's tokens.

    The current token is ``kind``, ``value`` and ``at``, its offset into
    the text, and ``end``, where the next token's gap starts; a line and
    column are computed from an offset only for a ParseError.

    A subclass may supply its own ``scanner``, whose token kinds include
    these, and its own ``Error``, a ParseError subclass.
    """

    scanner = staticmethod(_scanner)
    Error = ParseError

    def __init__(self, text: str):
        self.text = text
        self.doc = Document()
        self.base = ""  # the last @base IRI, against which relative IRIs resolve
        self.triples: list[tuple[Term, Iri, Term]] = []  # what the statements state, in order
        self.pnames: dict[str, Iri] = {}  # prefixed name -> its IRI; emptied by each @prefix
        self.end = 0
        self._scan = self.scanner().match
        self._next()

    def error(self, message: str, at: int) -> ParseError:
        """An ``Error`` at offset ``at``, with its line as the snippet."""
        text = self.text
        line_start = text.rfind("\n", 0, at) + 1
        line_end = text.find("\n", at)
        snippet = text[line_start : None if line_end == -1 else line_end]
        return self.Error(text.count("\n", 0, at) + 1, at - line_start + 1, message, snippet)

    def _next(self) -> None:
        m = self._scan(self.text, self.end)
        kind = m.lastgroup
        value = m.group(kind)
        at = m.start(kind)
        if kind == "punct":
            kind = value
        elif kind == "iriref":
            value = value[1:-1]
        elif kind == "string":
            value = self._unescape(value[1:-1], at)
        elif kind == "at":
            value = value[1:]
            kind = "@" + value if value in ("prefix", "base") else "langtag"
        elif kind == "blank":
            value = value[2:]
        elif kind == "bad_iri":
            bad = re.search(r'[<"{}|^`\\]', value[1:-1]).group()
            raise self.error(f"IRI contains {bad!r}: {value[1:-1]!r}", at)
        elif kind == "open_string":
            # a bad escape is reported before the missing closing quote
            self._unescape(self.text[at + 1 : m.end() + 1], at)
            raise self.error("unterminated string literal", at)
        elif kind == "unexpected":
            raise self.error(f"unexpected character {value!r}", at)
        elif kind in _SCAN_ERRORS:
            raise self.error(_SCAN_ERRORS[kind], at)
        self.kind, self.value, self.at, self.end = kind, value, at, m.end()

    def _unescape(self, body: str, at: int) -> str:
        """The string body at offset ``at`` + 1, unescaped."""
        try:
            return unescape(body)
        except EscapeError as exc:
            raise self.error(exc.message, at + 1 + exc.offset) from None

    def _found(self, what: str) -> ParseError:
        shown = "end of input" if self.kind == "eof" else repr(self.value)
        return self.error(f"expected {what}, found {shown}", self.at)

    def _expect(self, kind: str) -> str:
        if self.kind != kind:
            raise self._found(repr(kind))
        value = self.value
        self._next()
        return value

    def parse(self) -> Document:
        while self.kind != "eof":
            if self.kind == "@prefix":
                self._next()
                at = self.at
                label = self._expect("pname")
                if not label.endswith(":"):
                    raise self.error("prefix label must end with ':'", at)
                ns = self._expect("iriref")
                self.doc.prefixes[label[:-1]] = self._resolve(ns)
                self.pnames.clear()
                self._expect(".")
            elif self.kind == "@base":
                self._next()
                self.base = self._resolve(self._expect("iriref"))
                self._expect(".")
            else:
                self._triples()
        # the grammar admits no literal subject and only IRI verbs
        self.doc.graph.bulk_insert(self.triples)
        return self.doc

    def _resolve(self, iri: str) -> str:
        if _SCHEME.match(iri) or not self.base:
            return iri
        return urljoin(self.base, iri)

    def _triples(self) -> None:
        """A subject and its predicate-object list, through the closing '.'."""
        append = self.triples.append
        subject = self._subject()
        predicate = self._verb()
        while True:
            append((subject, predicate, self._object()))
            if self.kind == ",":
                self._next()
            elif self.kind == ";":
                while self.kind == ";":
                    self._next()
                if self.kind == ".":  # trailing semicolon
                    break
                predicate = self._verb()
            else:
                break
        self._expect(".")

    def _subject(self) -> Term:
        kind = self.kind
        if kind == "pname":
            return self._pname()
        if kind == "iriref":
            return self._iriref()
        if kind == "blank":
            term = Blank(self.value)
            self._next()
            return term
        raise self._found("subject")

    def _verb(self) -> Iri:
        kind = self.kind
        if kind == "pname":
            return self._pname()
        if kind == "word" and self.value == "a":
            self._next()
            return _RDF_TYPE
        if kind == "iriref":
            return self._iriref()
        raise self._found("predicate")

    def _object(self) -> Term:
        kind = self.kind
        if kind == "pname":
            return self._pname()
        if kind == "iriref":
            return self._iriref()
        if kind == "blank":
            term = Blank(self.value)
            self._next()
            return term
        if kind == "integer":
            term = Literal(self.value, datatype=XSD_INTEGER)
            self._next()
            return term
        if kind == "string":
            lexical = self.value
            self._next()
            if self.kind == "langtag":
                lang = self.value
                self._next()
                return Literal(lexical, language=lang)
            if self.kind == "dtype":
                self._next()
                if self.kind == "iriref":
                    return Literal(lexical, datatype=self._iriref().value)
                if self.kind == "pname":
                    return Literal(lexical, datatype=self._pname().value)
                raise self.error("expected datatype IRI", self.at)
            return Literal(lexical)
        raise self._found("object")

    # Each of these reads the current token and moves past it before it
    # resolves the token, so a scan error in the next token comes first.

    def _iriref(self) -> Iri:
        """The current iriref token's IRI, resolved against the base."""
        value, at = self.value, self.at
        self._next()
        return self._iri(self._resolve(value), at)

    def _pname(self) -> Iri:
        """The current prefixed name's IRI."""
        value, at = self.value, self.at
        self._next()
        iri = self.pnames.get(value)
        if iri is None:
            label, _, local = value.partition(":")
            try:
                namespace = self.doc.prefixes[label]
            except UndeclaredPrefixError as exc:
                raise self.error(str(exc), at) from None
            iri = self.pnames[value] = self._iri(namespace + local, at)
        return iri

    def _iri(self, value: str, at: int) -> Iri:
        """``Iri(value)``; a malformed IRI is a ParseError at offset ``at``."""
        try:
            return Iri(value)
        except TermError as exc:
            raise self.error(str(exc), at) from None


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


def _read(text: str) -> Optional[Document]:
    """The document, read in one pass over whitespace-split tokens, or
    None where the token path must read it.

    The text is cut at each '"' into code and string literal bodies, in
    turn; the code, its comments cut out, is joined with a lone '"'
    token where each literal stood, and split on whitespace.  A token
    that does not resolve where it stands ends the read; if it may have
    punctuation glued to it, the code is read once more with '.', ','
    and ';' split off the tokens they end.
    """
    if "\\" in text and '\\"' in text or any(space in text for space in _ODD_SPACES):
        return None
    parts = text.split('"')
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
    return doc if doc is not None else _Parser(text).parse()


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
