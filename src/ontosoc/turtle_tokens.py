"""Turtle's token path: a recursive-descent parser over a scanner.

`turtle.parse_turtle` imports this module on its first fallback, when
the whole-document reader leaves a text to it, and `sparql` imports it
to read queries; so a command whose input the reader reads whole never
compiles it.

The scanner is one pattern with a named group per token kind, matched
at the offset where the last token ended; it is compiled on the path's
first use.  A token carries its offset; only a ParseError turns an
offset into a line (one plus the newlines before it) and a column (the
offset from the line start, plus one), and takes that line as its
snippet.  The parser keeps each prefixed name's IRI until the next
@prefix.  `sparql._QueryParser` subclasses it, supplying its own
scanner (this one with the query's punctuation and variables) and its
own error, QueryError, a ParseError, and reads every term of a query
with the term rules here.
"""

from __future__ import annotations

import re
from functools import cache
from urllib.parse import urljoin

from .rdf import (
    XSD_INTEGER,
    Blank,
    EscapeError,
    Iri,
    Literal,
    Term,
    TermError,
    UndeclaredPrefixError,
    unescape,
)
from .turtle import _BLANK, _INTEGER, _IRI_CHAR, _LANGTAG, _PNAME, _RDF_TYPE, Document, ParseError

_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")

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
