"""Turtle subset reader and writer.

Covers what the schema, alignment and corpus files need: @prefix/@base,
the `a` keyword, `;` predicate lists, `,` object lists, IRIs, prefixed
names, string literals with language tags or datatype annotations,
integers, labeled blank nodes and comments.  Collections and anonymous
blank nodes are deliberately out.

The lexer matches precompiled patterns at an offset into the text, never
on a slice, and tracks the current line and the offset where it starts:
only the whitespace between tokens is counted for newlines, and a column
is the offset from the line start, plus one.  The text is split into
lines only to give a ParseError its snippet.

The serializer emits a byte-stable layout: prefix declarations first,
subjects sorted lexically, predicates and objects sorted within each
subject block.  Serializer output always re-parses to an equal graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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
    term_key,
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


@dataclass
class Document:
    graph: Graph = field(default_factory=Graph)
    prefixes: PrefixMap = field(default_factory=PrefixMap)
    base: Optional[str] = None


_PN_LOCAL = re.compile(r"[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?$|^$")
_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
# a string literal's body runs to the first unescaped quote or raw newline
_STRING_BODY = re.compile(r'(?:[^"\\\n]|\\[\s\S])*')


@dataclass
class _Token:
    kind: str
    value: str
    line: int
    column: int


# whitespace and comments between tokens
_GAP = re.compile(r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*")
_IRIREF = re.compile(r"<([^>\n]*)>")
_AT_WORD = re.compile(r"@([A-Za-z][A-Za-z0-9\-]*)")
# a trailing '.' belongs to the statement, not the label
_BLANK_LABEL = re.compile(r"_:([A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?)")
# tried in this order: integer, prefixed name, bare word
_BARE = re.compile(
    r"(?P<integer>[+-]?[0-9]+)"
    r"|(?P<pname>(?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_][A-Za-z0-9_\-]*)?)"
    r"|(?P<word>[A-Za-z][A-Za-z0-9_]*)"
)


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.line_start = 0  # offset of the current line's first character

    def error(self, message: str, line: int, col: int) -> ParseError:
        lines = self.text.split("\n")
        snippet = lines[line - 1] if 0 < line <= len(lines) else ""
        return ParseError(line, col, message, snippet)

    def _token(self, kind: str, value: str, end: int, line: int, col: int) -> _Token:
        self.pos = end  # no token spans a newline
        return _Token(kind, value, line, col)

    def next(self) -> _Token:
        text, pos = self.text, self.pos
        end = _GAP.match(text, pos).end()
        newlines = text.count("\n", pos, end)
        if newlines:
            self.line += newlines
            self.line_start = text.rfind("\n", pos, end) + 1
        self.pos = pos = end
        line, col = self.line, pos - self.line_start + 1
        if pos >= len(text):
            return _Token("eof", "", line, col)
        ch = text[pos]

        if ch == "<":
            m = _IRIREF.match(text, pos)
            if not m:
                raise self.error("unterminated IRI", line, col)
            return self._token("iriref", m.group(1), m.end(), line, col)

        if ch == '"':
            return self._string(line, col)

        if ch in ".,;":
            return self._token(ch, ch, pos + 1, line, col)

        if ch == "^" and text.startswith("^^", pos):
            return self._token("^^", "^^", pos + 2, line, col)

        if ch == "@":
            m = _AT_WORD.match(text, pos)
            if not m:
                raise self.error("bad '@' token", line, col)
            word = m.group(1)
            if word in ("prefix", "base"):
                return self._token("@" + word, word, m.end(), line, col)
            return self._token("langtag", word, m.end(), line, col)

        if ch == "_" and text.startswith("_:", pos):
            m = _BLANK_LABEL.match(text, pos)
            if not m:
                raise self.error("bad blank node label", line, col)
            return self._token("blank", m.group(1), m.end(), line, col)

        m = _BARE.match(text, pos)
        if m:
            return self._token(m.lastgroup, m.group(0), m.end(), line, col)

        raise self.error(f"unexpected character {ch!r}", line, col)

    def _string(self, line: int, col: int) -> _Token:
        start = self.pos + 1
        end = _STRING_BODY.match(self.text, start).end()
        closed = self.text.startswith('"', end)
        try:  # a bad escape is reported before a missing closing quote
            value = unescape(self.text[start : end if closed else end + 1])
        except EscapeError as exc:
            raise self.error(exc.message, line, col + 1 + exc.offset) from None
        if not closed:
            raise self.error("unterminated string literal", line, col)
        return self._token("string", value, end + 1, line, col)


class _Parser:
    def __init__(self, text: str, base: Optional[str] = None):
        self.lexer = _Lexer(text)
        self.doc = Document(base=base)
        self.iris: dict[str, Iri] = {}  # each distinct IRI string is built and checked once
        self.tok = self.lexer.next()

    def _next(self) -> None:
        self.tok = self.lexer.next()

    def _expect(self, kind: str) -> _Token:
        if self.tok.kind != kind:
            raise self.lexer.error(
                f"expected {kind!r}, found {self.tok.value!r}" if self.tok.value else f"expected {kind!r}, found end of input",
                self.tok.line,
                self.tok.column,
            )
        tok = self.tok
        self._next()
        return tok

    def parse(self) -> Document:
        while self.tok.kind != "eof":
            if self.tok.kind == "@prefix":
                self._next()
                label_tok = self._expect("pname")
                if not label_tok.value.endswith(":"):
                    raise self.lexer.error("prefix label must end with ':'", label_tok.line, label_tok.column)
                ns = self._expect("iriref")
                self.doc.prefixes.declare(label_tok.value[:-1], self._resolve(ns.value))
                self._expect(".")
            elif self.tok.kind == "@base":
                self._next()
                iri = self._expect("iriref")
                self.doc.base = self._resolve(iri.value)
                self._expect(".")
            else:
                self._triples()
                self._expect(".")
        return self.doc

    def _resolve(self, iri: str) -> str:
        if _SCHEME.match(iri) or not self.doc.base:
            return iri
        return urljoin(self.doc.base, iri)

    def _triples(self) -> None:
        subject = self._subject()
        self._predicate_object_list(subject)

    def _predicate_object_list(self, subject: Term) -> None:
        while True:
            predicate = self._verb()
            while True:
                obj = self._object()
                try:
                    self.doc.graph.add(Triple(subject, predicate, obj))
                except TermError as exc:
                    raise self.lexer.error(str(exc), self.tok.line, self.tok.column)
                if self.tok.kind == ",":
                    self._next()
                    continue
                break
            if self.tok.kind == ";":
                while self.tok.kind == ";":
                    self._next()
                if self.tok.kind == ".":  # trailing semicolon
                    return
                continue
            return

    def _subject(self) -> Term:
        tok = self.tok
        if tok.kind == "iriref":
            self._next()
            return self._iri(self._resolve(tok.value), tok)
        if tok.kind == "pname":
            self._next()
            return self._expand(tok)
        if tok.kind == "blank":
            self._next()
            return Blank(tok.value)
        raise self.lexer.error(
            f"expected subject, found {tok.value!r}" if tok.value else "expected subject, found end of input",
            tok.line,
            tok.column,
        )

    def _verb(self) -> Iri:
        tok = self.tok
        if tok.kind == "word" and tok.value == "a":
            self._next()
            return self._iri(RDF_TYPE, tok)
        if tok.kind == "iriref":
            self._next()
            return self._iri(self._resolve(tok.value), tok)
        if tok.kind == "pname":
            self._next()
            return self._expand(tok)
        raise self.lexer.error(
            f"expected predicate, found {tok.value!r}" if tok.value else "expected predicate, found end of input",
            tok.line,
            tok.column,
        )

    def _object(self) -> Term:
        tok = self.tok
        if tok.kind == "iriref":
            self._next()
            return self._iri(self._resolve(tok.value), tok)
        if tok.kind == "pname":
            self._next()
            return self._expand(tok)
        if tok.kind == "blank":
            self._next()
            return Blank(tok.value)
        if tok.kind == "integer":
            self._next()
            return Literal(tok.value, datatype=XSD_INTEGER)
        if tok.kind == "string":
            self._next()
            if self.tok.kind == "langtag":
                lang = self.tok.value
                self._next()
                return Literal(tok.value, language=lang)
            if self.tok.kind == "^^":
                self._next()
                dt_tok = self.tok
                if dt_tok.kind == "iriref":
                    self._next()
                    return Literal(tok.value, datatype=self._resolve(dt_tok.value))
                if dt_tok.kind == "pname":
                    self._next()
                    return Literal(tok.value, datatype=self._expand(dt_tok).value)
                raise self.lexer.error("expected datatype IRI", dt_tok.line, dt_tok.column)
            return Literal(tok.value)
        raise self.lexer.error(
            f"expected object, found {tok.value!r}" if tok.value else "expected object, found end of input",
            tok.line,
            tok.column,
        )

    def _iri(self, value: str, tok: _Token) -> Iri:
        """The parse's one Iri for ``value``; a malformed IRI is a
        ParseError at ``tok``."""
        iri = self.iris.get(value)
        if iri is None:
            try:
                iri = self.iris[value] = Iri(value)
            except TermError as exc:
                raise self.lexer.error(str(exc), tok.line, tok.column) from None
        return iri

    def _expand(self, tok: _Token) -> Iri:
        label, _, local = tok.value.partition(":")
        try:
            namespace = self.doc.prefixes.namespace(label)
        except UndeclaredPrefixError as exc:
            raise self.lexer.error(str(exc), tok.line, tok.column) from None
        return self._iri(namespace + local, tok)


def parse_turtle(text: str, base: Optional[str] = None) -> Document:
    """Parse Turtle text; raises ParseError at the first offense."""
    return _Parser(text, base=base).parse()


def _compress(iri: Iri, prefixes: PrefixMap) -> str:
    best_label, best_ns = None, ""
    for label, ns in prefixes.items():
        if iri.value.startswith(ns) and len(ns) > len(best_ns):
            local = iri.value[len(ns) :]
            if _PN_LOCAL.match(local) and "." not in local:
                best_label, best_ns = label, ns
    if best_label is None:
        return iri.n3()
    return f"{best_label}:{iri.value[len(best_ns):]}"


def _render(term: Term, prefixes: PrefixMap) -> str:
    if isinstance(term, Iri):
        return _compress(term, prefixes)
    if isinstance(term, Literal) and term.datatype not in (None, XSD_STRING) and term.language is None:
        return f'"{term.lexical}"^^{_compress(Iri(term.datatype), prefixes)}' if '"' not in term.lexical and "\\" not in term.lexical and "\n" not in term.lexical else term.n3()
    return term.n3()


def serialize_turtle(doc: Document) -> str:
    """Write a Document as Turtle with a deterministic layout."""
    out = []
    for label, ns in sorted(doc.prefixes.items()):
        out.append(f"@prefix {label}: <{ns}> .")
    if out:
        out.append("")

    by_subject: dict[str, tuple[Term, list[Triple]]] = {}
    for t in doc.graph:
        key = term_key(t.subject)
        by_subject.setdefault(key, (t.subject, []))[1].append(t)

    for key in sorted(by_subject):
        subject, triples = by_subject[key]
        pairs = sorted(
            {(term_key(t.predicate), term_key(t.object), t.predicate, t.object) for t in triples}
        )
        lines = []
        current_pred = None
        for _, _, pred, obj in pairs:
            if pred != current_pred:
                lines.append((pred, [obj]))
                current_pred = pred
            else:
                lines[-1][1].append(obj)
        rendered = []
        for pred, objs in lines:
            pred_txt = "a" if pred.value == RDF_TYPE else _render(pred, doc.prefixes)
            obj_txt = ", ".join(_render(o, doc.prefixes) for o in objs)
            rendered.append(f"    {pred_txt} {obj_txt}")
        out.append(_render(subject, doc.prefixes) + "\n" + " ;\n".join(rendered) + " .")
    return "\n".join(out) + ("\n" if out else "")
