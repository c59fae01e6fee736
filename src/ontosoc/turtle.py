"""Turtle subset reader and writer.

Covers what the schema, alignment and corpus files need: @prefix/@base,
the `a` keyword, `;` predicate lists, `,` object lists, IRIs, prefixed
names, string literals with language tags or datatype annotations,
integers, labeled blank nodes and comments.  Collections and anonymous
blank nodes are deliberately out.

The lexer is one compiled pattern with a named group per token kind,
matched at the offset where the last token ended.  A token carries its
offset; only a ParseError turns an offset into a line (one plus the
newlines before it) and a column (the offset from the line start, plus
one), and takes that line as its snippet.

Most of a data file is `verb object punct` units: `ex:p ex:o ;`.  The
parser reads such a unit with a second pattern, the fused unit, in one
match after a subject, a ';' or a ','.  The unit covers prefixed names,
`a` and IRIREFs, built from the scanner's own token patterns, so it
reads the tokens the scanner would.  A unit that does not match (a
literal, a blank node, a fault), or whose names do not resolve, is read
again token by token, and only that path raises a ParseError, so the
errors, their order and their positions are the scanner's.

The parser keeps each prefixed name's IRI until the next @prefix, and
builds its terms through the hash-consing constructors, so a term
occurring many times is one object.  It collects the triples and hands
them to the graph in one `Graph.bulk_insert`, which skips the checks its
grammar already makes.

The serializer emits a byte-stable layout: prefix declarations first,
subjects sorted lexically, predicates and objects sorted within each
subject block.  Every literal is written with the escapes of its N3
string, so `rdf._escape` is the one encoder.  Serializer output always
re-parses to an equal graph.
"""

from __future__ import annotations

import re
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


class Document:
    """A Turtle file's content: its graph, its prefixes and its base."""

    __slots__ = ("graph", "prefixes", "base")

    def __init__(self, graph: Optional[Graph] = None, prefixes: Optional[PrefixMap] = None, base: Optional[str] = None):
        self.graph = Graph() if graph is None else graph
        self.prefixes = PrefixMap() if prefixes is None else prefixes
        self.base = base

    def __repr__(self) -> str:
        return f"Document(graph={self.graph!r}, prefixes={self.prefixes!r}, base={self.base!r})"


_PN_LOCAL = re.compile(r"[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?$|^$")
_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")

# Token patterns the scanner and the fused unit share.
_GAP = r"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*"
_PNAME = r"(?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_][A-Za-z0-9_\-]*)?"
_IRI_BODY = r"[^>\n]*"  # between < and >

# One scanner: the gap of whitespace and comments, then one named group
# per token kind, tried in order.  The last five groups catch what no
# token matches, so every scan succeeds and names its error.  The gap is
# atomic, so no token can start inside a comment and a comment's words
# are never lexed: a lookahead captures the gap once and the
# backreference consumes it without backtracking (`(?>...)` would need
# Python 3.11).
_TOKEN = re.compile(
    rf"""
    (?=(?P<gap>{_GAP}))(?P=gap)
    (?:
      (?P<pname>{_PNAME})
    | (?P<punct>[.,;])
    | (?P<iriref><{_IRI_BODY}>)
    | (?P<string>"(?:[^"\\\n]|\\[\s\S])*")
    | (?P<at>@[A-Za-z][A-Za-z0-9\-]*)
    | (?P<dtype>\^\^)
    | (?P<blank>_:[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?)  # a trailing '.' ends the statement
    | (?P<integer>[+-]?[0-9]+)
    | (?P<word>[A-Za-z][A-Za-z0-9_]*)
    | (?P<eof>\Z)
    | (?P<open_string>"(?:[^"\\\n]|\\[\s\S])*)
    | (?P<open_iri><)
    | (?P<bad_at>@)
    | (?P<bad_blank>_:)
    | (?P<unexpected>[\s\S])
    )
    """,
    re.VERBOSE,
)

# The fused unit: an optional verb (a prefixed name, `a` or an IRIREF),
# an object (a prefixed name or an IRIREF) and the punct after it, each
# after its gap, in one match.  Each piece is the scanner's own pattern;
# a name must not be followed by a character that would lengthen it or
# start a prefixed name, so when the unit matches, the scanner would
# read the same tokens at the same offsets.  Each gap is atomic, as in
# `_TOKEN`.
_NAME_END = r"(?![A-Za-z0-9_\-:])"
_UNIT = re.compile(
    rf"""
    (?=(?P<gap1>{_GAP}))(?P=gap1)
    (?:
      (?: (?P<vname>{_PNAME}){_NAME_END} | (?P<a>a){_NAME_END} | <(?P<viri>{_IRI_BODY})> )
      (?=(?P<gap2>{_GAP}))(?P=gap2)
    )?
    (?: (?P<oname>{_PNAME}){_NAME_END} | <(?P<oiri>{_IRI_BODY})> )
    (?=(?P<gap3>{_GAP}))(?P=gap3)
    (?P<punct>[.,;])
    """,
    re.VERBOSE,
)
_SCAN_ERRORS = {
    "open_iri": "unterminated IRI",
    "bad_at": "bad '@' token",
    "bad_blank": "bad blank node label",
}


class _Parser:
    """A recursive-descent parser over the scanner's tokens, with a fused
    fast path for the common `verb object punct` unit.

    The current token is ``kind``, ``value`` and ``at``, its offset into
    the text, and ``end``, where the next token's gap starts; a line and
    column are computed from an offset only for a ParseError.
    """

    def __init__(self, text: str, base: Optional[str] = None):
        self.text = text
        self.doc = Document(base=base)
        self.triples: list[tuple[Term, Iri, Term]] = []  # what the statements state, in order
        self.pnames: dict[str, Iri] = {}  # prefixed name -> its IRI; emptied by each @prefix
        self.end = 0
        self._next()

    def error(self, message: str, at: int) -> ParseError:
        """A ParseError at offset ``at``, with its line as the snippet."""
        text = self.text
        line_start = text.rfind("\n", 0, at) + 1
        line_end = text.find("\n", at)
        snippet = text[line_start : None if line_end == -1 else line_end]
        return ParseError(text.count("\n", 0, at) + 1, at - line_start + 1, message, snippet)

    def _next(self) -> None:
        m = _TOKEN.match(self.text, self.end)
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
        shown = f"{self.value!r}" if self.value else "end of input"
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
                self.doc.prefixes.declare(label[:-1], self._resolve(ns))
                self.pnames.clear()
                self._expect(".")
            elif self.kind == "@base":
                self._next()
                self.doc.base = self._resolve(self._expect("iriref"))
                self._expect(".")
            else:
                self._triples()
        # the grammar admits no literal subject and only IRI verbs
        self.doc.graph.bulk_insert(self.triples)
        return self.doc

    def _resolve(self, iri: str) -> str:
        if _SCHEME.match(iri) or not self.doc.base:
            return iri
        return urljoin(self.doc.base, iri)

    def _triples(self) -> None:
        """A subject and its predicate-object list, through the closing '.'.

        On entry the current token is the subject; at the top of the loop
        it is the subject, a ';' or a ','.  Each turn first reads the unit
        after it with `_UNIT`; a unit that does not match, or whose terms
        do not resolve, is read again by the token path, which raises
        every ParseError.  A unit is resolved only once its closing punct
        is matched, as the token path scans each token before it resolves
        the one before, so both paths meet each error in the same order.
        """
        text, append, unit, pnames = self.text, self.triples.append, _UNIT.match, self.pnames
        subject = predicate = None
        while True:
            m = unit(text, self.end)
            if m is not None:
                _, vname, vtype, viri, _, oname, oiri, _, punct = m.groups()  # gaps unused
                listing = self.kind == ","  # then an object alone follows, else a verb too
                if (vname is None and vtype is None and viri is None) == listing:
                    s = subject or self._quiet_subject()
                    if listing:
                        p = predicate
                    else:
                        p = _RDF_TYPE if vtype else pnames.get(vname) or self._quiet_iri(vname, viri)
                    o = pnames.get(oname) or self._quiet_iri(oname, oiri)
                    if s and p and o:
                        subject, predicate = s, p
                        append((s, p, o))
                        self.kind = self.value = punct
                        self.at, self.end = m.start("punct"), m.end()
                        if punct == ".":
                            self._next()
                            return
                        continue
            # the token path, for one verb and its object list
            if subject is None:
                subject = self._subject()
                predicate = self._verb()
            elif self.kind == ",":
                self._next()
            else:  # a run of ';'
                while self.kind == ";":
                    self._next()
                if self.kind == ".":  # trailing semicolon
                    break
                predicate = self._verb()
            append((subject, predicate, self._object()))
            if self.kind != "," and self.kind != ";":
                break
        self._expect(".")

    def _quiet_iri(self, pname: Optional[str], iriref: Optional[str]) -> Optional[Iri]:
        """The IRI of a prefixed name or IRIREF body read by `_UNIT`, or
        None where `_pname` or `_iriref` would raise."""
        if pname is not None:
            iri = self.pnames.get(pname)
            if iri is None:
                label, _, local = pname.partition(":")
                try:
                    iri = self.pnames[pname] = Iri(self.doc.prefixes.namespace(label) + local)
                except (UndeclaredPrefixError, TermError):
                    return None
            return iri
        if iriref is None:
            return None
        try:
            return Iri(self._resolve(iriref))
        except ValueError:
            return None

    def _quiet_subject(self) -> Optional[Term]:
        """The term of the current subject token, or None where
        `_subject` would raise or not read it."""
        kind = self.kind
        if kind == "pname":
            return self._quiet_iri(self.value, None)
        if kind == "iriref":
            return self._quiet_iri(None, self.value)
        if kind == "blank":
            return Blank(self.value)
        return None

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
            return Iri(RDF_TYPE)
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
                    datatype = self._resolve(self.value)
                    self._next()
                    return Literal(lexical, datatype=datatype)
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
                namespace = self.doc.prefixes.namespace(label)
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
    if isinstance(term, Literal) and term.datatype not in (None, XSD_STRING):
        # the N3 string ends with ^^<datatype>; what comes before it is the
        # lexical form as `rdf._escape` quotes it
        quoted = term.n3()[: -len(term.datatype) - 4]
        return f"{quoted}^^{_compress(Iri(term.datatype), prefixes)}"
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
