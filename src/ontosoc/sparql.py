"""A small SPARQL subset: PREFIX, SELECT (variables or *), basic graph
patterns, OPTIONAL, FILTER (in)equality, ORDER BY, LIMIT and OFFSET.

Evaluation is deliberately simple: patterns join left to right with
index-backed matching, each OPTIONAL is a left outer join, and filters
run innermost group first.  Rows stream through these steps in
nested-loop order, pulled by the consumer as in Graefe's Volcano, so
without ORDER BY the joins stop at OFFSET + LIMIT rows.  Bag semantics;
no DISTINCT.  ORDER BY collects every row and sorts by a fixed total
order over terms: unbound < blank < IRI < literal, lexical within each.

Unsupported query forms (CONSTRUCT, ASK, DESCRIBE, UNION, property
paths, ...) are rejected with a named error rather than misparsed, and
so are groups nested deeper than `MAX_GROUP_DEPTH`.

Parsing runs on Turtle's token path: `_QueryParser` is a
`turtle._Parser` whose scanner is Turtle's with the punctuation
`{ } ( ) = * !=` and a group for variables.  Each term slot is read by
the Turtle rule for its position, and PREFIX declares into the prefix
map and name cache that @prefix uses, so IRIs, prefixed names, blank
labels, literals, escapes and datatypes are read, checked and
positioned as Turtle reads them.  A query is scanned as it is parsed,
so its first offense is the one reported, as a QueryError: a
ParseError with a line, a column and a message.
"""

from __future__ import annotations

import json
import re
import sys
from functools import cache, partial
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .rdf import XSD_STRING, Blank, Graph, Iri, PrefixMap, Term
from .turtle import ParseError, _Parser, _token_pattern


# Parsing and evaluating a query take a frame per nested group, so this
# bound keeps any query that parses well inside Python's default limit of
# 1,000 frames, also on a server thread's deeper stack.
MAX_GROUP_DEPTH = 700


class QueryError(ParseError):
    """Query syntax or unsupported-feature error with source position."""


class Var(NamedTuple):
    name: str


Slot = Union[Term, Var]


class TriplePattern(NamedTuple):
    subject: Slot
    predicate: Slot  # IRI or variable
    object: Slot

    def variables(self) -> set[str]:
        return {s.name for s in (self.subject, self.predicate, self.object) if isinstance(s, Var)}


class Filter(NamedTuple):
    left: Slot
    op: str  # "=" or "!="
    right: Slot


# Each list default is one list that every record built without it shares:
# only the parser appends, and only to lists it made.
class GroupPattern(NamedTuple):
    required: list[TriplePattern] = []
    optionals: list[GroupPattern] = []
    filters: list[Filter] = []


class QueryAST(NamedTuple):
    prefixes: PrefixMap
    projection: Optional[list[str]]  # None means SELECT *
    pattern: GroupPattern
    order_by: list[tuple[str, bool]] = []  # (var, ascending)
    limit: Optional[int] = None
    offset: Optional[int] = None
    warnings: list[str] = []


_UNSUPPORTED = {
    "CONSTRUCT", "ASK", "DESCRIBE", "INSERT", "DELETE", "UNION", "MINUS",
    "GRAPH", "SERVICE", "BIND", "VALUES", "GROUP", "HAVING", "EXISTS",
    "DISTINCT", "REDUCED",
}


@cache
def _scanner() -> re.Pattern:
    """Turtle's scanner with the query's punctuation and variables."""
    return re.compile(_token_pattern(r"[.,;{}()=*]|!=", r"| (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)"), re.VERBOSE)


class _QueryParser(_Parser):
    """The query grammar over Turtle's tokens and term rules."""

    scanner = staticmethod(_scanner)
    Error = QueryError

    def _keyword(self) -> Optional[str]:
        return self.value.upper() if self.kind == "word" else None

    def _var(self) -> str:
        """The current variable's name."""
        name = self.value[1:]
        self._next()
        return name

    def parse(self) -> QueryAST:
        prefixes = self.doc.prefixes
        while self._keyword() == "PREFIX":
            self._next()
            if self.kind != "pname" or not self.value.endswith(":"):
                raise self.error("expected prefix label", self.at)
            label = self.value[:-1]
            self._next()
            if self.kind != "iriref":
                raise self.error("expected namespace IRI", self.at)
            if self.value:  # an empty namespace fails where it is used
                self._iri(self.value, self.at)
            prefixes[label] = self.value
            self._next()

        kw = self._keyword()
        if kw in _UNSUPPORTED:
            raise self.error(f"unsupported query form: {kw}", self.at)
        if kw != "SELECT":
            raise self.error("expected SELECT", self.at)
        self._next()

        kw = self._keyword()
        if kw in ("DISTINCT", "REDUCED"):
            raise self.error(f"unsupported modifier: {kw}", self.at)

        projection: Optional[list[str]]
        if self.kind == "*":
            self._next()
            projection = None
        else:
            projection = []
            while self.kind == "var":
                projection.append(self._var())
            if not projection:
                raise self.error("expected projection variables or *", self.at)

        if self._keyword() != "WHERE":
            raise self.error("expected WHERE", self.at)
        self._next()
        pattern = self._group()

        order_by: list[tuple[str, bool]] = []
        if self._keyword() == "ORDER":
            self._next()
            if self._keyword() != "BY":
                raise self.error("expected BY after ORDER", self.at)
            self._next()
            while True:
                if self.kind == "var":
                    order_by.append((self._var(), True))
                elif self._keyword() in ("ASC", "DESC"):
                    ascending = self._keyword() == "ASC"
                    self._next()
                    self._expect("(")
                    if self.kind != "var":
                        raise self.error("expected variable in ORDER BY", self.at)
                    order_by.append((self._var(), ascending))
                    self._expect(")")
                else:
                    break
            if not order_by:
                raise self.error("expected sort condition after ORDER BY", self.at)

        limit = offset = None
        while self._keyword() in ("LIMIT", "OFFSET"):
            kw = self._keyword()
            self._next()
            if self.kind != "integer" or self.value.startswith("-"):
                raise self.error(f"expected non-negative integer after {kw}", self.at)
            # only a bound: past sys.maxsize, which `islice` refuses, it acts as
            # sys.maxsize; past 19 digits it goes unconverted (`int` takes 4,300)
            digits = self.value.lstrip("+0")
            value = min(int(digits or "0"), sys.maxsize) if len(digits) < 20 else sys.maxsize
            self._next()
            if kw == "LIMIT":
                limit = value
            else:
                offset = value

        if self.kind != "eof":
            raise self.error(f"unexpected trailing input: {self.text[self.at : self.end]!r}", self.at)

        warnings = []
        if projection is not None:
            pattern_vars = set(_vars_in_appearance_order(pattern))
            warnings = [
                f"projected variable ?{name} is never bound" for name in projection if name not in pattern_vars
            ]
        return QueryAST(prefixes, projection, pattern, order_by, limit, offset, warnings)

    def _group(self, depth: int = 1) -> GroupPattern:
        if depth > MAX_GROUP_DEPTH:
            raise self.error(f"groups nested deeper than {MAX_GROUP_DEPTH}", self.at)
        self._expect("{")
        group = GroupPattern([], [], [])
        while True:
            kind = self.kind
            if kind == "}":
                self._next()
                return group
            kw = self._keyword()
            if kw == "OPTIONAL":
                self._next()
                group.optionals.append(self._group(depth + 1))
            elif kw == "FILTER":
                self._next()
                group.filters.append(self._filter())
            elif kw in _UNSUPPORTED:
                raise self.error(f"unsupported feature: {kw}", self.at)
            elif kind == "{":
                # A bare nested group only occurs in alternation; name it.
                self._group(depth + 1)
                if self._keyword() == "UNION":
                    raise self.error("unsupported feature: UNION", self.at)
                raise self.error("unsupported feature: nested group pattern", self.at)
            elif kind == "eof":
                raise self.error("unexpected end of input inside group", self.at)
            else:
                subject = self._slot(self._subject)
                predicate = self._slot(self._verb)
                group.required.append(TriplePattern(subject, predicate, self._slot(self._object)))
                if self.kind == ".":
                    self._next()

    def _filter(self) -> Filter:
        self._expect("(")
        left = self._slot(self._object)
        op = self.kind
        if op not in ("=", "!="):
            raise self.error("expected = or != in FILTER", self.at)
        self._next()
        right = self._slot(self._object)
        self._expect(")")
        return Filter(left, op, right)

    def _slot(self, term: Callable[[], Term]) -> Slot:
        """A variable, or the term that ``term``, the Turtle rule for the
        slot's position, reads."""
        if self.kind == "var":
            return Var(self._var())
        if self.kind == "word" and self.value.upper() in _UNSUPPORTED:
            raise self.error(f"unsupported feature: {self.value.upper()}", self.at)
        return term()


def parse_query(text: str) -> QueryAST:
    """Parse a query; raises QueryError with line/column on failure."""
    return _QueryParser(text).parse()


# ---------------------------------------------------------------------------
# evaluation

Row = dict  # variable name -> Term


class SolutionTable(NamedTuple):
    header: list[str]
    rows: list[Row]

    def render_text(self) -> str:
        cells = [[("?" + v) for v in self.header]]
        for row in self.rows:
            cells.append([row[v].n3() if v in row else "" for v in self.header])
        widths = [max(len(r[i]) for r in cells) for i in range(len(self.header))] if self.header else []
        lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells]
        return "\n".join(lines)


def _term_order_key(term: Optional[Term]) -> tuple:
    if term is None:
        return (0, "", "", "")
    if isinstance(term, Blank):
        return (1, term.label, "", "")
    if isinstance(term, Iri):
        return (2, term.value, "", "")
    return (3, term.lexical, term.datatype or "", term.language or "")


def _substitute(slot: Slot, row: Row) -> Optional[Term]:
    if isinstance(slot, Var):
        return row.get(slot.name)
    return slot


def _matches(pattern: TriplePattern, graph: Graph, row: Row) -> Iterator[Row]:
    """``row`` extended with each triple ``pattern`` matches under it."""
    slots = s, p, o = pattern.subject, pattern.predicate, pattern.object
    for t in graph.match(_substitute(s, row), _substitute(p, row), _substitute(o, row)):
        extended = dict(row)
        for slot, value in zip(slots, t):
            if isinstance(slot, Var):
                bound = extended.get(slot.name)
                if bound is None:
                    extended[slot.name] = value
                elif bound != value:
                    break  # a repeated variable meets two terms
        else:
            yield extended


def _filter_row(filters: list[Filter], row: Row) -> list[Row]:
    """``[row]`` if every filter holds for it, else ``[]``."""
    for flt in filters:
        left = _substitute(flt.left, row)
        right = _substitute(flt.right, row)
        if left is None or right is None or (left == right) != (flt.op == "="):
            return []  # an unbound side is an error, which eliminates the solution
    return [row]


def _steps(group: GroupPattern, graph: Graph) -> list:
    """The steps of ``group``: per pattern, a function from a row to its
    extensions; per OPTIONAL, its own steps (a list: a left join); then one
    for the FILTERs."""
    steps: list = [partial(_matches, pattern, graph) for pattern in group.required]
    for optional in group.optionals:  # a comprehension would add a frame per nested group
        steps.append(_steps(optional, graph))
    if group.filters:
        steps.append(partial(_filter_row, group.filters))
    return steps or [lambda row: (row,)]  # an empty group passes each row on


def _nested_loops(rows: Iterable[Row], steps: list) -> Iterator[Row]:
    """Each row extended through every step, depth first, as pulled.  The
    loops' iterators sit on a list, so steps add no frames; each nested
    OPTIONAL adds one, as parsing it does."""
    depth = len(steps)
    loops = [iter(rows)]
    while loops:
        for row in loops[-1]:
            step = steps[len(loops) - 1]
            if isinstance(step, list):  # an OPTIONAL: its extensions, or the row alone
                extensions = list(_nested_loops((row,), step)) or [row]
            else:
                extensions = step(row)
            if len(loops) == depth:
                yield from extensions
            else:
                loops.append(iter(extensions))
                break
        else:
            loops.pop()


def _eval_group(group: GroupPattern, graph: Graph, rows: Iterable[Row]) -> Iterator[Row]:
    return _nested_loops(rows, _steps(group, graph))


def evaluate(ast: QueryAST, graph: Graph) -> SolutionTable:
    """Run a parsed query against a graph."""
    rows = _eval_group(ast.pattern, graph, [{}])
    for var, ascending in reversed(ast.order_by):
        rows = sorted(rows, key=lambda r: _term_order_key(r.get(var)), reverse=not ascending)

    if ast.projection is None:
        header = _vars_in_appearance_order(ast.pattern)
    else:
        header = list(ast.projection)
    start = ast.offset or 0
    stop = min(start + ast.limit, sys.maxsize) if ast.limit is not None else None
    projected = [{v: row[v] for v in header if v in row} for row in islice(rows, start, stop)]
    return SolutionTable(header, projected)


def _vars_in_appearance_order(group: GroupPattern) -> list[str]:
    slots = [slot for tp in group.required for slot in (tp.subject, tp.predicate, tp.object)]
    names = [slot.name for slot in slots if isinstance(slot, Var)]
    for optional in group.optionals:
        names += _vars_in_appearance_order(optional)
    return list(dict.fromkeys(names))


_quote = json.encoder.encode_basestring_ascii  # json.dumps's own string encoder, in C
_FIELD = ",\n          "  # between the fields of a binding object


def _json_term(term: Term) -> str:
    """A term's binding object, as nested in `to_json_results`."""
    if isinstance(term, Iri):
        fields = f'"type": "uri"{_FIELD}"value": {_quote(term.value)}'
    elif isinstance(term, Blank):
        fields = f'"type": "bnode"{_FIELD}"value": {_quote(term.label)}'
    else:
        fields = f'"type": "literal"{_FIELD}"value": {_quote(term.lexical)}'
        if term.language is not None:
            fields += f'{_FIELD}"xml:lang": {_quote(term.language)}'
        elif term.datatype is not None and term.datatype != XSD_STRING:
            fields += f'{_FIELD}"datatype": {_quote(term.datatype)}'
    return f"{{\n          {fields}\n        }}"


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n    ]" if items else "[]"


def to_json_results(table: SolutionTable) -> str:
    """Standard SPARQL JSON results rendering.

    The text is what ``json.dumps(..., indent=2)`` makes of the results
    object, written directly: with an indent, `json` always runs its
    pure-Python encoder."""
    keys = {var: f"        {_quote(var)}: " for var in table.header}  # a repeated variable binds once
    rows = []
    for row in table.rows:
        entries = [key + _json_term(row[var]) for var, key in keys.items() if var in row]
        rows.append("      {\n" + ",\n".join(entries) + "\n      }" if entries else "      {}")
    variables = _json_list([f"      {_quote(var)}" for var in table.header])
    return (
        f'{{\n  "head": {{\n    "vars": {variables}\n  }},\n'
        f'  "results": {{\n    "bindings": {_json_list(rows)}\n  }}\n}}'
    )


# ---------------------------------------------------------------------------
# printer (round-trips through parse_query)


def _print_slot(slot: Slot) -> str:
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
