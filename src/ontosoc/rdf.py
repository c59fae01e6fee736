"""In-memory RDF model: terms, triples, prefix maps, and an indexed graph.

A prefix map is a `dict` from label to namespace whose lookup of an
undeclared label raises UndeclaredPrefixError, a KeyError.

Terms are hash-consed (Filliâtre & Conchon, "Type-Safe Modular
Hash-Consing", 2006): constructing an `Iri`, `Blank` or `Literal`
returns the one object for its value, so equality is identity and
hashing is by address, both in C, and each term's N3 string is built
once.  This plays the part of the dictionary encoding of RDF-3X
(Neumann & Weikum 2008) without changing the term API.  Each kind's
intern table is a plain dict from a value to a weak reference to its
term: a hit is one dict lookup and one call, a miss publishes the new
term with one `dict.setdefault`, and a term's death removes its entry.
A `Triple` is a tuple of three terms.

The graph holds its triples only in two permutation indexes,
subject-predicate-object and predicate-object-subject; a pattern that
binds only the object probes each predicate's POS slice.  Match results
are always returned sorted lexicographically by the N3 rendering of
(subject, predicate, object), which makes query output deterministic.
Bulk readers that sort, or need no order, read one predicate's slice of
the POS index unsorted instead, as Hexastore does (Weiss, Karras &
Bernstein 2008).

A graph is a value once shared: `Graph.union` freezes the graph it
reads and the graph it returns, and a frozen graph refuses every
mutation with FrozenGraphError, so a graph that another may hold parts
of never changes.  `Graph.copy` gives a mutable graph of the same
triples.  The union's cost grows with the triples added since the last
fold, not with the graph: the new graph is an overlay, whose own
indexes hold only those triples, over the last flat graph, its base.
This is the in-memory table of the LSM-tree (O'Neil et al., "The
Log-Structured Merge-Tree", 1996).  A reader probes both levels and
sorts once; every triple is in exactly one of them.  When an overlay
would pass FOLD_TRIPLES, the union folds it into the base by path
copying instead, and returns a flat graph, so the copy that grows with
the graph is paid once per fold.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Mapping
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import AbstractSet, Callable, Iterable, Iterator, Optional, Union
from weakref import ref

from _weakref import _remove_dead_weakref  # what WeakValueDictionary removes entries with

XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"

RDF_TYPE = RDF_NS + "type"
RDFS_SUBCLASSOF = RDFS_NS + "subClassOf"
RDFS_DOMAIN = RDFS_NS + "domain"
RDFS_RANGE = RDFS_NS + "range"
RDFS_LABEL = RDFS_NS + "label"
OWL_CLASS = OWL_NS + "Class"
OWL_OBJECT_PROPERTY = OWL_NS + "ObjectProperty"
OWL_DISJOINT_WITH = OWL_NS + "disjointWith"
OWL_EQUIVALENT_CLASS = OWL_NS + "equivalentClass"
OWL_EQUIVALENT_PROPERTY = OWL_NS + "equivalentProperty"


class TermError(ValueError):
    """Raised for malformed terms and triples."""


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


_UNESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_HEX4 = re.compile(r"[0-9A-Fa-f]{4}")


class EscapeError(ValueError):
    """A malformed escape; ``offset`` is the index of its backslash."""

    def __init__(self, offset: int, message: str):
        super().__init__(message)
        self.offset = offset
        self.message = message


def unescape(text: str) -> str:
    """Decode the string escapes shared by Turtle and SPARQL literals:
    ``\\n \\t \\r \\" \\\\`` and ``\\uXXXX``.  Inverts `_escape`."""
    out = []
    start = 0
    while (i := text.find("\\", start)) != -1:
        out.append(text[start:i])
        esc = text[i + 1 : i + 2]
        if esc in _UNESCAPES:
            out.append(_UNESCAPES[esc])
            start = i + 2
        elif esc == "u":
            if not _HEX4.fullmatch(text, i + 2, i + 6):
                raise EscapeError(i, "bad \\u escape")
            out.append(chr(int(text[i + 2 : i + 6], 16)))
            start = i + 6
        elif esc:
            raise EscapeError(i, f"unknown escape \\{esc}")
        else:
            raise EscapeError(i, "unterminated escape")
    out.append(text[start:])
    return "".join(out)


# `\s` accepts exactly the characters for which str.isspace() is true
_WHITESPACE = re.compile(r"\s")


class _Term:
    """What the three term kinds share: hash-consing and immutability.

    Each kind keeps its canonical terms in an intern table, a plain dict
    from the term's value to a weak reference to the term, so
    constructing a term returns the one object for that value.
    Equality and hashing are therefore identity, the inherited C
    versions.  A hit is a dict lookup and a call of the reference.  A
    miss builds the term and publishes it with `_intern`, whose steps
    are each one C call, atomic under the interpreter lock, so two
    threads never create twins.  When a term dies, its reference's
    callback removes the table entry, so a term that nothing references
    leaves the table.  ``_n3`` holds the term's N3 string, built once.
    """

    __slots__ = ("_n3", "__weakref__")

    def n3(self) -> str:
        return self._n3

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __copy__(self) -> "_Term":
        return self

    def __deepcopy__(self, memo: dict) -> "_Term":
        return self


class _Entry(ref):
    """An intern-table entry: a weak reference to a term that knows where it is filed."""

    __slots__ = ("table", "key")


def _forget(entry: _Entry, remove: Callable = _remove_dead_weakref) -> None:
    """The callback of a dying term's entry.  It deletes the entry only if
    it is still a dead reference, in one C call, so a live term published
    since under the same key stays.  ``remove`` is bound as a default so
    that it still runs while the interpreter exits."""
    remove(entry.table, entry.key)


def _intern(table: dict, key: object, term: "_Term") -> "_Term":
    """The term published under ``key``: ``term``, unless another thread
    published a live one first."""
    entry = _Entry(term, _forget)
    entry.table, entry.key = table, key
    while True:
        found = table.setdefault(key, entry)  # atomic: the key is a str or a tuple of them
        if found is entry:
            return term
        other = found()
        if other is not None:
            return other
        _remove_dead_weakref(table, key)  # an entry whose callback has not run yet


_IRIS: dict = {}
_BLANKS: dict = {}
_LITERALS: dict = {}
_set = object.__setattr__  # the one way to write a term's fields


class Iri(_Term):
    __slots__ = ("value",)
    value: str

    def __new__(cls, value: str) -> "Iri":
        entry = _IRIS.get(value)
        if entry is not None and (term := entry()) is not None:
            return term
        if not value:
            raise TermError("IRI must be non-empty")
        if _WHITESPACE.search(value):
            raise TermError(f"IRI contains whitespace: {value!r}")
        term = object.__new__(cls)
        _set(term, "value", value)
        _set(term, "_n3", f"<{value}>")
        return _intern(_IRIS, value, term)

    def __reduce__(self) -> tuple:
        return Iri, (self.value,)

    def __repr__(self) -> str:
        return f"Iri(value={self.value!r})"


class Blank(_Term):
    __slots__ = ("label",)
    label: str

    def __new__(cls, label: str) -> "Blank":
        entry = _BLANKS.get(label)
        if entry is not None and (term := entry()) is not None:
            return term
        if not label:
            raise TermError("blank node label must be non-empty")
        term = object.__new__(cls)
        _set(term, "label", label)
        _set(term, "_n3", f"_:{label}")
        return _intern(_BLANKS, label, term)

    def __reduce__(self) -> tuple:
        return Blank, (self.label,)

    def __repr__(self) -> str:
        return f"Blank(label={self.label!r})"


class Literal(_Term):
    __slots__ = ("lexical", "datatype", "language")
    lexical: str
    datatype: Optional[str]
    language: Optional[str]

    def __new__(cls, lexical: str, datatype: Optional[str] = None, language: Optional[str] = None) -> "Literal":
        if language is None:
            # Plain literals normalize to xsd:string; language-tagged ones stay bare.
            if datatype is None:
                datatype = XSD_STRING
        elif datatype is not None:
            raise TermError("literal may carry a datatype or a language tag, not both")
        key = (lexical, datatype, language)
        entry = _LITERALS.get(key)
        if entry is not None and (term := entry()) is not None:
            return term
        n3 = f'"{_escape(lexical)}"'
        if language is not None:
            n3 = f"{n3}@{language}"
        elif datatype != XSD_STRING:
            n3 = f"{n3}^^<{datatype}>"
        term = object.__new__(cls)
        _set(term, "lexical", lexical)
        _set(term, "datatype", datatype)
        _set(term, "language", language)
        _set(term, "_n3", n3)
        return _intern(_LITERALS, key, term)

    def __reduce__(self) -> tuple:
        return Literal, (self.lexical, self.datatype, self.language)

    def __repr__(self) -> str:
        return f"Literal(lexical={self.lexical!r}, datatype={self.datatype!r}, language={self.language!r})"


Term = Union[Iri, Blank, Literal]

# Sort key used for all deterministic term orderings: the term's N3 string.
term_key: Callable[[Term], str] = attrgetter("_n3")


class Triple(tuple):
    """A (subject, predicate, object) tuple whose constructor checks that
    the subject is no literal and the predicate an IRI."""

    __slots__ = ()

    def __new__(cls, subject: Term, predicate: Term, object: Term) -> "Triple":
        if isinstance(subject, Literal):
            raise TermError("literal may not appear in subject position")
        if not isinstance(predicate, Iri):
            raise TermError("predicate must be an IRI")
        return tuple.__new__(cls, (subject, predicate, object))

    subject = property(itemgetter(0))
    predicate = property(itemgetter(1))
    object = property(itemgetter(2))

    def sort_key(self) -> tuple:
        return (self[0]._n3, self[1]._n3, self[2]._n3)

    def n3(self) -> str:
        return f"{self[0]._n3} {self[1]._n3} {self[2]._n3} ."

    def __reduce__(self) -> tuple:
        return Triple, tuple(self)

    def __repr__(self) -> str:
        return f"Triple(subject={self[0]!r}, predicate={self[1]!r}, object={self[2]!r})"


# builds a Triple of terms a graph already holds, which passed its checks there
_stored = tuple.__new__


class UndeclaredPrefixError(KeyError):
    def __init__(self, label: str):
        super().__init__(label)
        self.label = label

    def __str__(self) -> str:
        return f"undeclared prefix: {self.label!r}"


class PrefixMap(dict):
    """Prefix label (possibly empty) to namespace IRI, in declaration
    order: a dict whose lookup of an undeclared label raises
    UndeclaredPrefixError, a KeyError."""

    __slots__ = ()

    def __missing__(self, label: str) -> str:
        raise UndeclaredPrefixError(label)


_EMPTY: dict = {}  # the default of index lookups; never written

# the most triples an overlay holds: a union that would pass it folds the
# overlay into its base instead
FOLD_TRIPLES = 4096


class FrozenGraphError(TypeError):
    """Raised on a mutation of a graph that `Graph.union` has read or returned."""


class Graph:
    """A set of triples held only in SPO and POS indexes kept in
    lockstep, with a count beside them.

    A graph is flat, or an overlay: its own indexes then hold only the
    triples added since the last fold, none of which is in ``_base``, the
    flat graph below.  There is never an overlay on an overlay.  Readers
    see one set of triples either way.  A graph is mutable until `union`
    reads it or returns it, and frozen from then on: `add`, `bulk_insert`
    and `update` raise FrozenGraphError and leave it as it was.  So an
    overlay, and every base, is frozen.

    Set semantics throughout: adding a triple twice is a no-op.  Safe for
    many concurrent readers; mutation requires exclusive access.
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None):
        self._spo: dict[Term, dict[Iri, set[Term]]] = {}
        self._pos: dict[Iri, dict[Term, set[Term]]] = {}
        self._len = 0
        self._frozen = False  # set by `union`: other graphs may hold its containers
        self._base: Optional[Graph] = None
        if triples:
            for t in triples:
                self.add(t)

    def add(self, t: Triple) -> bool:
        """Insert a triple; returns True iff it was absent before."""
        if not isinstance(t, Triple):
            raise TermError("not a triple")
        return self.bulk_insert((t,)) == 1

    def bulk_insert(self, triples: Iterable[tuple[Term, Iri, Term]]) -> int:
        """Insert (subject, predicate, object) tuples of terms without the
        checks of `add`; returns how many were new.  For readers whose
        grammar already admits no literal subject and only IRI predicates,
        such as the Turtle parser."""
        if self._frozen:
            raise FrozenGraphError("a graph that union has read or returned cannot change")
        spo, pos = self._spo, self._pos
        added = 0
        try:  # an iterable that raises part way leaves the count true
            # get before set: `setdefault` would build an empty container per call
            for s, p, o in triples:
                by_p = spo.get(s)
                if by_p is None:
                    by_p = spo[s] = {}
                objs = by_p.get(p)
                if objs is None:
                    by_p[p] = {o}
                elif o in objs:
                    continue
                else:
                    objs.add(o)
                by_o = pos.get(p)
                if by_o is None:
                    by_o = pos[p] = {}
                subs = by_o.get(o)
                if subs is None:
                    by_o[o] = {s}
                else:
                    subs.add(s)
                added += 1
        finally:
            self._len += added
        return added

    def update(self, triples: Iterable[Triple]) -> int:
        return sum(1 for t in triples if self.add(t))

    def union(self, triples: Iterable[Triple]) -> tuple["Graph", list[Triple]]:
        """A new graph holding this graph's triples and ``triples``, and the
        list of those that were not here yet.  Both graphs are frozen.

        The new graph is an overlay on this graph's base (on this graph,
        when it is flat): only the overlay's own indexes are copied, so
        the cost grows with the overlay, not with the graph.  When the
        overlay would pass FOLD_TRIPLES, the union folds instead: the new
        graph is flat, with C-level copies of the base's two outer indexes
        into which the overlay's triples and the new ones are added by
        path copying (Driscoll et al. 1989), copying afresh only the inner
        dicts and sets on their paths, which earlier graphs still read.
        """
        added, seen = [], set()
        for t in triples:
            if not isinstance(t, Triple):
                raise TermError("not a triple")
            if t not in seen and t not in self:
                seen.add(t)
                added.append(t)
        base = self._base
        if base is None:  # the overlay on a flat graph starts empty
            base, own_spo, own_pos = self, {}, {}
        else:
            own_spo, own_pos = self._spo, self._pos
        out = Graph()
        self._frozen = out._frozen = True
        if self._len - base._len + len(added) > FOLD_TRIPLES:
            out._spo, out._pos = base._spo.copy(), base._pos.copy()
            _path_union(out._spo, out._pos, itertools.chain(_triples(own_spo), added))
        else:
            out._spo, out._pos, out._base = own_spo.copy(), own_pos.copy(), base
            _path_union(out._spo, out._pos, added)
        out._len = self._len + len(added)
        return out, added

    def match(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        object: Optional[Term] = None,
    ) -> list[Triple]:
        """All triples matching the pattern; None is a wildcard.

        Reads SPO when the subject is bound, else POS, and scans SPO when
        nothing is, in the graph's own indexes and in its base; the result
        is sorted by (subject, predicate, object) N3 strings.
        """
        result = _probe(self._spo, self._pos, subject, predicate, object)
        base = self._base
        if base is not None:
            result += _probe(base._spo, base._pos, subject, predicate, object)
        if len(result) > 1:
            result.sort(key=Triple.sort_key)
        return result

    def predicates(self) -> list[Iri]:
        """The distinct predicates, unsorted."""
        base = self._base
        if base is None:
            return list(self._pos)
        return [*base._pos, *(p for p in self._pos if p not in base._pos)]

    def subjects_by_object(self, predicate: Term) -> Mapping[Term, AbstractSet[Term]]:
        """The triples on ``predicate``: its slice of the POS index, a
        read-only map from each object to the set of its subjects,
        unsorted.  The sets are the graph's own and must not be changed."""
        own = self._pos.get(predicate, _EMPTY)
        below = _EMPTY if self._base is None else self._base._pos.get(predicate, _EMPTY)
        if own and below:
            return _MergedSlice(below, own)
        return MappingProxyType(own or below)

    def copy(self) -> "Graph":
        """A mutable flat graph of the same triples."""
        out = Graph()
        out.bulk_insert(self)
        return out

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Triple]:
        if self._base is not None:
            yield from _triples(self._base._spo)
        yield from _triples(self._spo)

    def __contains__(self, t: object) -> bool:
        if not isinstance(t, Triple):
            return False
        s, p, o = t
        if o in self._spo.get(s, _EMPTY).get(p, ()):
            return True
        return self._base is not None and o in self._base._spo.get(s, _EMPTY).get(p, ())

    def __repr__(self) -> str:
        return f"<Graph of {self._len} triples>"


def _probe(spo: dict, pos: dict, s: Optional[Term], p: Optional[Term], o: Optional[Term]) -> list[Triple]:
    """The triples of one level's indexes that match the pattern, unsorted."""
    if s is not None and p is not None and o is not None:
        # probe the index, so a pattern no triple can fill (a literal
        # subject, a non-IRI predicate) matches nothing
        return [_stored(Triple, (s, p, o))] if o in spo.get(s, _EMPTY).get(p, ()) else []
    if s is not None and p is not None:
        return [_stored(Triple, (s, p, x)) for x in spo.get(s, _EMPTY).get(p, ())]
    if p is not None and o is not None:
        return [_stored(Triple, (x, p, o)) for x in pos.get(p, _EMPTY).get(o, ())]
    if o is not None and s is not None:
        return [_stored(Triple, (s, x, o)) for x, objs in spo.get(s, _EMPTY).items() if o in objs]
    if s is not None:
        return [_stored(Triple, (s, pred, obj)) for pred, objs in spo.get(s, _EMPTY).items() for obj in objs]
    if p is not None:
        return [_stored(Triple, (sub, p, obj)) for obj, subs in pos.get(p, _EMPTY).items() for sub in subs]
    if o is not None:
        return [_stored(Triple, (sub, pred, o)) for pred, by_obj in pos.items() for sub in by_obj.get(o, ())]
    return list(_triples(spo))


def _triples(spo: dict) -> Iterator[Triple]:
    for s, by_pred in spo.items():
        for p, objs in by_pred.items():
            for o in objs:
                yield _stored(Triple, (s, p, o))


class _MergedSlice(Mapping):
    """One predicate's slice of an overlay's POS index that both levels
    hold: each object with the union of its subjects in either."""

    __slots__ = ("_below", "_above")

    def __init__(self, below: dict, above: dict):
        self._below, self._above = below, above

    def __getitem__(self, o: Term) -> AbstractSet[Term]:
        below, above = self._below.get(o), self._above.get(o)
        if below is None:
            if above is None:
                raise KeyError(o)
            return above
        return below if above is None else below | above

    def __iter__(self) -> Iterator[Term]:
        below = self._below
        yield from below
        yield from (o for o in self._above if o not in below)

    def __len__(self) -> int:
        below = self._below
        return len(below) + sum(1 for o in self._above if o not in below)


def _path_union(spo: dict, pos: dict, triples: Iterable[Triple]) -> None:
    """Add ``triples``, none of them there yet, to the two indexes by
    path copying: each container on a triple's path is copied afresh the
    first time it is written, so no container another graph holds is."""
    owned: set[int] = set()  # ids of the containers that are these indexes' alone
    for s, p, o in triples:
        _path_add(spo, s, p, o, owned)
        _path_add(pos, p, o, s, owned)


def _path_add(index: dict, a, b, c, owned: set[int]) -> None:
    """``index[a][b].add(c)``, first copying each container on that path
    that ``owned`` does not list, so no shared container is written."""
    inner = index.get(a)
    if inner is None or id(inner) not in owned:
        inner = index[a] = {} if inner is None else inner.copy()
        owned.add(id(inner))
    leaf = inner.get(b)
    if leaf is None or id(leaf) not in owned:
        leaf = inner[b] = set() if leaf is None else leaf.copy()
        owned.add(id(leaf))
    leaf.add(c)
