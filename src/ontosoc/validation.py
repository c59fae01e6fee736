"""Instance-graph checking against a schema.

Type entailment runs once: `entail_types` walks the rdf:type slice of
the graph's predicate-object-subject index and maps each node to its
schema classes, closed upward along rdfs:subClassOf.  Two checks read
that map: domain/range conformance of every triple whose predicate is a
schema property, and disjointness of each instance's classes.  Typing is
closed: an untyped subject or object of a schema property is itself a
violation (found classes empty), since silence would hide population
mistakes.

Both checks work per group rather than per triple, reading the index
one predicate at a time, as Hexastore does (Weiss, Karras & Bernstein
2008).  Domain/range looks up a predicate's signatures once and tests
each (subject, object) pair of its slice against the type map;
disjointness tests the axioms once per distinct class set.  A `Triple`
is built only for a violation, and only violations are sorted.  `validate` takes its counts
from the sizes of the same slices.

Schema-vocabulary triples (type declarations, subclass, domain/range,
disjointness, equivalence, labels) are never checked as instance data.
Either check builds the map itself when called without one, so callers
may pass raw graphs.

`validate_delta` works out which nodes some new triples retype, and
finds the violations those triples add, reading the old map under the
retyped nodes (a `ChainMap`) without copying it; no list of the whole
graph's violations is ever kept.  A domain/range verdict depends
only on the triple and its endpoints' classes, and a disjointness
verdict only on the node's classes, so it re-checks only the new
triples, the triples around each node whose classes changed, and those
nodes (the delta rule of incremental view maintenance: Gupta, Mumick &
Subrahmanian 1993).
"""

from __future__ import annotations

from collections import ChainMap
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Optional

from .rdf import (
    OWL_DISJOINT_WITH,
    OWL_EQUIVALENT_CLASS,
    OWL_EQUIVALENT_PROPERTY,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_LABEL,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    Graph,
    Iri,
    Literal,
    Term,
    Triple,
    term_key,
)
from .schema import PropertyDef, SchemaDef

DOMAIN = "domain"
RANGE = "range"
DISJOINTNESS = "disjointness"

_VOCAB_PREDICATES = {
    RDF_TYPE,
    RDFS_SUBCLASSOF,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_LABEL,
    OWL_DISJOINT_WITH,
    OWL_EQUIVALENT_CLASS,
    OWL_EQUIVALENT_PROPERTY,
}


class Violation(NamedTuple):
    kind: str  # domain | range | disjointness
    message: str
    triple: Optional[Triple] = None
    instance: Optional[Term] = None
    expected: Optional[str] = None
    found: frozenset = frozenset()

    def machine_line(self) -> str:
        if self.kind == DISJOINTNESS:
            node = self.instance.n3() if self.instance is not None else "-"
            found = ",".join(sorted(self.found))
            return f"{self.kind}\t{node}\t-\t-\t-\t{found}"
        t = self.triple
        assert t is not None
        found = ",".join(sorted(self.found)) if self.found else "-"
        return (
            f"{self.kind}\t{t.subject.n3()}\t{t.predicate.n3()}\t{t.object.n3()}"
            f"\t{self.expected or '-'}\t{found}"
        )

    def sort_key(self) -> tuple:
        if self.triple is not None:
            return (self.triple.sort_key(), self.kind, self.message)
        node = term_key(self.instance) if self.instance is not None else ""
        return ((node, "", ""), self.kind, self.message)


class ValidationReport(NamedTuple):
    violations: list[Violation] = []
    checked_triples: int = 0
    entailed_types: int = 0
    skipped_predicates: int = 0

    @property
    def conforms(self) -> bool:
        return not self.violations

    def render_text(self) -> str:
        lines = [
            f"{len(self.violations)} violations "
            f"({self.checked_triples} triples checked, "
            f"{self.entailed_types} types entailed, "
            f"{self.skipped_predicates} unknown-predicate triples skipped)"
        ]
        for v in self.violations:
            lines.append(f"  [{v.kind}] {v.message}")
        return "\n".join(lines)

    def render_machine(self) -> str:
        return "\n".join(v.machine_line() for v in self.violations)


TypeMap = dict[Term, frozenset]
_UNTYPED: frozenset = frozenset()

# one predicate's triples: each object and the set of its subjects
Slice = Mapping[Term, AbstractSet[Term]]


def _grown_types(typings: Iterable[tuple[Term, Term]], schema: SchemaDef, types: Mapping[Term, frozenset]) -> TypeMap:
    """The nodes that ``typings``, the (node, class) pairs of rdf:type
    triples, give a schema class, each with its classes in ``types`` plus
    the new ones and all their superclasses.  A node new to one class
    takes that class's closure itself, so equal class sets are mostly one
    object."""
    closures = schema.superclass_closures
    grown: TypeMap = {}
    for node, cls in typings:
        closure = closures.get(cls.value) if isinstance(cls, Iri) else None
        if closure is not None:
            known = grown.get(node, types.get(node))
            grown[node] = closure if known is None else known | closure
    return grown


def entail_types(graph: Graph, schema: SchemaDef) -> TypeMap:
    """Map each typed node to its declared schema classes and all their
    superclasses.  Nodes without a schema class are absent."""
    by_class = graph.subjects_by_object(Iri(RDF_TYPE))
    return _grown_types(((node, cls) for cls, nodes in by_class.items() for node in nodes), schema, {})


def infer_types(graph: Graph, schema: SchemaDef) -> Graph:
    """Add every supertype of each instance's declared types; idempotent."""
    out = graph.copy()
    for node, classes in entail_types(graph, schema).items():
        for cls in classes:
            out.add(Triple(node, Iri(RDF_TYPE), Iri(cls)))
    return out


def _slices(graph: Graph, triples: Optional[Iterable[Triple]]) -> Iterable[tuple[Iri, Slice]]:
    """Each predicate with its slice: of the whole graph, or of ``triples``."""
    if triples is None:
        return ((p, graph.subjects_by_object(p)) for p in graph.predicates())
    grouped: dict[Iri, dict[Term, set[Term]]] = {}
    for s, p, o in triples:
        grouped.setdefault(p, {}).setdefault(o, set()).add(s)
    return grouped.items()


def _triple_violations(
    t: Triple, signatures: list[PropertyDef], s_types: frozenset, o_types: frozenset
) -> list[Violation]:
    """The violations of a triple that none of ``signatures`` fits, as
    judged against the signature it comes closest to."""
    best = max(signatures, key=lambda sig: (sig.domain in s_types) + (sig.range in o_types))
    out = []
    if best.domain not in s_types:
        out.append(
            Violation(
                DOMAIN,
                f"subject of {t.predicate.value} must be a {best.domain}; "
                f"found {{{', '.join(sorted(s_types)) or ''}}} on {t.subject.n3()}",
                triple=t,
                expected=best.domain,
                found=s_types,
            )
        )
    if isinstance(t.object, Literal):
        out.append(
            Violation(
                RANGE,
                f"object of object property {t.predicate.value} is a literal; "
                f"expected a {best.range}",
                triple=t,
                expected=best.range,
            )
        )
    elif best.range not in o_types:
        out.append(
            Violation(
                RANGE,
                f"object of {t.predicate.value} must be a {best.range}; "
                f"found {{{', '.join(sorted(o_types)) or ''}}} on {t.object.n3()}",
                triple=t,
                expected=best.range,
                found=o_types,
            )
        )
    return out


def check_domain_range(
    graph: Graph,
    schema: SchemaDef,
    types: Optional[Mapping[Term, frozenset]] = None,
    triples: Optional[Iterable[Triple]] = None,
) -> list[Violation]:
    """Domain/range conformance for every schema-property triple of
    ``triples`` (default: all of ``graph``).

    A triple on a canonical predicate IRI conforms when any of its
    declared signatures is fully satisfied; reported classes come from
    the best-matching signature.  The triples are walked one predicate
    at a time, so the signatures are looked up once per predicate, and
    a `Triple` is built only for a violation.  Violations come sorted by
    triple.
    """
    if types is None:
        types = entail_types(graph, schema)
    type_of = types.get
    violations = []
    for p, by_object in _slices(graph, triples):
        if p.value in _VOCAB_PREDICATES:
            continue
        signatures = schema.signatures_for(p.value)
        if not signatures:
            continue
        ends = [(sig.domain, sig.range) for sig in signatures]
        for o, subjects in by_object.items():
            o_types = type_of(o, _UNTYPED)  # never a literal's: no literal is typed
            for s in subjects:
                s_types = type_of(s, _UNTYPED)
                for domain, range_ in ends:
                    if domain in s_types and range_ in o_types:
                        break
                else:
                    violations += _triple_violations(Triple(s, p, o), signatures, s_types, o_types)
    return sorted(violations, key=Violation.sort_key)


def check_disjointness(
    graph: Graph,
    schema: SchemaDef,
    types: Optional[Mapping[Term, frozenset]] = None,
    nodes: Optional[Iterable[Term]] = None,
) -> list[Violation]:
    """One violation per instance per disjoint class pair it violates,
    for each typed node of ``nodes`` (default: every typed node).

    The clashing pairs are worked out once per distinct class set, and
    only the nodes that clash are sorted."""
    if types is None:
        types = entail_types(graph, schema)
    disjoint = sorted({(ax.class_a, ax.class_b) for ax in schema.disjointness})
    clashes: dict[frozenset, list[tuple[str, str]]] = {}
    clashing = []
    for node in types if nodes is None else nodes:
        classes = types[node]
        pairs = clashes.get(classes)
        if pairs is None:
            pairs = clashes[classes] = [(a, b) for a, b in disjoint if a in classes and b in classes]
        if pairs:
            clashing.append(node)
    return [
        Violation(
            DISJOINTNESS,
            f"{node.n3()} is typed with disjoint classes {a} and {b}",
            instance=node,
            found=frozenset((a, b)),
        )
        for node in sorted(clashing, key=term_key)
        for a, b in clashes[types[node]]
    ]


def validate(graph: Graph, schema: SchemaDef) -> ValidationReport:
    """Entail types once, run both checks on the map, aggregate counts.

    The counts come from the sizes of the predicates' slices."""
    types = entail_types(graph, schema)
    class_iris = schema.class_iris()
    declared = checked = skipped = 0
    for p in graph.predicates():
        by_object = graph.subjects_by_object(p)
        if p.value == RDF_TYPE:
            declared = sum(
                len(nodes) for cls, nodes in by_object.items() if isinstance(cls, Iri) and cls.value in class_iris
            )
        elif p.value in _VOCAB_PREDICATES:
            continue
        elif schema.signatures_for(p.value):
            checked += sum(map(len, by_object.values()))
        else:
            skipped += sum(map(len, by_object.values()))
    violations = sorted(
        check_domain_range(graph, schema, types) + check_disjointness(graph, schema, types),
        key=Violation.sort_key,
    )
    entailed = sum(len(classes) for classes in types.values()) - declared
    return ValidationReport(violations, checked, entailed, skipped)


def _key(v: Violation) -> tuple:
    """A violation's kind and triple (domain, range), or its kind, node
    and class pair (disjointness)."""
    return (v.kind, v.triple) if v.triple is not None else (v.kind, v.instance, v.found)


def validate_delta(
    graph: Graph,
    schema: SchemaDef,
    types: Mapping[Term, frozenset],
    added: Iterable[Triple],
) -> tuple[TypeMap, list[Violation]]:
    """The nodes whose classes the triples ``added`` (all absent before
    they joined ``graph``) change, each with its new classes, and the
    violations those triples add, sorted.

    ``types`` is the type map of the graph before; it is read, never
    copied or changed, so the map of ``graph`` is ``types`` updated with
    the nodes returned, ``entail_types(graph, schema)``.  A violation of
    ``graph`` is added unless the graph before had one with the same
    `_key`, so one whose found classes changed is not added.
    """
    added = list(added)
    typings = [(t.subject, t.object) for t in added if t.predicate.value == RDF_TYPE]
    retyped = {
        node: classes
        for node, classes in _grown_types(typings, schema, types).items()
        if classes != types.get(node, _UNTYPED)
    }
    recheck, after = set(added), types
    if retyped:
        after = ChainMap(retyped, types)
        for node in retyped:
            recheck.update(graph.match(subject=node))
            recheck.update(graph.match(object=node))
    offenses = check_domain_range(graph, schema, after, recheck)
    offenses = sorted(offenses + check_disjointness(graph, schema, after, retyped), key=Violation.sort_key)
    if offenses and retyped:  # drop those the graph had before, on its old triples and typed nodes
        known = check_domain_range(graph, schema, types, recheck.difference(added))
        known += check_disjointness(graph, schema, types, [node for node in retyped if node in types])
        old = set(map(_key, known))
        offenses = [v for v in offenses if _key(v) not in old]
    return retyped, offenses
