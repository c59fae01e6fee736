"""Instance-graph checking against a schema.

Type entailment runs once: `entail_types` walks the rdf:type triples
and maps each node to its schema classes, closed upward along
rdfs:subClassOf.  Two checks read that map: domain/range conformance of
every triple whose predicate is a schema property, and disjointness of
each instance's classes.  Typing is closed: an untyped subject or object
of a schema property is itself a violation (found classes empty), since
silence would hide population mistakes.

Schema-vocabulary triples (type declarations, subclass, domain/range,
disjointness, equivalence, labels) are never checked as instance data.
Either check builds the map itself when called without one, so callers
may pass raw graphs.

`validate_delta` carries a graph's map and violation list over to the
graph plus some new triples.  A domain/range verdict depends only on
the triple and its endpoints' classes, and a disjointness verdict only
on the node's classes, so it re-checks the new triples, the triples
around each node whose classes changed, and those nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

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


@dataclass(frozen=True)
class Violation:
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


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)
    checked_triples: int = 0
    entailed_types: int = 0
    skipped_predicates: int = 0
    types: TypeMap = field(default_factory=dict, repr=False, compare=False)  # what the checks read

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


class _Signatures(dict):
    """`SchemaDef.signatures_for`, looked up once per distinct predicate."""

    def __init__(self, schema: SchemaDef):
        super().__init__()
        self.schema = schema

    def __missing__(self, iri: str) -> list[PropertyDef]:
        self[iri] = signatures = self.schema.signatures_for(iri)
        return signatures


def _grown_types(triples: Iterable[Triple], schema: SchemaDef, types: TypeMap) -> TypeMap:
    """The nodes that the schema-class rdf:type triples among ``triples``
    type, each with its classes in ``types`` plus the new ones and all
    their superclasses."""
    closures = {c.iri: frozenset(schema.superclass_closure(c.iri)) for c in schema.classes}
    grown: TypeMap = {}
    for t in triples:
        if t.predicate.value == RDF_TYPE and isinstance(t.object, Iri) and t.object.value in closures:
            grown[t.subject] = grown.get(t.subject, types.get(t.subject, _UNTYPED)) | closures[t.object.value]
    return grown


def entail_types(graph: Graph, schema: SchemaDef) -> TypeMap:
    """Map each typed node to its declared schema classes and all their
    superclasses.  Nodes without a schema class are absent."""
    return _grown_types(graph.match(predicate=Iri(RDF_TYPE)), schema, {})


def infer_types(graph: Graph, schema: SchemaDef) -> Graph:
    """Add every supertype of each instance's declared types; idempotent."""
    out = graph.copy()
    for node, classes in entail_types(graph, schema).items():
        for cls in classes:
            out.add(Triple(node, Iri(RDF_TYPE), Iri(cls)))
    return out


def check_domain_range(
    graph: Graph,
    schema: SchemaDef,
    types: Optional[TypeMap] = None,
    triples: Optional[Iterable[Triple]] = None,
) -> list[Violation]:
    """Domain/range conformance for every schema-property triple of
    ``triples`` (default: all of ``graph``).

    A triple on a canonical predicate IRI conforms when any of its
    declared signatures is fully satisfied; reported classes come from
    the best-matching signature.  Violations come sorted by triple.
    """
    if types is None:
        types = entail_types(graph, schema)
    signatures_of = _Signatures(schema)
    violations = []
    for t in graph if triples is None else triples:
        if t.predicate.value in _VOCAB_PREDICATES:
            continue
        signatures = signatures_of[t.predicate.value]
        if not signatures:
            continue
        s_types = types.get(t.subject, _UNTYPED)
        o_types = types.get(t.object, _UNTYPED)  # never a literal's: no literal is typed

        def score(sig: PropertyDef) -> int:
            return (sig.domain in s_types) + (sig.range in o_types)

        best = max(signatures, key=score)
        if score(best) == 2:
            continue
        if best.domain not in s_types:
            violations.append(
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
            violations.append(
                Violation(
                    RANGE,
                    f"object of object property {t.predicate.value} is a literal; "
                    f"expected a {best.range}",
                    triple=t,
                    expected=best.range,
                )
            )
        elif best.range not in o_types:
            violations.append(
                Violation(
                    RANGE,
                    f"object of {t.predicate.value} must be a {best.range}; "
                    f"found {{{', '.join(sorted(o_types)) or ''}}} on {t.object.n3()}",
                    triple=t,
                    expected=best.range,
                    found=o_types,
                )
            )
    return sorted(violations, key=Violation.sort_key)


def check_disjointness(
    graph: Graph,
    schema: SchemaDef,
    types: Optional[TypeMap] = None,
    nodes: Optional[Iterable[Term]] = None,
) -> list[Violation]:
    """One violation per instance per disjoint class pair it violates,
    for each typed node of ``nodes`` (default: every typed node)."""
    if types is None:
        types = entail_types(graph, schema)
    disjoint = sorted({(ax.class_a, ax.class_b) for ax in schema.disjointness})
    violations = []
    for node in sorted(types if nodes is None else nodes, key=term_key):
        classes = types[node]
        for a, b in disjoint:
            if a in classes and b in classes:
                violations.append(
                    Violation(
                        DISJOINTNESS,
                        f"{node.n3()} is typed with disjoint classes {a} and {b}",
                        instance=node,
                        found=frozenset((a, b)),
                    )
                )
    return violations


def validate(graph: Graph, schema: SchemaDef) -> ValidationReport:
    """Entail types once, run both checks on the map, aggregate counts."""
    types = entail_types(graph, schema)
    class_iris = schema.class_iris()
    signatures_of = _Signatures(schema)
    declared = checked = skipped = 0
    for t in graph:
        if t.predicate.value == RDF_TYPE:
            declared += isinstance(t.object, Iri) and t.object.value in class_iris
        elif t.predicate.value in _VOCAB_PREDICATES:
            continue
        elif signatures_of[t.predicate.value]:
            checked += 1
        else:
            skipped += 1
    report = ValidationReport(types=types)
    report.entailed_types = sum(len(classes) for classes in types.values()) - declared
    report.checked_triples = checked
    report.skipped_predicates = skipped
    report.violations = sorted(
        check_domain_range(graph, schema, types) + check_disjointness(graph, schema, types),
        key=Violation.sort_key,
    )
    return report


def validate_delta(
    graph: Graph,
    schema: SchemaDef,
    types: TypeMap,
    violations: list[Violation],
    added: Iterable[Triple],
) -> tuple[TypeMap, list[Violation]]:
    """The type map and violation list of ``graph``, given those of the
    graph it was before the triples ``added`` (all absent then) joined it.

    Equal to ``entail_types(graph, schema)`` and ``validate(graph,
    schema).violations``, in the same order.  Neither input is changed.
    """
    added = list(added)
    retyped = {
        node: classes
        for node, classes in _grown_types(added, schema, types).items()
        if classes != types.get(node, _UNTYPED)
    }
    recheck = set(added)
    if retyped:
        types = {**types, **retyped}
        for node in retyped:
            recheck.update(graph.match(subject=node))
            recheck.update(graph.match(object=node))

    def stale(v: Violation) -> bool:
        if v.triple is None:
            return v.instance in retyped
        return v.triple.subject in retyped or v.triple.object in retyped

    kept = [v for v in violations if not stale(v)]
    fresh = check_domain_range(graph, schema, types, recheck)
    fresh += check_disjointness(graph, schema, types, retyped)
    return types, sorted(kept + fresh, key=Violation.sort_key)
