"""The OntoSOC ontology as data.

Seven upper-level classes (Community, Resource, Regulations, Activity,
Individual, Locality, Role), ten canonical object properties, pairwise
disjointness of the upper classes, and default alignments to FOAF, WAI,
Schema.org and DBpedia.  The whole schema converts to and from an RDF
graph so replacement schemas can be loaded from Turtle files.

Property spellings follow the source vocabulary exactly (including
"isOccuredIn" and "isBorderdBy"); conventional spellings and the
query-direction spellings (isRealizeBy, isPlayedBy, usedTool) are
declared as alias properties carrying their own domain/range.  A triple
using a canonical predicate IRI is accepted by the validator under any
of that property's declared signatures; an alias spelling validates
only against its own signature.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .rdf import (
    OWL_CLASS,
    OWL_DISJOINT_WITH,
    OWL_EQUIVALENT_CLASS,
    OWL_EQUIVALENT_PROPERTY,
    OWL_NS,
    OWL_OBJECT_PROPERTY,
    RDF_NS,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_LABEL,
    RDFS_NS,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    XSD,
    Graph,
    Iri,
    Literal,
    Triple,
)

ONTOSOC_NS = "http://maroua-univ/ns/ontosoc#"
FOAF_NS = "http://xmlns.com/foaf/0.1/"
WAI_NS = "http://purl.org/wai#"
SCHEMA_ORG_NS = "http://schema.org/"
DBPEDIA_ONT_NS = "http://dbpedia.org/ontology/"


class SchemaError(ValueError):
    """Raised when a schema violates its structural invariants."""


class UnknownClassError(SchemaError):
    pass


class ClassDef(NamedTuple):
    iri: str
    label: str = ""
    superclass: Optional[str] = None


class PropertyDef(NamedTuple):
    iri: str
    domain: str
    range: str
    aliases: tuple[PropertyDef, ...] = ()


class _Axiom(NamedTuple):
    class_a: str
    class_b: str


class DisjointnessAxiom(_Axiom):
    """A pair of disjoint classes, stored canonically sorted."""

    __slots__ = ()

    def __new__(cls, class_a: str, class_b: str) -> DisjointnessAxiom:
        if class_a == class_b:
            raise SchemaError(f"class cannot be disjoint with itself: {class_a}")
        return super().__new__(cls, *sorted((class_a, class_b)))

    @classmethod
    def _make(cls, iterable) -> DisjointnessAxiom:  # so that `_replace` checks too
        return cls(*iterable)


EQUIVALENT_CLASS = "equivalent-class"
SUBCLASS_OF = "subclass-of"
EQUIVALENT_PROPERTY = "equivalent-property"


class AlignmentMapping(NamedTuple):
    source: str
    target: str
    kind: str


class _Schema(NamedTuple):
    classes: tuple[ClassDef, ...]
    properties: tuple[PropertyDef, ...]
    disjointness: tuple[DisjointnessAxiom, ...]
    alignments: tuple[AlignmentMapping, ...]
    namespace: str = ONTOSOC_NS


class SchemaDef(_Schema):
    """A schema, checked against its structural invariants when built.

    The same walks build its lookups, which its instances keep in their
    ``__dict__``: `superclass_closures`, and each property IRI's
    signatures and canonical property."""

    def __new__(cls, *args, **kwargs) -> SchemaDef:
        schema = super().__new__(cls, *args, **kwargs)
        schema._check()
        return schema

    @classmethod
    def _make(cls, iterable) -> SchemaDef:  # so that `_replace` checks too
        return cls(*iterable)

    def _check(self) -> None:
        by_iri = {c.iri: c for c in self.classes}
        if len(by_iri) != len(self.classes):
            raise SchemaError("duplicate class declaration")
        roots = [c for c in self.classes if c.superclass is None]
        if len(roots) != 7:
            raise SchemaError(f"expected exactly 7 upper-level classes, found {len(roots)}")
        if len(self.properties) != 10:
            raise SchemaError(f"expected exactly 10 canonical properties, found {len(self.properties)}")
        for c in self.classes:
            if c.superclass is not None and c.superclass not in by_iri:
                raise SchemaError(f"undeclared superclass {c.superclass} of {c.iri}")
        # forest: following superclass links must terminate; the classes
        # a walk sees are its start's closure
        self.superclass_closures: dict[str, frozenset[str]] = {}
        for c in self.classes:
            seen = set()
            cur: Optional[str] = c.iri
            while cur is not None:
                if cur in seen:
                    raise SchemaError(f"cycle in class hierarchy at {cur}")
                seen.add(cur)
                cur = by_iri[cur].superclass
            self.superclass_closures[c.iri] = frozenset(seen)
        individual = self.namespace + "Individual"
        if individual in by_iri and any(c.superclass == individual for c in self.classes):
            raise SchemaError("Individual admits no subclasses")
        # each IRI's first declaration wins, a canonical one over an alias
        self._signatures: dict[str, tuple[PropertyDef, ...]] = {}
        self._canonical: dict[str, PropertyDef] = {}
        for p in self.properties:
            if any(alias.iri == p.iri for alias in p.aliases):
                raise SchemaError(f"alias IRI equals canonical IRI: {p.iri}")
            for q in (p, *p.aliases):
                for end in (q.domain, q.range):
                    if end not in by_iri:
                        raise SchemaError(f"property {q.iri} refers to undeclared class {end}")
            self._signatures.setdefault(p.iri, (p, *p.aliases))
            self._canonical.setdefault(p.iri, p)
        for p in self.properties:
            for alias in p.aliases:
                self._signatures.setdefault(alias.iri, (alias,))
                self._canonical.setdefault(alias.iri, p)
        for ax in self.disjointness:
            for end in (ax.class_a, ax.class_b):
                if end not in by_iri:
                    raise SchemaError(f"disjointness axiom refers to undeclared class {end}")
        for m in self.alignments:
            if m.kind not in _ALIGN_PREDICATE:
                raise SchemaError(f"unknown alignment kind: {m.kind}")
            if not m.source.startswith(self.namespace):
                raise SchemaError(f"alignment source outside schema namespace: {m.source}")
            if m.target.startswith(self.namespace):
                raise SchemaError(f"alignment target inside schema namespace: {m.target}")

    def class_iris(self) -> set[str]:
        return set(self.superclass_closures)

    def upper_classes(self) -> list[ClassDef]:
        return [c for c in self.classes if c.superclass is None]

    def subclasses(self, iri: str) -> list[ClassDef]:
        return [c for c in self.classes if c.superclass == iri]

    def superclass_closure(self, iri: str) -> frozenset[str]:
        """Reflexive-transitive closure upward from a declared class."""
        try:
            return self.superclass_closures[iri]
        except KeyError:
            raise UnknownClassError(f"unknown class: {iri}") from None

    def lookup_property(self, iri: str) -> Optional[PropertyDef]:
        """Resolve a canonical or alias IRI to the canonical PropertyDef.

        Canonical declarations win over alias spellings when an IRI is both.
        """
        return self._canonical.get(iri)

    def signatures_for(self, iri: str) -> list[PropertyDef]:
        """Signatures a triple with this predicate may validate against.

        A canonical IRI offers the canonical signature plus any alias
        signatures as compatibility fallbacks; an alias IRI offers only
        its own.
        """
        return list(self._signatures.get(iri, ()))


def _c(name: str) -> str:
    return ONTOSOC_NS + name


def builtin_schema() -> SchemaDef:
    """The shipped OntoSOC schema."""
    classes = (
        ClassDef(_c("Community"), "Community"),
        ClassDef(_c("Resource"), "Resource"),
        ClassDef(_c("Regulations"), "Regulations"),
        ClassDef(_c("Activity"), "Activity"),
        ClassDef(_c("Individual"), "Individual"),
        ClassDef(_c("Locality"), "Locality"),
        ClassDef(_c("Role"), "Role"),
        ClassDef(_c("CulturalActivity"), "Cultural activity", _c("Activity")),
        ClassDef(_c("SportActivity"), "Sport activity", _c("Activity")),
        ClassDef(_c("EducationalActivity"), "Educational activity", _c("Activity")),
        ClassDef(_c("EconomicActivity"), "Economic activity", _c("Activity")),
    )
    properties = (
        PropertyDef(
            _c("isUsedBy"), _c("Resource"), _c("Individual"),
            aliases=(PropertyDef(_c("usedTool"), _c("Role"), _c("Resource")),),
        ),
        PropertyDef(_c("isMemberOf"), _c("Individual"), _c("Community")),
        PropertyDef(_c("isRegulatedBy"), _c("Community"), _c("Regulations")),
        PropertyDef(_c("isCreatedBy"), _c("Role"), _c("Community")),
        PropertyDef(
            _c("plays"), _c("Individual"), _c("Role"),
            aliases=(PropertyDef(_c("isPlayedBy"), _c("Role"), _c("Individual")),),
        ),
        PropertyDef(
            _c("isRealisedBy"), _c("Role"), _c("Activity"),
            aliases=(PropertyDef(_c("isRealizeBy"), _c("Activity"), _c("Role")),),
        ),
        PropertyDef(_c("isOrganisedBy"), _c("Activity"), _c("Community")),
        PropertyDef(_c("isLocatedIn"), _c("Community"), _c("Locality")),
        PropertyDef(
            _c("isOccuredIn"), _c("Activity"), _c("Locality"),
            aliases=(PropertyDef(_c("isOccurredIn"), _c("Activity"), _c("Locality")),),
        ),
        PropertyDef(
            _c("isBorderdBy"), _c("Locality"), _c("Locality"),
            aliases=(PropertyDef(_c("isBorderedBy"), _c("Locality"), _c("Locality")),),
        ),
    )
    uppers = [c.iri for c in classes if c.superclass is None]
    disjointness = tuple(
        DisjointnessAxiom(a, b)
        for i, a in enumerate(sorted(uppers))
        for b in sorted(uppers)[i + 1 :]
    )
    alignments = (
        AlignmentMapping(_c("Individual"), FOAF_NS + "Person", EQUIVALENT_CLASS),
        AlignmentMapping(_c("Community"), FOAF_NS + "Group", SUBCLASS_OF),
        AlignmentMapping(_c("Community"), SCHEMA_ORG_NS + "Organization", SUBCLASS_OF),
        AlignmentMapping(_c("Role"), WAI_NS + "Role", EQUIVALENT_CLASS),
        AlignmentMapping(_c("Locality"), SCHEMA_ORG_NS + "Place", SUBCLASS_OF),
        AlignmentMapping(_c("Locality"), DBPEDIA_ONT_NS + "Place", SUBCLASS_OF),
        AlignmentMapping(_c("Activity"), SCHEMA_ORG_NS + "Event", SUBCLASS_OF),
    )
    return SchemaDef(classes, properties, disjointness, alignments)


_ALIGN_PREDICATE = {
    EQUIVALENT_CLASS: OWL_EQUIVALENT_CLASS,
    SUBCLASS_OF: RDFS_SUBCLASSOF,
    EQUIVALENT_PROPERTY: OWL_EQUIVALENT_PROPERTY,
}


def schema_to_graph(schema: SchemaDef) -> Graph:
    """Render a SchemaDef as RDFS/OWL triples."""
    g = Graph()
    for c in schema.classes:
        g.add(Triple(Iri(c.iri), Iri(RDF_TYPE), Iri(OWL_CLASS)))
        if c.label:
            g.add(Triple(Iri(c.iri), Iri(RDFS_LABEL), Literal(c.label)))
        if c.superclass is not None:
            g.add(Triple(Iri(c.iri), Iri(RDFS_SUBCLASSOF), Iri(c.superclass)))
    for p in schema.properties:
        _property_triples(g, p)
        for alias in p.aliases:
            _property_triples(g, alias)
            g.add(Triple(Iri(alias.iri), Iri(OWL_EQUIVALENT_PROPERTY), Iri(p.iri)))
    for ax in schema.disjointness:
        g.add(Triple(Iri(ax.class_a), Iri(OWL_DISJOINT_WITH), Iri(ax.class_b)))
    for t in export_alignment(schema):
        g.add(t)
    return g


def _property_triples(g: Graph, p: PropertyDef) -> None:
    g.add(Triple(Iri(p.iri), Iri(RDF_TYPE), Iri(OWL_OBJECT_PROPERTY)))
    g.add(Triple(Iri(p.iri), Iri(RDFS_DOMAIN), Iri(p.domain)))
    g.add(Triple(Iri(p.iri), Iri(RDFS_RANGE), Iri(p.range)))


def export_alignment(schema: SchemaDef) -> Graph:
    """Only the alignment triples; one triple per mapping."""
    g = Graph()
    for m in schema.alignments:
        g.add(Triple(Iri(m.source), Iri(_ALIGN_PREDICATE[m.kind]), Iri(m.target)))
    return g


def schema_from_graph(graph: Graph, namespace: str = ONTOSOC_NS) -> SchemaDef:
    """Reconstruct a SchemaDef from its RDF rendering.

    Alias properties are recognized by their owl:equivalentProperty link
    to a canonical property; alignment mappings by a target outside the
    schema namespace.
    """
    def in_ns(iri: str) -> bool:
        return iri.startswith(namespace)

    class_iris = sorted(
        t.subject.value
        for t in graph.match(predicate=Iri(RDF_TYPE), object=Iri(OWL_CLASS))
        if isinstance(t.subject, Iri) and in_ns(t.subject.value)
    )
    labels = {}
    for t in graph.match(predicate=Iri(RDFS_LABEL)):
        if isinstance(t.subject, Iri) and isinstance(t.object, Literal):
            labels[t.subject.value] = t.object.lexical
    supers = {}
    for t in graph.match(predicate=Iri(RDFS_SUBCLASSOF)):
        if isinstance(t.object, Iri) and in_ns(t.object.value) and isinstance(t.subject, Iri):
            supers[t.subject.value] = t.object.value
    classes = tuple(
        ClassDef(iri, labels.get(iri, ""), supers.get(iri)) for iri in class_iris
    )

    prop_iris = sorted(
        t.subject.value
        for t in graph.match(predicate=Iri(RDF_TYPE), object=Iri(OWL_OBJECT_PROPERTY))
        if isinstance(t.subject, Iri) and in_ns(t.subject.value)
    )
    alias_of: dict[str, str] = {}
    for t in graph.match(predicate=Iri(OWL_EQUIVALENT_PROPERTY)):
        if not isinstance(t.subject, Iri) or not isinstance(t.object, Iri):
            continue
        if in_ns(t.object.value) and t.subject.value in prop_iris:
            alias_of[t.subject.value] = t.object.value

    def signature(iri: str) -> tuple[str, str]:
        doms = graph.match(subject=Iri(iri), predicate=Iri(RDFS_DOMAIN))
        rans = graph.match(subject=Iri(iri), predicate=Iri(RDFS_RANGE))
        if not doms or not rans:
            raise SchemaError(f"property {iri} lacks a domain or range")
        domain, range_ = doms[0].object, rans[0].object
        if not isinstance(domain, Iri) or not isinstance(range_, Iri):
            raise SchemaError(f"property {iri} has a domain or range that is not an IRI")
        return domain.value, range_.value

    properties = []
    for iri in prop_iris:
        if iri in alias_of:
            continue
        aliases = tuple(
            PropertyDef(a, *signature(a))
            for a in sorted(k for k, v in alias_of.items() if v == iri)
        )
        properties.append(PropertyDef(iri, *signature(iri), aliases=aliases))

    disjointness = tuple(
        sorted(
            {
                DisjointnessAxiom(t.subject.value, t.object.value)
                for t in graph.match(predicate=Iri(OWL_DISJOINT_WITH))
                if isinstance(t.subject, Iri) and isinstance(t.object, Iri)
            },
            key=lambda ax: (ax.class_a, ax.class_b),
        )
    )

    alignments = []
    kind_of = {v: k for k, v in _ALIGN_PREDICATE.items()}
    for t in sorted(graph, key=Triple.sort_key):
        if not isinstance(t.subject, Iri) or not isinstance(t.object, Iri):
            continue
        if t.predicate.value in kind_of and in_ns(t.subject.value) and not in_ns(t.object.value):
            alignments.append(
                AlignmentMapping(t.subject.value, t.object.value, kind_of[t.predicate.value])
            )

    return SchemaDef(classes, tuple(properties), disjointness, tuple(alignments), namespace)


def schema_prefixes() -> list[tuple[str, str]]:
    return [
        ("ontosoc", ONTOSOC_NS),
        ("rdf", RDF_NS),
        ("rdfs", RDFS_NS),
        ("owl", OWL_NS),
        ("xsd", XSD),
        ("foaf", FOAF_NS),
        ("wai", WAI_NS),
        ("schema", SCHEMA_ORG_NS),
        ("dbo", DBPEDIA_ONT_NS),
    ]
