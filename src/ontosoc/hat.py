"""Derivation of the OntoSOC relation set from the six-pole activity model.

The pipeline runs end to end: enumerate the triads of the activity
triangle, count pole involvements per use case, generate three directed
candidate relations per triad, collapse the candidates to distinct pole
pairs (the redundancy-elimination step, a 60% reduction with the
defaults), apply an auditable keep/drop decision table, append the
three Locality relations, and substitute poles for ontology concepts.

The default triad family has 10 members: the core {Community, Object,
Subject} triangle plus, for each of Rules, Division of Labour and
Tools, its three triangles with two core poles.  This is the unique
natural family giving per-case involvement counts of 7 for each core
pole and 3 for each specialty pole.  The triad set is configuration,
with that family as the default; the triad count in play is surfaced
in the stats output.
"""

from __future__ import annotations

import enum
import sys
from itertools import combinations
from typing import Iterable, NamedTuple, Optional

from .schema import (
    ONTOSOC_NS,
    PropertyDef,
    SchemaDef,
    builtin_schema,
)


class Pole(enum.Enum):
    SUBJECT = "Subject"
    OBJECT = "Object"
    TOOLS = "Tools"
    RULES = "Rules"
    COMMUNITY = "Community"
    DIVISION_OF_LABOUR = "DivisionOfLabour"

    @property
    def display(self) -> str:
        if self is Pole.DIVISION_OF_LABOUR:
            return "Division of Labour"
        return self.value

    @classmethod
    def parse(cls, text: str) -> "Pole":
        cleaned = text.strip().replace(" ", "")
        for pole in cls:
            if pole.value.lower() == cleaned.lower():
                return pole
        raise ValueError(f"unknown pole: {text!r}")


Triad = frozenset  # frozenset of exactly 3 distinct Poles

LOCALITY = "Locality"  # relation endpoint that is not a pole

_CORE = (Pole.COMMUNITY, Pole.OBJECT, Pole.SUBJECT)
_SPECIALTY = (Pole.RULES, Pole.DIVISION_OF_LABOUR, Pole.TOOLS)

_POLE_ORDER = {p: i for i, p in enumerate(Pole)}


def triad(*poles: Pole) -> Triad:
    t = frozenset(poles)
    if len(t) != 3 or not all(isinstance(p, Pole) for p in t):
        raise ValueError(f"a triad is exactly 3 distinct poles, got {poles!r}")
    return t


def triad_sort_key(t: Triad) -> tuple:
    return tuple(sorted(_POLE_ORDER[p] for p in t))


def default_triads() -> set[Triad]:
    """The default 10-triad family (core triangle plus specialty crossings)."""
    triads = {triad(*_CORE)}
    for x in _SPECIALTY:
        for pair in combinations(_CORE, 2):
            triads.add(triad(x, *pair))
    return triads


class UseCase(NamedTuple):
    id: str
    description: str
    involvements: frozenset  # of Triad


def default_use_cases() -> list[UseCase]:
    """The three seed communities, each exercising every default triad."""
    all_triads = frozenset(default_triads())
    return [
        UseCase("case1", "Naakosenda cultural community organizing a cultural event in Mokolo", all_triads),
        UseCase("case2", "CDE-SAARE community building a rural library in Kolara", all_triads),
        UseCase("case3", "Club 2-0 sport community organizing a holiday soccer tournament in Maroua", all_triads),
    ]


class ImplicationTable(NamedTuple):
    per_case: dict[str, dict[Pole, int]]
    totals: dict[Pole, int]

    def render(self) -> str:
        poles = [Pole.COMMUNITY, Pole.OBJECT, Pole.SUBJECT, Pole.RULES, Pole.DIVISION_OF_LABOUR, Pole.TOOLS]
        header = ["Case"] + [p.display for p in poles]
        rows = [[case] + [str(counts[p]) for p in poles] for case, counts in self.per_case.items()]
        rows.append(["Total"] + [str(self.totals[p]) for p in poles])
        widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in [header] + rows]
        return "\n".join(lines)


def implication_table(triads: Iterable[Triad], cases: Iterable[UseCase]) -> ImplicationTable:
    """Count, per use case and in total, how many triads involve each pole."""
    triad_set = set(triads)
    per_case: dict[str, dict[Pole, int]] = {}
    totals = {p: 0 for p in Pole}
    for case in cases:
        unknown = set(case.involvements) - triad_set
        if unknown:
            raise ValueError(f"use case {case.id!r} references unknown triads: {sorted(map(triad_sort_key, unknown))}")
        counts = {p: 0 for p in Pole}
        for t in case.involvements:
            for p in t:
                counts[p] += 1
                totals[p] += 1
        per_case[case.id] = counts
    return ImplicationTable(per_case, totals)


class _Candidate(NamedTuple):
    name: str
    source: Pole
    target: Pole
    origin_triad: Triad


class CandidateRelation(_Candidate):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CandidateRelation:
        c = super().__new__(cls, *args, **kwargs)
        if c.source == c.target:
            raise ValueError("candidate relation endpoints must differ")
        if not {c.source, c.target} <= c.origin_triad:
            raise ValueError("candidate endpoints must lie inside the origin triad")
        return c

    @classmethod
    def _make(cls, iterable) -> CandidateRelation:  # so that `_replace` checks too
        return cls(*iterable)


# Directed edges with established names; everything else gets a synthesized name.
_NAMED_EDGES = {
    (Pole.RULES, Pole.OBJECT): "isRespectedBy",
    (Pole.OBJECT, Pole.COMMUNITY): "isOrganisedBy",
    (Pole.COMMUNITY, Pole.RULES): "isRegulatedBy",
    (Pole.TOOLS, Pole.COMMUNITY): "BelongsTo",
}

_RULES_OBJECT_COMMUNITY_CYCLE = [
    (Pole.RULES, Pole.OBJECT),
    (Pole.OBJECT, Pole.COMMUNITY),
    (Pole.COMMUNITY, Pole.RULES),
]


def _edge_name(source: Pole, target: Pole) -> str:
    return _NAMED_EDGES.get((source, target), f"relatesTo_{source.value}_{target.value}")


def default_naming(triads: Iterable[Triad]) -> dict[Triad, list[tuple[str, Pole, Pole]]]:
    """A directed, named 3-cycle for every triad.

    The Rules-Object-Community triangle keeps the orientation implied by
    its three named edges; other triads are oriented along the fixed pole
    order, which puts the Tools-to-Community edge (BelongsTo) on its
    named direction.
    """
    naming = {}
    for t in triads:
        if t == triad(Pole.RULES, Pole.OBJECT, Pole.COMMUNITY):
            edges = _RULES_OBJECT_COMMUNITY_CYCLE
        else:
            ordered = sorted(t, key=lambda p: _POLE_ORDER[p])
            edges = [
                (ordered[0], ordered[1]),
                (ordered[1], ordered[2]),
                (ordered[2], ordered[0]),
            ]
        naming[t] = [(_edge_name(s, o), s, o) for s, o in edges]
    return naming


def candidate_relations(
    triads: Iterable[Triad],
    naming: Optional[dict[Triad, list[tuple[str, Pole, Pole]]]] = None,
) -> list[CandidateRelation]:
    """Three directed candidates per triad, in deterministic triad order."""
    ordered = sorted(set(triads), key=triad_sort_key)
    if naming is None:
        naming = default_naming(ordered)
    out = []
    for t in ordered:
        try:
            edges = naming[t]
        except KeyError:
            raise ValueError(f"naming covers no edges for triad {sorted(p.value for p in t)}") from None
        if len(edges) != 3:
            raise ValueError(f"triad requires exactly 3 named edges, got {len(edges)}")
        sources = {s for _, s, _ in edges}
        targets = {o for _, _, o in edges}
        if sources != t or targets != t:
            raise ValueError(f"edges do not form a 3-cycle over triad {sorted(p.value for p in t)}")
        for name, s, o in edges:
            out.append(CandidateRelation(name, s, o, t))
    return out


class DedupeStats(NamedTuple):
    candidates: int
    pairs: int
    triads: int

    @property
    def reduction(self) -> float:
        if self.candidates == 0:
            return 0.0
        return 1.0 - self.pairs / self.candidates

    def summary(self) -> str:
        return (
            f"candidates={self.candidates} pairs={self.pairs} "
            f"reduction={round(self.reduction * 100)}%"
        )


def dedupe_pairs(candidates: list[CandidateRelation]) -> tuple[set[frozenset], DedupeStats]:
    """Collapse directed candidates to distinct unordered pole pairs."""
    pairs = {frozenset((c.source, c.target)) for c in candidates}
    triads = {c.origin_triad for c in candidates}
    return pairs, DedupeStats(len(candidates), len(pairs), len(triads))


KEEP = "keep"
DROP = "drop"


class _Decision(NamedTuple):
    pair: frozenset  # of 2 Poles
    verdict: str
    name: Optional[str] = None
    source: Optional[Pole] = None
    target: Optional[Pole] = None
    justification: str = ""


class DecisionEntry(_Decision):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> DecisionEntry:
        e = super().__new__(cls, *args, **kwargs)
        if e.verdict not in (KEEP, DROP):
            raise ValueError(f"verdict must be keep or drop, got {e.verdict!r}")
        if e.verdict == KEEP:
            if not e.name or e.source is None or e.target is None:
                label = ",".join(sorted(p.value for p in e.pair))
                raise ValueError(f"keep entry for {label} needs a name and a direction")
            if frozenset((e.source, e.target)) != e.pair:
                raise ValueError(f"direction of {e.name} does not match its pair")
        return e

    @classmethod
    def _make(cls, iterable) -> DecisionEntry:  # so that `_replace` checks too
        return cls(*iterable)


class DecisionTable(NamedTuple):
    entries: list[DecisionEntry]

    def covered_pairs(self) -> set[frozenset]:
        return {e.pair for e in self.entries}


def parse_decision_table(text: str) -> DecisionTable:
    """Read the line-oriented decision-table format.

    Each non-comment line has pipe-separated fields:

        PoleA,PoleB | keep | name | Source->Target | justification
        PoleA,PoleB | drop | | | justification
    """
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 5:
            raise ValueError(f"decision table line {lineno}: expected 5 fields, got {len(parts)}")
        pair_txt, verdict, name, direction, justification = parts
        poles = [Pole.parse(p) for p in pair_txt.split(",")]
        if len(set(poles)) != 2:
            raise ValueError(f"decision table line {lineno}: pair needs 2 distinct poles")
        source = target = None
        if direction:
            src_txt, _, tgt_txt = direction.partition("->")
            source, target = Pole.parse(src_txt), Pole.parse(tgt_txt)
        entries.append(
            DecisionEntry(
                frozenset(poles), verdict, name or None, source, target, justification
            )
        )
    return DecisionTable(entries)


def format_decision_table(table: DecisionTable) -> str:
    lines = ["# pair | verdict | name | direction | justification"]
    for e in table.entries:
        pair_txt = ",".join(sorted(p.value for p in e.pair))
        direction = f"{e.source.value}->{e.target.value}" if e.source else ""
        lines.append(
            f"{pair_txt} | {e.verdict} | {e.name or ''} | {direction} | {e.justification}"
        )
    return "\n".join(lines) + "\n"


class DirectedRelation(NamedTuple):
    """A named directed relation between model nodes (poles or Locality)."""

    name: str
    source: str
    target: str


def apply_decisions(pairs: set[frozenset], table: DecisionTable) -> list[DirectedRelation]:
    """Keep entries of the table, in table order, restricted to the given pairs."""
    uncovered = pairs - table.covered_pairs()
    if uncovered:
        labels = sorted(",".join(sorted(p.value for p in pair)) for pair in uncovered)
        raise ValueError(f"decision table does not cover pairs: {labels}")
    out = []
    for e in table.entries:
        if e.pair in pairs and e.verdict == KEEP:
            out.append(DirectedRelation(e.name, e.source.value, e.target.value))
    return out


def full_relation_set(pole_relations: list[DirectedRelation]) -> list[DirectedRelation]:
    """Append the three Locality relations to the pole-level outcome."""
    if len(pole_relations) != 7:
        print(
            f"warning: expected 7 pole-level relations, got {len(pole_relations)}",
            file=sys.stderr,
        )
    return list(pole_relations) + [
        DirectedRelation("isLocatedIn", Pole.COMMUNITY.value, LOCALITY),
        DirectedRelation("isOccuredIn", Pole.OBJECT.value, LOCALITY),
        DirectedRelation("isBorderdBy", LOCALITY, LOCALITY),
    ]


def default_concept_mapping() -> dict[str, str]:
    """Pole-to-concept substitution, plus the Locality passthrough."""
    return {
        Pole.TOOLS.value: ONTOSOC_NS + "Resource",
        Pole.OBJECT.value: ONTOSOC_NS + "Activity",
        Pole.SUBJECT.value: ONTOSOC_NS + "Individual",
        Pole.RULES.value: ONTOSOC_NS + "Regulations",
        Pole.COMMUNITY.value: ONTOSOC_NS + "Community",
        Pole.DIVISION_OF_LABOUR.value: ONTOSOC_NS + "Role",
        LOCALITY: ONTOSOC_NS + "Locality",
    }


def map_to_concepts(
    relations: list[DirectedRelation],
    mapping: Optional[dict[str, str]] = None,
    namespace: str = ONTOSOC_NS,
) -> list[PropertyDef]:
    """Substitute concept IRIs for relation endpoints."""
    if mapping is None:
        mapping = default_concept_mapping()
    out = []
    for rel in relations:
        for end in (rel.source, rel.target):
            if end not in mapping:
                raise ValueError(f"no concept mapped for node {end!r}")
        out.append(PropertyDef(namespace + rel.name, mapping[rel.source], mapping[rel.target]))
    return out


def default_decision_table() -> DecisionTable:
    """The shipped keep/drop table for the 12 default pairs."""
    from .resources import decision_table_path

    return parse_decision_table(decision_table_path().read_text(encoding="utf-8"))


def schema_from_relations(relations: list[DirectedRelation]) -> SchemaDef:
    """The builtin schema with the domains and ranges of ``relations``."""
    derived = {p.iri: p for p in map_to_concepts(relations)}
    curated = builtin_schema()
    properties = tuple(
        PropertyDef(p.iri, derived[p.iri].domain, derived[p.iri].range, aliases=p.aliases)
        if p.iri in derived
        else p
        for p in curated.properties
    )
    if set(derived) != {p.iri for p in curated.properties}:
        raise ValueError("derived relation set does not match the canonical property set")
    return SchemaDef(curated.classes, properties, curated.disjointness, curated.alignments, curated.namespace)
