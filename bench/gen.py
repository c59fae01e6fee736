"""Seeded inputs for the benchmark, and the answers they must produce.

The corpus is a scale-up of the three shipped community files: copy ``i``
of each community gets every ``ex:`` local name suffixed with ``_i``
(copy 0 keeps the shipped names), so each copy adds 54 triples.  A fault
plan adds range and disjointness faults to a fixed number of copies; the
seed decides which copies, which faults, the order of the copies in the
file and every request key.

Every expected answer here is computed from the plan itself, never by
running ontosoc.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

ONTOSOC = "http://maroua-univ/ns/ontosoc#"
EX = "http://example.org/soc/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

PREFIXES = f"@prefix ontosoc: <{ONTOSOC}> .\n@prefix ex: <{EX}> .\n"


@dataclass(frozen=True)
class Community:
    """Local names of one shipped community file."""

    community: str
    individual: str
    locality: str
    regulations: str
    resource: str
    activity: str
    activity_class: str
    role: str


COMMUNITIES = (
    Community("CDE-SAARE", "Haman", "Kolara", "CDE-SAARE-Statutes", "BrickPress",
              "RuralLibraryConstruction", "EducationalActivity", "SiteForeman"),
    Community("Club_2_0", "Abba", "Maroua", "TournamentRules", "SoccerBalls",
              "HolidaySoccerTournament", "SportActivity", "Referee"),
    Community("Naakosenda", "Tangoche", "Mokolo", "NaakosendaCharter", "TraditionalDrums",
              "NaakosendaCulturalEvent", "CulturalActivity", "EventOrganizer"),
)

# The shipped community-activities query, verbatim.
REPORT_QUERY = """PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX owl: <http://www.w3.org/2002/07/owl#>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX ontosoc: <http://maroua-univ/ns/ontosoc#>
SELECT ?Communities ?Activity ?task ?person ?tools
WHERE {?task ontosoc:isUsedBy ?tools
        OPTIONAL { ?Activity ontosoc:isRealizeBy ?task }
        OPTIONAL { ?task ontosoc:isPlayedBy ?person }
        OPTIONAL { ?task ontosoc:isCreatedBy ?Communities }
} ORDER BY ?Communities
"""
REPORT_VARS = ("Communities", "Activity", "task", "person", "tools")

FAULT_RATE = 0.05  # share of copies given each kind of fault
TRIPLES_PER_COPY = 54
CHECKED_PER_COPY = 33  # schema-property triples that are not rdf:type
REPORTS_EVERY = 10  # one report per 10 read requests: 9 lookups to 1 report
INVALID_EVERY = 10  # every 10th write delta is invalid


def local(name: str, copy: int) -> str:
    return name if copy == 0 else f"{name}_{copy}"


def iri(name: str, copy: int) -> str:
    return EX + local(name, copy)


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


@dataclass(frozen=True)
class RangeFault:
    """``subject predicate object`` where the object has the wrong class.

    The predicates are ones the report query does not read, and each
    such triple breaks only its range: one range violation.
    """

    copy: int
    community: int
    predicate: str  # ontosoc local name
    obj: str  # ex: local name in the same copy

    @property
    def subject(self) -> str:
        return iri(COMMUNITIES[self.community].community, self.copy)


@dataclass(frozen=True)
class DisjointFault:
    """The copy's resource is also typed Community: one disjointness violation."""

    copy: int
    community: int

    @property
    def node(self) -> str:
        return iri(COMMUNITIES[self.community].resource, self.copy)


@dataclass(frozen=True)
class Corpus:
    seed: int
    k: int
    order: tuple[int, ...]
    range_faults: tuple[RangeFault, ...]
    disjoint_faults: tuple[DisjointFault, ...]

    @property
    def triples(self) -> int:
        return TRIPLES_PER_COPY * self.k + len(self.range_faults) + len(self.disjoint_faults)

    @property
    def checked_triples(self) -> int:
        return CHECKED_PER_COPY * self.k + len(self.range_faults)

    def violation_counts(self) -> dict[str, int]:
        return {"domain": 0, "range": len(self.range_faults), "disjointness": len(self.disjoint_faults)}

    def violation_nodes(self) -> dict[str, list[str]]:
        """Sorted offending node IRIs per kind (subject for range, instance for disjointness)."""
        return {
            "domain": [],
            "range": sorted(f.subject for f in self.range_faults),
            "disjointness": sorted(f.node for f in self.disjoint_faults),
        }

    def turtle(self) -> str:
        by_copy_range: dict[int, list[RangeFault]] = {}
        for f in self.range_faults:
            by_copy_range.setdefault(f.copy, []).append(f)
        by_copy_disjoint: dict[int, list[DisjointFault]] = {}
        for f in self.disjoint_faults:
            by_copy_disjoint.setdefault(f.copy, []).append(f)
        parts = [PREFIXES]
        for i in self.order:
            for c in COMMUNITIES:
                parts.append(_community_block(c, i))
            for f in by_copy_range.get(i, ()):
                parts.append(f"ex:{local(COMMUNITIES[f.community].community, i)} "
                             f"ontosoc:{f.predicate} ex:{local(f.obj, i)} .\n")
            for f in by_copy_disjoint.get(i, ()):
                parts.append(f"ex:{local(COMMUNITIES[f.community].resource, i)} a ontosoc:Community .\n")
        return "".join(parts)

    def report_rows(self) -> list[tuple[str, ...]]:
        """Expected report bindings (IRIs in REPORT_VARS order), in ORDER BY ?Communities order."""
        rows = [
            (iri(c.community, i), iri(c.activity, i), iri(c.role, i), iri(c.individual, i), iri(c.resource, i))
            for i in range(self.k)
            for c in COMMUNITIES
        ]
        rows.sort(key=lambda r: r[0])
        return rows


def _community_block(c: Community, i: int) -> str:
    """One shipped community file's 18 triples, with copy-``i`` names."""

    def n(name: str) -> str:
        return "ex:" + local(name, i)

    return (
        f"\n{n(c.community)} a ontosoc:Community ;\n"
        f"    ontosoc:isRegulatedBy {n(c.regulations)} ;\n"
        f"    ontosoc:isLocatedIn {n(c.locality)} .\n"
        f"{n(c.individual)} a ontosoc:Individual ;\n"
        f"    ontosoc:isMemberOf {n(c.community)} ;\n"
        f"    ontosoc:plays {n(c.role)} .\n"
        f"{n(c.locality)} a ontosoc:Locality .\n"
        f"{n(c.regulations)} a ontosoc:Regulations .\n"
        f"{n(c.resource)} a ontosoc:Resource .\n"
        f"{n(c.activity)} a ontosoc:{c.activity_class} ;\n"
        f"    ontosoc:isOrganisedBy {n(c.community)} ;\n"
        f"    ontosoc:isOccuredIn {n(c.locality)} ;\n"
        f"    ontosoc:isRealizeBy {n(c.role)} .\n"
        f"{n(c.role)} a ontosoc:Role ;\n"
        f"    ontosoc:isRealisedBy {n(c.activity)} ;\n"
        f"    ontosoc:isUsedBy {n(c.resource)} ;\n"
        f"    ontosoc:isPlayedBy {n(c.individual)} ;\n"
        f"    ontosoc:isCreatedBy {n(c.community)} .\n"
    )


def make_corpus(seed: int, k: int, faults: bool) -> Corpus:
    """The seeded k-copy corpus; with ``faults``, FAULT_RATE of the copies get each fault kind."""
    rng = _rng(seed, f"corpus:{k}")
    order = list(range(k))
    rng.shuffle(order)
    range_faults: list[RangeFault] = []
    disjoint_faults: list[DisjointFault] = []
    if faults:
        n = max(1, round(k * FAULT_RATE))
        for copy in sorted(rng.sample(range(k), n)):
            predicate, obj_field = rng.choice((("isRegulatedBy", "locality"), ("isLocatedIn", "regulations")))
            community = rng.randrange(len(COMMUNITIES))
            range_faults.append(
                RangeFault(copy, community, predicate, getattr(COMMUNITIES[community], obj_field))
            )
        for copy in sorted(rng.sample(range(k), n)):
            disjoint_faults.append(DisjointFault(copy, rng.randrange(len(COMMUNITIES))))
    return Corpus(seed, k, tuple(order), tuple(range_faults), tuple(disjoint_faults))


# ---------------------------------------------------------------------------
# read requests


@dataclass(frozen=True)
class Read:
    """One read request: a SPARQL query and its expected bindings.

    ``expected`` is the sorted list of rows, each a tuple of IRIs in
    ``variables`` order; None for the report, which is checked against
    ``Corpus.report_rows``.  ``community`` is set on member lookups,
    whose answer grows while writes are applied.
    """

    kind: str  # members | role | activities | report
    query: str
    variables: tuple[str, ...]
    expected: tuple[tuple[str, ...], ...] | None
    community: str | None = None


def _members(c: Community, i: int) -> Read:
    target = iri(c.community, i)
    return Read(
        "members",
        f"PREFIX ontosoc: <{ONTOSOC}>\nSELECT ?member WHERE {{ ?member ontosoc:isMemberOf <{target}> }}",
        ("member",),
        ((iri(c.individual, i),),),
        community=target,
    )


def _role(c: Community, i: int) -> Read:
    subject = iri(c.role, i)
    rows = sorted([
        (RDF_TYPE, ONTOSOC + "Role"),
        (ONTOSOC + "isRealisedBy", iri(c.activity, i)),
        (ONTOSOC + "isUsedBy", iri(c.resource, i)),
        (ONTOSOC + "isPlayedBy", iri(c.individual, i)),
        (ONTOSOC + "isCreatedBy", iri(c.community, i)),
    ])
    return Read("role", f"SELECT ?p ?o WHERE {{ <{subject}> ?p ?o }}", ("p", "o"), tuple(rows))


def _activities(c: Community, i: int) -> Read:
    return Read(
        "activities",
        f"PREFIX ontosoc: <{ONTOSOC}>\nSELECT ?activity ?locality WHERE {{ "
        f"?activity ontosoc:isOrganisedBy <{iri(c.community, i)}> . "
        f"?activity ontosoc:isOccuredIn ?locality }}",
        ("activity", "locality"),
        ((iri(c.activity, i), iri(c.locality, i)),),
    )


REPORT = Read("report", REPORT_QUERY, REPORT_VARS, None)
_LOOKUPS = (_members, _role, _activities)


def lookups(seed: int, k: int, stream: str) -> Iterator[Read]:
    """Endless seeded lookups, keys uniform over the copies and communities."""
    rng = _rng(seed, f"lookups:{k}:{stream}")
    while True:
        shape = rng.choice(_LOOKUPS)
        yield shape(COMMUNITIES[rng.randrange(len(COMMUNITIES))], rng.randrange(k))


def read_mix(seed: int, k: int, stream: str) -> Iterator[Read]:
    """Endless seeded mix: in each block of 10 reads, one report at a seeded position."""
    rng = _rng(seed, f"mix:{k}:{stream}")
    keys = lookups(seed, k, stream)
    while True:
        at = rng.randrange(REPORTS_EVERY)
        for j in range(REPORTS_EVERY):
            yield REPORT if j == at else next(keys)


# ---------------------------------------------------------------------------
# write deltas


@dataclass(frozen=True)
class Delta:
    """A new Individual who joins a community and plays a role (3 triples).

    Every INVALID_EVERY-th delta plays a Locality instead, which the
    validator must reject with a 422 and leave the graph unchanged.
    """

    index: int
    person: str
    community: str
    valid: bool
    body: str


def deltas(seed: int, k: int) -> Iterator[Delta]:
    """Endless seeded write deltas against a k-copy corpus."""
    rng = _rng(seed, f"deltas:{k}")
    n = 0
    while True:
        joins = COMMUNITIES[rng.randrange(len(COMMUNITIES))]
        join_copy = rng.randrange(k)
        plays = COMMUNITIES[rng.randrange(len(COMMUNITIES))]
        plays_copy = rng.randrange(k)
        valid = n % INVALID_EVERY != INVALID_EVERY - 1
        played = plays.role if valid else plays.locality
        person = f"Joiner_{n}"
        body = (
            PREFIXES
            + f"ex:{person} a ontosoc:Individual ;\n"
            f"    ontosoc:isMemberOf ex:{local(joins.community, join_copy)} ;\n"
            f"    ontosoc:plays ex:{local(played, plays_copy)} .\n"
        )
        yield Delta(n, EX + person, iri(joins.community, join_copy), valid, body)
        n += 1


def members_consistent(
    answer: set[str], base: set[str], community: str, applied: list[Delta], low: int, high: int
) -> bool:
    """Whether a member lookup answer matches the graph after some write prefix.

    ``applied`` is the delta sequence in order; the answer must equal the
    base members plus the valid joiners of ``community`` among the first
    ``n`` deltas, for some ``n`` with ``low <= n <= high`` (writes
    acknowledged before the read was sent, and started before its reply
    arrived).
    """
    if not base <= answer:
        return False
    joined = [d.person for d in applied[:high] if d.valid and d.community == community]
    extra = answer - base
    cut = 0
    while cut < len(joined) and joined[cut] in extra:
        cut += 1
    if set(joined[:cut]) != extra:
        return False
    must = sum(1 for d in applied[:low] if d.valid and d.community == community)
    return cut >= must
