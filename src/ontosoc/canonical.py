"""Graph isomorphism: canonical blank-node labels and `graph_equal`.

Colour refinement, then a search over tied colours, as in Hogan,
"Canonical Forms for Isomorphic and Equivalent RDF Graphs" (2017).
Kept apart from `rdf` so a command that only loads a graph does not
compile it.
"""

from __future__ import annotations

from .rdf import Blank, Graph, Term, Triple


def _refine(color: dict[Blank, int], links: dict[Blank, list]) -> dict[Blank, int]:
    """Refine a colouring by each blank's colour and its blank neighbours'
    colours until a round splits no colour.  Colours are renumbered by
    signature rank each round, so they stay small and ordered, and never
    depend on the blanks' labels."""
    while True:
        sig = {b: (c, tuple(sorted((d, p, color[x]) for d, p, x in links[b]))) for b, c in color.items()}
        rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        refined = {b: rank[sig[b]] for b in color}
        if len(rank) == len(set(color.values())):
            return refined
        color = refined


def _blank_labels(graph: Graph) -> dict[Blank, str]:
    """Canonical labels for blank nodes: colour refinement, then a search
    over tied colours, as in Hogan, "Canonical Forms for Isomorphic and
    Equivalent RDF Graphs" (2017).

    Each connected component of blanks is labelled on its own, and the
    components are numbered in the order of their labelled triples, so
    equal components never branch the search.
    """
    incident: dict[Blank, list[Triple]] = {}
    for t in graph:
        for node in {t.subject, t.object}:
            if isinstance(node, Blank):
                incident.setdefault(node, []).append(t)
    seen: set[Blank] = set()
    components = []
    for start in incident:
        if start in seen:
            continue
        seen.add(start)
        nodes = [start]
        for node in nodes:  # grows while it is walked
            for t in incident[node]:
                for other in (t.subject, t.object):
                    if isinstance(other, Blank) and other not in seen:
                        seen.add(other)
                        nodes.append(other)
        components.append(_label_component(graph, nodes, incident))
    labels: dict[Blank, str] = {}
    for _, colors in sorted(components, key=lambda kc: kc[0]):
        offset = len(labels)
        labels.update((b, f"b{offset + c}") for b, c in colors.items())
    return labels


def _label_component(
    graph: Graph, nodes: list[Blank], incident: dict[Blank, list[Triple]]
) -> tuple[list, dict[Blank, int]]:
    """The least key and its numbering for one connected set of blanks.

    A blank's first colour ranks its triples to non-blank terms.  When
    refinement leaves a colour shared by several blanks, the search
    individualises each of them in turn and refines again.  At a leaf
    every blank has its own colour; the leaf whose triples, relabelled
    by colour, sort least wins.  A node is skipped when an automorphism
    fixing the current path maps a node already tried onto it, since its
    subtree yields the same leaves: either the exchange of the two nodes,
    or one generated by those that two leaves with equal triples revealed.
    """
    triples = list({t for b in nodes for t in incident[b]})
    fixed: dict[Blank, list] = {b: [] for b in nodes}
    links: dict[Blank, list] = {b: [] for b in nodes}
    for t in triples:
        p = t.predicate.n3()
        for node, d, other in ((t.subject, 0, t.object), (t.object, 1, t.subject)):
            if isinstance(node, Blank):
                if isinstance(other, Blank):
                    links[node].append((d, p, other))
                else:
                    fixed[node].append((d, p, other.n3()))
    first = {b: tuple(sorted(edges)) for b, edges in fixed.items()}
    rank = {sig: i for i, sig in enumerate(sorted(set(first.values())))}
    best: list = []  # [key, colours] of the least leaf so far
    automorphisms: list[dict[Blank, Blank]] = []

    def render(term: Term, color: dict[Blank, int]) -> str:
        return f"_:b{color[term]}" if isinstance(term, Blank) else term.n3()

    def twins(a: Blank, b: Blank) -> bool:
        """Whether exchanging ``a`` and ``b`` maps the graph onto itself."""
        swap = {a: b, b: a}
        return all(
            Triple(swap.get(t.subject, t.subject), t.predicate, swap.get(t.object, t.object)) in graph
            for t in incident[a] + incident[b]
        )

    def search(color: dict[Blank, int], path: list[Blank]) -> None:
        color = _refine(color, links)
        classes: dict[int, list[Blank]] = {}
        for b, c in color.items():
            classes.setdefault(c, []).append(b)
        tied = min((c for c, members in classes.items() if len(members) > 1), default=None)
        if tied is None:
            key = sorted(
                (render(t.subject, color), t.predicate.n3(), render(t.object, color))
                for t in triples
            )
            if not best or key < best[0]:
                best[:] = [key, color]
            elif key == best[0]:
                node_of = {c: b for b, c in best[1].items()}
                automorphisms.append({b: node_of[c] for b, c in color.items()})
            return
        tried: set[Blank] = set()
        for b in sorted(classes[tied], key=lambda n: n.label):
            fixing = [a for a in automorphisms if all(a[x] == x for x in path)]
            orbit, frontier = set(tried), list(tried)
            while frontier:
                x = frontier.pop()
                for a in fixing:
                    if a[x] not in orbit:
                        orbit.add(a[x])
                        frontier.append(a[x])
            if b in orbit or any(twins(a, b) for a in tried):
                continue
            tried.add(b)
            search({n: 2 * c + (n != b) for n, c in color.items()}, path + [b])

    search({b: rank[first[b]] for b in nodes}, [])
    return best[0], best[1]


def canonical_triples(graph: Graph) -> frozenset[Triple]:
    """The graph's triple set with blank nodes canonically relabeled."""
    relabel = _blank_labels(graph)

    def conv(term: Term) -> Term:
        if isinstance(term, Blank):
            return Blank(relabel[term])
        return term

    return frozenset(
        Triple(conv(t.subject), t.predicate, conv(t.object)) for t in graph
    )


def graph_equal(g1: Graph, g2: Graph) -> bool:
    """True iff the triple sets agree up to a blank-node bijection."""
    if len(g1) != len(g2):
        return False
    return canonical_triples(g1) == canonical_triples(g2)
