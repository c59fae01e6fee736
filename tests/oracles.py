"""Independent brute-force oracles the implementation is checked against.

These stay deliberately naive: linear scans and exhaustive enumeration,
with no use of the engine's indexes or join machinery.
"""

import json
import re
from itertools import product

from ontosoc.rdf import XSD_STRING, Blank, Graph, Iri, Literal, PrefixMap, Term, Triple, term_key
from ontosoc.schema import UnknownClassError
from ontosoc.sparql import TriplePattern, Var
from ontosoc.turtle import Document


def brute_force_match(graph: Graph, s=None, p=None, o=None) -> set[Triple]:
    """Linear-scan filter over all triples."""
    out = set()
    for t in graph:
        if s is not None and t.subject != s:
            continue
        if p is not None and t.predicate != p:
            continue
        if o is not None and t.object != o:
            continue
        out.add(t)
    return out


def _graph_terms(graph: Graph) -> list[Term]:
    terms = set()
    for t in graph:
        terms.update((t.subject, t.predicate, t.object))
    return sorted(terms, key=lambda t: t.n3())


def brute_force_bgp(graph: Graph, patterns: list[TriplePattern]) -> set[frozenset]:
    """Enumerate every assignment of pattern variables over graph terms
    and keep those under which all patterns are triples of the graph."""
    variables = sorted({v for p in patterns for v in p.variables()})
    terms = _graph_terms(graph)
    if not variables:
        ok = all(_grounded(p, {}) in graph for p in patterns)
        return {frozenset()} if ok else set()
    solutions = set()
    for assignment in product(terms, repeat=len(variables)):
        binding = dict(zip(variables, assignment))
        grounded = [_grounded(p, binding) for p in patterns]
        if all(g is not None and g in graph for g in grounded):
            solutions.add(frozenset(binding.items()))
    return solutions


def nested_loop_rows(graph: Graph, required: list[TriplePattern], optional=None) -> list[dict]:
    """The solutions of ``required``, then left-joined with the patterns in
    ``optional`` (if given), in nested-loop order: each pattern, left to
    right, extends each row with the triples a linear scan finds under
    it, taken in `Triple.sort_key` order."""

    def join(rows, patterns):
        for pattern in patterns:
            rows = [ext for row in rows for ext in _extensions(graph, pattern, row)]
        return rows

    rows = join([{}], required)
    if optional is not None:
        rows = [ext for row in rows for ext in (join([row], optional) or [row])]
    return rows


def _extensions(graph: Graph, pattern: TriplePattern, row: dict) -> list[dict]:
    slots = (pattern.subject, pattern.predicate, pattern.object)
    bound = [row.get(s.name) if isinstance(s, Var) else s for s in slots]
    out = []
    for t in sorted(brute_force_match(graph, *bound), key=Triple.sort_key):
        extended = dict(row)
        for slot, value in zip(slots, (t.subject, t.predicate, t.object)):
            if isinstance(slot, Var) and extended.setdefault(slot.name, value) != value:
                break
        else:
            out.append(extended)
    return out


def _grounded(pattern: TriplePattern, binding: dict):
    def sub(slot):
        return binding[slot.name] if isinstance(slot, Var) else slot

    s, p, o = sub(pattern.subject), sub(pattern.predicate), sub(pattern.object)
    if isinstance(s, Literal) or not isinstance(p, Iri):
        return None
    return Triple(s, p, o)


RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
_VOCAB = {
    RDF_TYPE,
    "http://www.w3.org/2000/01/rdf-schema#subClassOf",
    "http://www.w3.org/2000/01/rdf-schema#domain",
    "http://www.w3.org/2000/01/rdf-schema#range",
    "http://www.w3.org/2000/01/rdf-schema#label",
    "http://www.w3.org/2002/07/owl#disjointWith",
    "http://www.w3.org/2002/07/owl#equivalentClass",
    "http://www.w3.org/2002/07/owl#equivalentProperty",
}


def scan_class_iris(schema) -> set[str]:
    return {c.iri for c in schema.classes}


def scan_superclass_closure(schema, iri: str) -> set[str]:
    """The superclass links followed upward from ``iri``, a declared class."""
    by_iri = {c.iri: c for c in schema.classes}
    if iri not in by_iri:
        raise UnknownClassError(f"unknown class: {iri}")
    out = set()
    cur = iri
    while cur is not None:
        out.add(cur)
        cur = by_iri[cur].superclass
    return out


def scan_lookup_property(schema, iri: str):
    """The first property whose canonical IRI is ``iri``, else the first
    with an alias of that IRI, else None."""
    for p in schema.properties:
        if p.iri == iri:
            return p
    for p in schema.properties:
        if any(a.iri == iri for a in p.aliases):
            return p
    return None


def scan_signatures_for(schema, iri: str) -> list:
    """The first property with canonical IRI ``iri`` and its aliases, else
    the first alias of that IRI alone, else nothing."""
    for p in schema.properties:
        if p.iri == iri:
            return [p] + list(p.aliases)
    for p in schema.properties:
        for a in p.aliases:
            if a.iri == iri:
                return [a]
    return []


def _types_by_scan(graph: Graph, schema):
    """A function from a node to its schema classes and their
    superclasses, each call scanning every triple."""
    class_iris = scan_class_iris(schema)

    def types_of(node) -> set[str]:
        found = set()
        for t in graph:
            if (
                t.subject == node
                and t.predicate.value == RDF_TYPE
                and isinstance(t.object, Iri)
                and t.object.value in class_iris
            ):
                for sup in scan_superclass_closure(schema, t.object.value):
                    found.add(sup)
        return found

    return types_of


def json_dumps_results(table) -> str:
    """SPARQL JSON results built as a dict and rendered by the standard
    library's indenting encoder."""
    bindings = []
    for row in table.rows:
        binding = {}
        for var in table.header:
            if var not in row:
                continue
            term = row[var]
            if isinstance(term, Iri):
                binding[var] = {"type": "uri", "value": term.value}
            elif isinstance(term, Blank):
                binding[var] = {"type": "bnode", "value": term.label}
            else:
                entry = {"type": "literal", "value": term.lexical}
                if term.language is not None:
                    entry["xml:lang"] = term.language
                elif term.datatype != XSD_STRING:
                    entry["datatype"] = term.datatype
                binding[var] = entry
        bindings.append(binding)
    return json.dumps({"head": {"vars": table.header}, "results": {"bindings": bindings}}, indent=2)


def brute_force_violations(graph: Graph, schema) -> list[str]:
    """Every violation's machine line, in report order: by the N3 of the
    triple's subject, predicate and object (a node alone sorts before its
    triples), then by kind, then by the clashing classes.  Each triple is
    checked on its own against every signature of its predicate."""
    types_of = _types_by_scan(graph, schema)

    def found(classes) -> str:
        return ",".join(sorted(classes)) or "-"

    keyed = []
    for t in graph:
        if t.predicate.value in _VOCAB:
            continue
        sigs = scan_signatures_for(schema, t.predicate.value)
        if not sigs:
            continue
        literal = isinstance(t.object, Literal)
        s_types = types_of(t.subject)
        o_types = set() if literal else types_of(t.object)
        if any(sig.domain in s_types and sig.range in o_types for sig in sigs):
            continue
        best = sigs[0]  # the first signature with the most ends satisfied
        for sig in sigs:
            if (sig.domain in s_types) + (sig.range in o_types) > (best.domain in s_types) + (best.range in o_types):
                best = sig
        ends = (t.subject.n3(), t.predicate.n3(), t.object.n3())
        fields = "\t".join(ends)
        if best.domain not in s_types:
            keyed.append((ends + ("domain",), f"domain\t{fields}\t{best.domain}\t{found(s_types)}"))
        if literal:
            keyed.append((ends + ("range",), f"range\t{fields}\t{best.range}\t-"))
        elif best.range not in o_types:
            keyed.append((ends + ("range",), f"range\t{fields}\t{best.range}\t{found(o_types)}"))
    for node in {t.subject for t in graph if t.predicate.value == RDF_TYPE}:
        classes = types_of(node)
        for a, b in {(ax.class_a, ax.class_b) for ax in schema.disjointness}:
            if a in classes and b in classes:
                line = f"disjointness\t{node.n3()}\t-\t-\t-\t{a},{b}"
                keyed.append(((node.n3(), "", "", "disjointness", a, b), line))
    return [line for _, line in sorted(keyed)]


def brute_force_violation_count(graph: Graph, schema) -> int:
    return len(brute_force_violations(graph, schema))


def reference_added_violations(before: list, after: list) -> list:
    """The violations of ``after`` that ``before`` has none of: none of the
    same kind on the same triple (domain, range), or on the same node and
    class pair (disjointness), by diffing the two whole lists.  A
    violation whose found classes changed is not added."""

    def key(v) -> tuple:
        return (v.kind, v.triple) if v.triple is not None else (v.kind, v.instance, v.found)

    old = {key(v) for v in before}
    return [v for v in after if key(v) not in old]


_PN_LOCAL = re.compile(r"[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?$|^$")


def _reference_compress(iri: Iri, prefixes: PrefixMap) -> str:
    best_label, best_ns = None, ""
    for label, ns in prefixes.items():
        if iri.value.startswith(ns) and len(ns) > len(best_ns):
            local = iri.value[len(ns) :]
            if _PN_LOCAL.match(local) and "." not in local:
                best_label, best_ns = label, ns
    if best_label is None:
        return iri.n3()
    return f"{best_label}:{iri.value[len(best_ns):]}"


def _reference_render(term: Term, prefixes: PrefixMap) -> str:
    if isinstance(term, Iri):
        return _reference_compress(term, prefixes)
    if isinstance(term, Literal) and term.datatype not in (None, XSD_STRING):
        quoted = term.n3()[: -len(term.datatype) - 4]
        return f"{quoted}^^{_reference_compress(Iri(term.datatype), prefixes)}"
    return term.n3()


def reference_serialize_turtle(doc: Document) -> str:
    """The Turtle writer's layout built the long way: triples regrouped
    by subject, each subject block sorted on its own, and every
    occurrence of a term rendered afresh against every prefix."""
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
            pred_txt = "a" if pred.value == RDF_TYPE else _reference_render(pred, doc.prefixes)
            obj_txt = ", ".join(_reference_render(o, doc.prefixes) for o in objs)
            rendered.append(f"    {pred_txt} {obj_txt}")
        out.append(_reference_render(subject, doc.prefixes) + "\n" + " ;\n".join(rendered) + " .")
    return "\n".join(out) + ("\n" if out else "")
