"""End-to-end acceptance checks for the pinned numbers and behaviors.

Each test prints exactly one PASS/FAIL line (visible with pytest -s) so the
whole gate can be read at a glance.
"""

import json
import signal
import subprocess
import sys
import threading
import urllib.parse
from pathlib import Path

import requests
from hypothesis import given, settings

from ontosoc import hat
from ontosoc.canonical import graph_equal
from ontosoc.rdf import Graph
from ontosoc.schema import ONTOSOC_NS, builtin_schema
from ontosoc.service import Server, load_state
from ontosoc.sparql import GroupPattern, TriplePattern, Var, evaluate, parse_query, to_json_results, _eval_group
from ontosoc.turtle import Document, parse_turtle, serialize_turtle
from ontosoc.validation import infer_types, validate

from . import resources
from .oracles import brute_force_bgp
from .strategies import graphs, pool_graphs
from .test_cli import _env
from .test_sparql import _patterns_strategy
from .test_validation import FAULT_EXPECTATIONS, FIXTURES

GOLDEN = Path(__file__).parent / "golden" / "community_activities_results.json"


def _gate(criterion, label, fn):
    try:
        fn()
    except BaseException:
        print(f"criterion {criterion}: FAIL - {label}")
        raise
    print(f"criterion {criterion}: PASS - {label}")


def test_criterion_1_implication_table():
    def check():
        triads = hat.default_triads()
        cases = hat.default_use_cases()
        table = hat.implication_table(triads, cases)
        # independent recount straight from the triad sets
        for case in cases:
            for pole in hat.Pole:
                expected = sum(1 for t in case.involvements if pole in t)
                assert table.per_case[case.id][pole] == expected
                assert expected == (7 if pole in hat._CORE else 3)
        for pole in hat.Pole:
            assert table.totals[pole] == (21 if pole in hat._CORE else 9)

    _gate(1, "involvement counts are (7,7,7,3,3,3) per case, (21,21,21,9,9,9) total", check)


def test_criterion_2_relation_derivation():
    def check():
        candidates = hat.candidate_relations(hat.default_triads())
        pairs, _ = hat.dedupe_pairs(candidates)
        final = hat.full_relation_set(
            hat.apply_decisions(pairs, hat.default_decision_table())
        )
        got = {(r.name, r.source, r.target) for r in final}
        assert got == {
            ("isUsedBy", "Tools", "Subject"),
            ("isMemberOf", "Subject", "Community"),
            ("isRegulatedBy", "Community", "Rules"),
            ("isCreatedBy", "DivisionOfLabour", "Community"),
            ("plays", "Subject", "DivisionOfLabour"),
            ("isRealisedBy", "DivisionOfLabour", "Object"),
            ("isOrganisedBy", "Object", "Community"),
            ("isLocatedIn", "Community", "Locality"),
            ("isOccuredIn", "Object", "Locality"),
            ("isBorderdBy", "Locality", "Locality"),
        }
        assert len(final) == 10

    _gate(2, "pipeline emits exactly the 10 expected relations", check)


def test_criterion_3_reduction_rate():
    def check():
        candidates = hat.candidate_relations(hat.default_triads())
        pairs, stats = hat.dedupe_pairs(candidates)
        assert stats.candidates == 30
        assert stats.pairs == 12
        assert len(pairs) == 12
        assert round(stats.reduction * 100) == 60
        assert "reduction=60%" in stats.summary()

    _gate(3, "30 candidates collapse to 12 pairs = 60% reduction", check)


def test_criterion_4_concept_mapping():
    def check():
        mapping = hat.default_concept_mapping()
        assert mapping == {
            "Tools": ONTOSOC_NS + "Resource",
            "Object": ONTOSOC_NS + "Activity",
            "Subject": ONTOSOC_NS + "Individual",
            "Rules": ONTOSOC_NS + "Regulations",
            "Community": ONTOSOC_NS + "Community",
            "DivisionOfLabour": ONTOSOC_NS + "Role",
            "Locality": ONTOSOC_NS + "Locality",
        }

    _gate(4, "pole-to-concept substitution matches all six rows", check)


def test_criterion_5_schema_shape():
    def check():
        schema = builtin_schema()
        roots = [c for c in schema.classes if c.superclass is None]
        assert len(roots) == 7
        individual_children = [
            c for c in schema.classes if c.superclass == ONTOSOC_NS + "Individual"
        ]
        assert individual_children == []
        assert len(schema.properties) == 10
        assert len(schema.disjointness) == 21

    _gate(5, "7 upper classes, Individual childless, 10 properties, 21 disjointness axioms", check)


def _nested_loop_oracle(graph):
    """Hand-rolled evaluation of the shipped query: one mandatory pattern,
    three independent OPTIONALs, ordered by community IRI."""
    ns = "http://maroua-univ/ns/ontosoc#"

    def lookup(subject, predicate):
        hits = [t.object for t in graph if t.subject == subject and t.predicate.value == predicate]
        assert len(hits) <= 1
        return hits[0] if hits else None

    rows = []
    for t in graph:
        if t.predicate.value != ns + "isUsedBy":
            continue
        task, tools = t.subject, t.object
        activity = None
        for t2 in graph:
            if t2.predicate.value == ns + "isRealizeBy" and t2.object == task:
                activity = t2.subject
        row = {"task": task, "tools": tools}
        if activity is not None:
            row["Activity"] = activity
        person = lookup(task, ns + "isPlayedBy")
        if person is not None:
            row["person"] = person
        community = lookup(task, ns + "isCreatedBy")
        if community is not None:
            row["Communities"] = community
        rows.append(row)
    rows.sort(key=lambda r: ("Communities" not in r, r.get("Communities") and r["Communities"].value or ""))
    return rows


def test_criterion_6_community_activities_query(corpus_graph):
    def check():
        ast = parse_query(resources.community_activities_query())
        table = evaluate(ast, corpus_graph)
        payload = json.loads(to_json_results(table))
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert payload == golden

        oracle_rows = _nested_loop_oracle(corpus_graph)
        assert table.rows == oracle_rows
        assert len(table.rows) == 3
        communities = [r["Communities"].value for r in table.rows]
        assert communities == sorted(communities)
        naakosenda = next(
            r for r in table.rows if r["Communities"].value.endswith("Naakosenda")
        )
        assert naakosenda["person"].value.endswith("Tangoche")

    _gate(6, "shipped query returns the 3 golden rows with person=Tangoche for Naakosenda", check)


def test_criterion_7_validator(schema, corpus_graph):
    def check():
        report = validate(corpus_graph, schema)
        assert report.conforms and report.violations == []
        for name, kind, count in FAULT_EXPECTATIONS:
            doc = parse_turtle((FIXTURES / name).read_text(encoding="utf-8"))
            fault_report = validate(doc.graph, schema)
            assert len(fault_report.violations) == count
            assert all(v.kind == kind for v in fault_report.violations)

    _gate(7, "corpus validates clean; all 6 fault fixtures hit their exact counts", check)


def test_criterion_8_property_suites(schema):
    @settings(max_examples=200, deadline=None)
    @given(graphs())
    def turtle_round_trip(graph):
        text = serialize_turtle(Document(graph=graph))
        assert graph_equal(parse_turtle(text).graph, graph)

    @settings(max_examples=100, deadline=None)
    @given(pool_graphs(), _patterns_strategy())
    def bgp_oracle(graph, patterns):
        rows = _eval_group(GroupPattern(required=patterns), graph, [{}])
        assert {frozenset(r.items()) for r in rows} == brute_force_bgp(graph, patterns)

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_size=30))
    def infer_idempotent(graph):
        once = infer_types(graph, schema)
        assert set(infer_types(once, schema)) == set(once)

    def check():
        turtle_round_trip()
        bgp_oracle()
        infer_idempotent()

    _gate(8, "round-trip x200, BGP-vs-brute-force x100, infer_types idempotence x100", check)


GOOD_TTL = """\
@prefix ontosoc: <http://maroua-univ/ns/ontosoc#> .
@prefix ex: <http://example.org/soc/> .

ex:Ngaoundere a ontosoc:Locality .
ex:Choir a ontosoc:Community ;
    ontosoc:isLocatedIn ex:Ngaoundere .
"""


def test_criterion_9_service(tmp_path):
    def check():
        # in-process: POST-then-query round trip, idempotent re-POST
        state = load_state(data_path=str(tmp_path / "kb.ttl"))
        srv = Server(state, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{srv.server_address[1]}"
        try:
            first = requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8"))
            assert first.status_code == 200 and first.json()["added"] == 3
            q = "SELECT ?c ?l WHERE { ?c <http://maroua-univ/ns/ontosoc#isLocatedIn> ?l }"
            resp = requests.get(f"{base}/sparql?query={urllib.parse.quote(q)}")
            [binding] = resp.json()["results"]["bindings"]
            assert binding["c"]["value"].endswith("Choir")
            assert binding["l"]["value"].endswith("Ngaoundere")
            second = requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8"))
            assert second.json()["added"] == 0
            acked_epoch = second.json()["epoch"]
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)

        # out-of-process: kill -9, restart, acknowledged epoch survives
        data_path = tmp_path / "kb2.ttl"

        def spawn():
            proc = subprocess.Popen(
                [sys.executable, "-m", "ontosoc.service", "--port", "0", "--data", str(data_path)],
                stdout=subprocess.PIPE,
                text=True,
                env=_env(),
            )
            with proc.stdout:  # the server writes nothing else to it
                line = proc.stdout.readline().strip()
            port = int(line.rsplit(":", 1)[1])
            return proc, f"http://127.0.0.1:{port}"

        proc, base = spawn()
        try:
            resp = requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8"))
            epoch = resp.json()["epoch"]
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        proc, base = spawn()
        try:
            health = requests.get(f"{base}/health").json()
            assert health == {"triples": 3, "epoch": epoch}
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)

        assert acked_epoch == 2

    _gate(9, "POST/query round trip, idempotent re-POST, kill-restart restores epoch", check)
