"""Tests for the benchmark's own code: inputs, answers, accounting, spans."""

from __future__ import annotations

import json
import os
import random
from itertools import islice
from pathlib import Path

from bench import gen, measure, tracing

REPO = Path(__file__).resolve().parent.parent


def _inputs(seed: int, k: int = 40) -> tuple:
    corpus = gen.make_corpus(seed, k, faults=True)
    reads = [(r.kind, r.query) for r in islice(gen.read_mix(seed, k, "c0"), 60)]
    deltas = [d.body for d in islice(gen.deltas(seed, k), 30)]
    return corpus, corpus.turtle().encode(), reads, deltas


def test_same_seed_gives_byte_identical_inputs():
    assert _inputs(5)[1:] == _inputs(5)[1:]


def test_other_seed_moves_keys_and_faults_but_not_counts():
    a, a_bytes, a_reads, a_deltas = _inputs(5)
    b, b_bytes, b_reads, b_deltas = _inputs(6)
    assert a_bytes != b_bytes and a_reads != b_reads and a_deltas != b_deltas
    assert {f.copy for f in a.range_faults} != {f.copy for f in b.range_faults}
    assert {f.copy for f in a.disjoint_faults} != {f.copy for f in b.disjoint_faults}
    assert a.violation_counts() == b.violation_counts()
    assert a.triples == b.triples and len(a_bytes) > 0
    assert sum(kind == "report" for kind, _ in a_reads) == sum(kind == "report" for kind, _ in b_reads) == 6


def test_plan_matches_the_program_on_a_small_corpus():
    """The generator's expectations hold for ontosoc itself (a check on the plan, not the run)."""
    from ontosoc import builtin_schema, evaluate, parse_query, parse_turtle, validate

    corpus = gen.make_corpus(3, 20, faults=True)
    graph = parse_turtle(corpus.turtle()).graph
    assert len(graph) == corpus.triples
    report = validate(graph, builtin_schema())
    nodes = {"domain": [], "range": [], "disjointness": []}
    for v in report.violations:
        nodes[v.kind].append(v.machine_line().split("\t")[1].strip("<>"))
    assert {k: sorted(v) for k, v in nodes.items()} == corpus.violation_nodes()
    assert report.checked_triples == corpus.checked_triples
    table = evaluate(parse_query(gen.REPORT_QUERY), graph)
    rows = [tuple(row[v].value for v in gen.REPORT_VARS) for row in table.rows]
    assert rows == corpus.report_rows()
    for read in islice(gen.lookups(3, 20, "c0"), 30):
        got = evaluate(parse_query(read.query), graph)
        assert tuple(sorted(tuple(r[v].value for v in read.variables) for r in got.rows)) == read.expected


def test_copy_zero_is_the_shipped_corpus_and_query():
    from ontosoc import graph_equal, parse_turtle
    from ontosoc.rdf import Graph

    data = REPO / "src" / "ontosoc" / "data"
    shipped = Graph()
    for path in sorted((data / "corpus").glob("*.ttl")):
        shipped.update(parse_turtle(path.read_text(encoding="utf-8")).graph)
    assert graph_equal(parse_turtle(gen.make_corpus(1, 1, faults=False).turtle()).graph, shipped)
    assert gen.REPORT_QUERY == (data / "community_activities.rq").read_text(encoding="utf-8")
    golden = json.loads((REPO / "tests" / "golden" / "community_activities_results.json").read_text())
    golden_rows = [tuple(b[v]["value"] for v in gen.REPORT_VARS) for b in golden["results"]["bindings"]]
    copy0 = {gen.iri(c.community, 0) for c in gen.COMMUNITIES}
    assert [r for r in gen.make_corpus(9, 30, faults=True).report_rows() if r[0] in copy0] == golden_rows


def test_members_consistent_accepts_only_a_prefix_of_applied_writes():
    ds = list(islice(gen.deltas(2, 1), 40))
    community = ds[0].community
    joined = [d.person for d in ds if d.valid and d.community == community]
    base = {"http://example.org/soc/Someone"}
    assert len(joined) >= 2
    first, second = joined[0], joined[1]
    i_second = next(d.index for d in ds if d.person == second)
    assert gen.members_consistent(base | {first}, base, community, ds, 0, len(ds))
    assert gen.members_consistent(base, base, community, ds, 0, len(ds))
    assert not gen.members_consistent(base | {second}, base, community, ds, 0, len(ds))  # gap
    assert not gen.members_consistent(base, base, community, ds, i_second + 1, len(ds))  # acked write missing
    assert not gen.members_consistent(base | {first, second}, base, community, ds, 0, i_second)  # not yet sent
    assert not gen.members_consistent({first}, base, community, ds, 0, len(ds))  # base member missing


def test_write_amp_accounting_replaced_vs_appended(tmp_path):
    replaced, appended, untouched = tmp_path / "snap", tmp_path / "log", tmp_path / "same"
    replaced.write_bytes(b"x" * 1000)
    appended.write_bytes(b"y" * 500)
    untouched.write_bytes(b"z" * 300)
    before = measure.scan_dir(tmp_path)

    tmp = tmp_path / "snap.tmp"
    tmp.write_bytes(b"x" * 1010)
    os.replace(tmp, replaced)  # atomic replace: a new inode, counted in full
    with open(appended, "ab") as fh:
        fh.write(b"y" * 40)  # append: only the growth counts
    (tmp_path / "new").write_bytes(b"n" * 7)
    after = measure.scan_dir(tmp_path)

    assert measure.bytes_written(before, after) == 1010 + 40 + 7
    assert measure.bytes_written(after, after) == 0
    assert measure.dir_bytes(after) == 1010 + 540 + 300 + 7


def test_self_time_subtracts_nested_children_and_leaves():
    # root [0, 10] has children [1, 4] and [6, 7]; [1, 4] has a child [2, 3]
    spans = [
        ["root", 0.0, 10.0, None, "r:1", None, {"rdf.match": [3, 0.5, 9]}],
        ["a", 1.0, 4.0, 0, "r:1", None, None],
        ["b", 2.0, 3.0, 1, "r:1", None, None],
        ["c", 6.0, 7.0, 0, "r:1", None, None],
    ]
    assert tracing.self_times(spans) == [10 - 3 - 1 - 0.5, 3 - 1, 1, 1]
    assert tracing.covered(0, 10, [(1, 4), (2, 3), (3.5, 5), (12, 13)]) == 4


def test_tracer_links_spans_and_folds_leaves(tmp_path):
    tracer = tracing.Tracer(request="validate:0")
    leaf = tracer.leaf("rdf.match", lambda xs: list(xs), lambda a, r: len(r))
    count = tracer.counter("rdf.add", lambda: None)
    inner = tracer.span("inner", lambda: (leaf([1, 2]), count(), count()))
    outer = tracer.span("outer", lambda: (inner(), leaf([3])), lambda a, r: 7)
    outer()
    by_name = {s[tracing.NAME]: s for s in tracer.spans}
    assert by_name["inner"][tracing.PARENT] is by_name["outer"]
    assert by_name["inner"][tracing.LEAVES_AT]["rdf.match"][0::2] == [1, 2]
    assert by_name["inner"][tracing.LEAVES_AT]["rdf.add"][0] == 2
    assert by_name["outer"][tracing.LEAVES_AT]["rdf.match"][0::2] == [1, 1]
    assert by_name["outer"][tracing.SIZE] == 7

    tracer.dump(str(tmp_path / "spans.json"))
    doc = json.loads((tmp_path / "spans.json").read_text())
    means = tracing.per_kind_means(tracing.tally([doc], {}))
    assert list(means) == ["validate"]
    assert means["validate"]["rdf.match.calls"] == 2 and means["validate"]["rdf.add.calls"] == 2
    assert means["validate"]["outer.size"] == 7 and means["validate"]["inner.calls"] == 1


def test_percentile_rule_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    p99 = measure.percentile(samples, 99)
    assert (p99.value, p99.beyond, p99.n) == (90.0, 10, 100) and p99.label.startswith("p90 in place of p99")
    p50 = measure.percentile(samples, 50)
    assert (p50.value, p50.label, p50.beyond) == (50.5, "p50", 50)
    big = measure.percentile([float(i) for i in range(1, 2001)], 99)
    assert (big.value, big.label, big.beyond) == (1980.0, "p99", 20)
    few = measure.percentile([3.0, 1.0, 2.0], 90)
    assert few.value == 2.0 and "no higher percentile" in few.label
    tail = measure.percentile([float(i) for i in range(1, 22)], 90)
    assert (tail.value, tail.beyond) == (11.0, 10) and tail.label.startswith("p52 in place of p90")


def test_median_is_the_plain_median_for_any_sample_count():
    for n in range(1, 41):
        samples = [float(x) for x in random.Random(n).sample(range(n), n)]
        expected = (n - 1) / 2
        p50 = measure.percentile(samples, 50)
        assert measure.median(samples) == p50.value == expected
        assert (p50.label, p50.n, p50.beyond) == ("p50", n, n // 2)
