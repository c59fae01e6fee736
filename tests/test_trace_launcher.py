"""The traced service path of the benchmark, end to end.

``bench/run.py --trace 1`` starts the service through ``bench.launcher``
with spans installed around the handler methods; this runs that path
once per request kind: one post or one query carrying its request id,
then SIGTERM, then the span dump.
"""

import json
import os
import signal
import subprocess
import sys
import urllib.parse
from pathlib import Path

from bench.measure import request
from bench.tracing import HANDLER_SPAN, NAME, PARENT, REQUEST, REQUEST_HEADER

ROOT = Path(__file__).resolve().parent.parent
DELTA = b"<http://example.org/soc/Garoua> a <http://maroua-univ/ns/ontosoc#Locality> .\n"


def _traced(tmp_path, method, path, request_id, body=None):
    """The span dump of a traced service that answered one request:
    (status, body, spans)."""
    spans_path, data = tmp_path / "spans.json", tmp_path / "kb.ttl"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "bench.launcher", "--spans", str(spans_path), "serve", "--port", "0", "--data", str(data)]
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        line = proc.stdout.readline().decode("utf-8")
        assert line.startswith("listening on 127.0.0.1:"), proc.stderr.read().decode()
        port = int(line.rsplit(":", 1)[1])
        status, answer = request(port, method, path, body=body, headers={REQUEST_HEADER: request_id}, timeout=30)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0, proc.stderr.read().decode()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return status, answer, json.loads(spans_path.read_text(encoding="utf-8"))["spans"]


def _children_of_the_one_handler_span(spans, request_id):
    handles = [i for i, s in enumerate(spans) if s[NAME] == HANDLER_SPAN and s[REQUEST] == request_id]
    assert len(handles) == 1
    return [s for s in spans if s[PARENT] == handles[0]]


def test_a_traced_post_records_its_handler_and_apply_post_spans(tmp_path):
    status, body, spans = _traced(tmp_path, "POST", "/graph", body=DELTA, request_id="post:0")
    assert (status, json.loads(body)) == (200, {"added": 1, "epoch": 1})
    children = _children_of_the_one_handler_span(spans, "post:0")
    assert [s[NAME] for s in children] == ["service.apply_post"]
    assert children[0][REQUEST] == "post:0"


def test_a_traced_query_records_its_handler_and_run_query_spans(tmp_path):
    query = urllib.parse.quote("SELECT * WHERE { ?s ?p ?o }")
    status, body, spans = _traced(tmp_path, "GET", f"/sparql?query={query}", request_id="lookup:0")
    assert (status, json.loads(body)["results"]["bindings"]) == (200, [])
    children = _children_of_the_one_handler_span(spans, "lookup:0")
    assert [s[NAME] for s in children] == ["service.run_query"]
    assert children[0][REQUEST] == "lookup:0"
