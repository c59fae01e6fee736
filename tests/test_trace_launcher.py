"""The traced service path of the benchmark, end to end.

``bench/run.py --trace 1`` starts the service through ``bench.launcher``
with spans installed around the handler methods; this runs that path
once: one post carrying its request id, then SIGTERM, then the span dump.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from bench.measure import request
from bench.tracing import HANDLER_SPAN, NAME, PARENT, REQUEST, REQUEST_HEADER

ROOT = Path(__file__).resolve().parent.parent
DELTA = b"<http://example.org/soc/Garoua> a <http://maroua-univ/ns/ontosoc#Locality> .\n"


def test_a_traced_post_records_its_handler_and_apply_post_spans(tmp_path):
    spans_path, data = tmp_path / "spans.json", tmp_path / "kb.ttl"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "bench.launcher", "--spans", str(spans_path), "serve", "--port", "0", "--data", str(data)]
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        line = proc.stdout.readline().decode("utf-8")
        assert line.startswith("listening on 127.0.0.1:"), proc.stderr.read().decode()
        port = int(line.rsplit(":", 1)[1])
        status, body = request(port, "POST", "/graph", body=DELTA, headers={REQUEST_HEADER: "post:0"}, timeout=30)
        assert (status, json.loads(body)) == (200, {"added": 1, "epoch": 1})
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0, proc.stderr.read().decode()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    handles = [i for i, s in enumerate(spans) if s[NAME] == HANDLER_SPAN and s[REQUEST] == "post:0"]
    assert len(handles) == 1
    children = [s for s in spans if s[PARENT] == handles[0]]
    assert [s[NAME] for s in children] == ["service.apply_post"]
    assert children[0][REQUEST] == "post:0"
