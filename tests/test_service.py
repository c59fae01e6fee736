import gc
import http.client
import itertools
import json
import os
import re
import select
import signal
import socket
import stat
import subprocess
import sys
import tempfile
import threading
import time
import urllib.parse
from pathlib import Path

import pytest
import requests

from bench.gen import deltas, make_corpus
from ontosoc import cli, rdf, service, turtle_tokens, validation
from ontosoc.service import MAX_BODY_BYTES, Server, ServiceState, load_state
from ontosoc.schema import ONTOSOC_NS, SchemaDef, builtin_schema
from ontosoc.sparql import MAX_GROUP_DEPTH
from ontosoc.canonical import graph_equal
from ontosoc.rdf import RDF_TYPE, Blank, Graph, Iri, Triple
from ontosoc.turtle import parse_turtle, serialize_turtle

from . import resources
from .test_cli import _env

GOOD_TTL = """\
@prefix ontosoc: <http://maroua-univ/ns/ontosoc#> .
@prefix ex: <http://example.org/soc/> .

ex:Ngaoundere a ontosoc:Locality .
ex:Choir a ontosoc:Community ;
    ontosoc:isLocatedIn ex:Ngaoundere .
"""

BAD_TTL = """\
@prefix ontosoc: <http://maroua-univ/ns/ontosoc#> .
@prefix ex: <http://example.org/soc/> .

ex:Mixed a ontosoc:Community, ontosoc:Resource .
"""

# valid Turtle once its bad bytes are replaced with U+FFFD
NOT_UTF8_TTL = b'<http://x/s> <http://x/p> "\xff\xfe" .'


@pytest.fixture()
def server(tmp_path):
    state = load_state(data_path=str(tmp_path / "kb.ttl"))
    srv = Server(state, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{srv.server_address[1]}"
    try:
        yield base, state
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


_ALL = "SELECT * WHERE { ?s ?p ?o }"
_ALL_QUOTED = urllib.parse.quote_plus(_ALL)


def _query_url(base, query):
    return f"{base}/sparql?query={urllib.parse.quote(query)}"


class TestEndpoints:
    def test_health(self, server):
        base, _ = server
        resp = requests.get(f"{base}/health")
        assert resp.status_code == 200
        assert resp.json() == {"triples": 0, "epoch": 0}

    def test_unknown_path_404(self, server):
        base, _ = server
        assert requests.get(f"{base}/nowhere").status_code == 404

    @pytest.mark.parametrize(
        "fields,query",
        [
            ("query=&query=" + _ALL_QUOTED, _ALL),
            ("%71uery=" + _ALL_QUOTED, _ALL),
            ("query=SELECT+*+WHERE+{+?s+?p+?o+}&query=c", _ALL),
            ("x=1&&query=" + _ALL_QUOTED, _ALL),
            ("query=%ZZ", "%ZZ"),
            ("query", None),
            ("", None),
        ],
    )
    def test_sparql_takes_the_first_non_empty_query_field(self, server, fields, query):
        base, state = server
        status, _, body = _exchange(_port(base), f"GET /sparql?{fields} HTTP/1.0\r\n\r\n".encode("ascii"))
        if query is None:
            assert (status, json.loads(body)) == (400, {"error": "missing query parameter"})
        else:
            assert (status, body.decode("utf-8")) == state.run_query(query)[:2]

    def test_sparql_oversized_query_414(self, server):
        base, _ = server
        query = "SELECT * WHERE { }" + " " * 9000
        assert requests.get(_query_url(base, query)).status_code == 414

    def test_sparql_bad_query_400_with_position(self, server):
        base, _ = server
        resp = requests.get(_query_url(base, "SELECT WHERE"))
        assert resp.status_code == 400
        payload = resp.json()
        assert payload["line"] == 1 and payload["column"] >= 1

    @pytest.mark.parametrize(
        "query,column",
        [
            ("SELECT * WHERE { <> ?p ?o }", 18),
            ('SELECT * WHERE { ?s ?p "x"^^<> }', 29),
            ("PREFIX e: <> SELECT * WHERE { ?s ?p e: }", 37),
        ],
        ids=["iriref", "datatype", "prefix"],
    )
    def test_sparql_empty_iri_400_with_position(self, server, query, column):
        base, _ = server
        resp = requests.get(_query_url(base, query), timeout=10)
        assert resp.status_code == 400
        payload = resp.json()
        assert (payload["error"], payload["line"], payload["column"]) == ("query", 1, column)
        assert payload["message"] == "IRI must be non-empty"
        assert requests.get(f"{base}/health", timeout=5).status_code == 200

    def test_post_then_query(self, server):
        base, _ = server
        resp = requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8"))
        assert resp.status_code == 200
        assert resp.json() == {"added": 3, "epoch": 1}

        q = "SELECT ?c WHERE { ?c <http://maroua-univ/ns/ontosoc#isLocatedIn> ?l }"
        resp = requests.get(_query_url(base, q))
        assert resp.status_code == 200
        assert resp.headers["Content-Type"].startswith("application/sparql-results+json")
        bindings = resp.json()["results"]["bindings"]
        assert bindings == [{"c": {"type": "uri", "value": "http://example.org/soc/Choir"}}]

    def test_repost_is_idempotent(self, server):
        base, _ = server
        requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8"))
        resp = requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8"))
        assert resp.status_code == 200
        assert resp.json()["added"] == 0
        assert resp.json()["epoch"] == 2  # write still acknowledged

    def test_post_parse_error_400(self, server):
        base, _ = server
        resp = requests.post(f"{base}/graph", data=b"this is not turtle @@")
        assert resp.status_code == 400
        payload = resp.json()
        assert payload["error"] == "parse"
        assert payload["line"] >= 1

    def test_post_invalid_data_422_machine_report(self, server):
        base, state = server
        resp = requests.post(f"{base}/graph", data=BAD_TTL.encode("utf-8"))
        assert resp.status_code == 422
        assert resp.headers["Content-Type"].startswith("text/plain")
        line = resp.text.strip()
        assert line.startswith("disjointness\t")
        # rejected writes leave the store untouched
        assert requests.get(f"{base}/health").json() == {"triples": 0, "epoch": 0}

    @pytest.mark.parametrize(
        "content_length,body",
        [
            (None, b""),
            ("three", b""),
            ("-3", b""),
            ("1_0", b""),
            (str(len(NOT_UTF8_TTL)), NOT_UTF8_TTL),
        ],
    )
    def test_bad_post_input_400(self, server, content_length, body):
        base, _ = server
        conn = http.client.HTTPConnection(base.removeprefix("http://"), timeout=10)
        try:
            conn.putrequest("POST", "/graph")
            if content_length is not None:
                conn.putheader("Content-Length", content_length)
            conn.endheaders(body)
            resp = conn.getresponse()
            assert resp.status == 400
            assert "error" in json.loads(resp.read())
        finally:
            conn.close()
        assert requests.get(f"{base}/health").json() == {"triples": 0, "epoch": 0}

    @pytest.mark.parametrize(
        "body,column,message",
        [
            (b"<http://x/s> <http://x/p> <> .", 27, "IRI must be non-empty"),
            (b"<http://x/a b> <http://x/p> <http://x/o> .", 1, "IRI contains whitespace"),
        ],
    )
    def test_post_bad_iri_400_with_position(self, server, body, column, message):
        base, _ = server
        resp = requests.post(f"{base}/graph", data=body, timeout=10)
        assert resp.status_code == 400
        payload = resp.json()
        assert (payload["error"], payload["line"], payload["column"]) == ("parse", 1, column)
        assert message in payload["message"]
        assert requests.get(f"{base}/health").json() == {"triples": 0, "epoch": 0}

    def test_post_with_a_bad_datatype_iri_400_and_the_file_unchanged(self, server):
        base, state = server
        assert requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8"), timeout=10).status_code == 200
        on_disk = state.snapshot_path.read_bytes()
        body = b'<http://x/s> <http://x/p> "v"^^<a b> .'
        resp = requests.post(f"{base}/graph", data=body, timeout=10)
        assert resp.status_code == 400
        payload = resp.json()
        assert (payload["error"], payload["line"], payload["column"]) == ("parse", 1, 32)
        assert "IRI contains whitespace" in payload["message"]
        assert state.snapshot_path.read_bytes() == on_disk
        assert requests.get(f"{base}/health").json() == {"triples": 3, "epoch": 1}

    @pytest.mark.parametrize("predicate", [ONTOSOC_NS + "isMemberOf", "http://www.w3.org/2000/01/rdf-schema#label"])
    def test_post_with_a_surrogate_escape_400_and_the_file_unchanged(self, server, predicate):
        """A literal that no UTF-8 can carry is refused where it is read,
        whether it would have broken a 422 report or the record written."""
        base, state = server
        assert requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8"), timeout=10).status_code == 200
        on_disk = state.snapshot_path.read_bytes()
        body = f'<http://example.org/soc/a> <{predicate}> "\\uD800" .'
        resp = requests.post(f"{base}/graph", data=body.encode("utf-8"), timeout=10)
        assert resp.status_code == 400
        assert resp.json() == {
            "error": "parse", "line": 1, "column": body.index("\\") + 1, "message": "\\u escape of a surrogate, U+D800",
        }
        assert state.snapshot_path.read_bytes() == on_disk
        assert requests.get(f"{base}/health", timeout=10).json() == {"triples": 3, "epoch": 1}

    def test_oversized_post_413_without_reading_body(self, server):
        base, _ = server
        conn = http.client.HTTPConnection(base.removeprefix("http://"), timeout=10)
        try:
            conn.putrequest("POST", "/graph")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()  # no body follows: a server that read it would time out
            resp = conn.getresponse()
            assert resp.status == 413
            assert "error" in json.loads(resp.read())
        finally:
            conn.close()
        assert requests.get(f"{base}/health").json() == {"triples": 0, "epoch": 0}


def _port(base):
    return int(base.rsplit(":", 1)[1])


def _exchange(port, data, close_write=True, timeout=10.0):
    """Send raw bytes on a new connection and read the answer to its end:
    (status, headers by lower-cased name, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        if close_write:
            sock.shutdown(socket.SHUT_WR)
        answer = b""
        while chunk := sock.recv(65536):
            answer += chunk
    head, _, body = answer.partition(b"\r\n\r\n")
    status_line, *fields = head.decode("latin-1").split("\r\n")
    headers = {name.lower(): value.strip() for name, _, value in (f.partition(":") for f in fields)}
    return int(status_line.split()[1]), headers, body


class TestProtocol:
    """What the front end itself answers: each connection carries one
    HTTP/1.0 request, and every error body is JSON."""

    def test_answer_head_is_one_http_1_0_reply(self, server):
        base, _ = server
        status, headers, body = _exchange(_port(base), b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
        assert status == 200 and json.loads(body) == {"triples": 0, "epoch": 0}
        assert headers["content-length"] == str(len(body))
        assert headers["connection"] == "close"
        assert re.fullmatch(r"[A-Z][a-z]{2}, \d\d [A-Z][a-z]{2} \d{4} \d\d:\d\d:\d\d GMT", headers["date"])

    @pytest.mark.parametrize("target", ["/health", "/health?x=1#frag", "http://127.0.0.1/health"])
    def test_a_target_names_its_path(self, server, target):
        base, _ = server
        status, _, body = _exchange(_port(base), f"GET {target} HTTP/1.1\r\n\r\n".encode("ascii"))
        assert (status, json.loads(body)) == (200, {"triples": 0, "epoch": 0})

    @pytest.mark.parametrize(
        "request_bytes,status",
        [
            (b"PUT /graph HTTP/1.0\r\n\r\n", 501),
            (b"DELETE /graph HTTP/1.0\r\n\r\n", 501),
            (b"HELLO\r\n\r\n", 400),
            (b"GET /health\r\n\r\n", 400),
            (b"GET /health FTP/1.0\r\n\r\n", 400),
            (b"GET /health HTTP/1.0\r\nno colon here\r\n\r\n", 400),
            (b"GET /health HTTP/1.0\r\n folded: value\r\n\r\n", 400),
            (b"POST /graph HTTP/1.0\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc", 400),
            (b"GET /health HTTP/1.0\r\nX-Big: " + b"a" * service.MAX_HEADER_BYTES + b"\r\n\r\n", 431),
            (b"GET /" + b"a" * service.MAX_HEADER_BYTES + b" HTTP/1.0\r\n\r\n", 414),
        ],
        ids=["put", "delete", "one-word", "no-version", "not-http", "no-colon", "folded",
             "two-content-lengths", "header-block-too-long", "request-line-too-long"],
    )
    def test_protocol_errors_get_json_bodies(self, server, request_bytes, status):
        base, state = server
        answer = _exchange(_port(base), request_bytes)
        assert answer[0] == status
        assert answer[1]["content-type"] == "application/json"
        assert set(json.loads(answer[2])) == {"error"}
        assert requests.get(f"{base}/health", timeout=10).json() == {"triples": 0, "epoch": 0}
        assert not state.snapshot_path.exists()

    def test_a_header_name_is_found_in_any_case(self, server, monkeypatch):
        base, _ = server
        seen = []

        def do_GET(handler):
            seen.append((handler.headers.get("X-Bench-Request"), handler.headers.get("HOST")))
            return 200, "{}", "application/json"

        monkeypatch.setattr(service._Handler, "do_GET", do_GET)
        request_bytes = b"GET /health HTTP/1.0\r\nx-bench-request: post:7\r\nHost: a\r\n\r\n"
        assert _exchange(_port(base), request_bytes)[0] == 200
        assert seen == [("post:7", "a")]

    @pytest.mark.parametrize("cut_by", ["eof", "timeout"])
    def test_a_body_shorter_than_its_content_length_is_refused(self, server, monkeypatch, cut_by):
        base, state = server
        assert requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8"), timeout=10).status_code == 200
        on_disk = state.snapshot_path.read_bytes()
        monkeypatch.setattr(service, "READ_TIMEOUT", 0.3)
        first = b"<http://x/s1> <http://x/p> <http://x/o1>.\n"  # the first of two 42-byte lines
        request_bytes = b"POST /graph HTTP/1.0\r\nContent-Length: 84\r\n\r\n" + first
        status, _, body = _exchange(_port(base), request_bytes, close_write=cut_by == "eof")
        assert (status, json.loads(body)) == (400, {"error": "body ended after 42 of 84 bytes"})
        assert requests.get(f"{base}/health", timeout=10).json() == {"triples": 3, "epoch": 1}
        assert state.snapshot_path.read_bytes() == on_disk

    def test_idle_connections_are_dropped_after_the_read_timeout(self, server, monkeypatch):
        """WORKERS idle connections hold every worker; a ninth client waits
        in the listen backlog until READ_TIMEOUT frees one."""
        base, _ = server
        monkeypatch.setattr(service, "READ_TIMEOUT", 0.5)
        idle = [socket.create_connection(("127.0.0.1", _port(base)), timeout=10) for _ in range(service.WORKERS)]
        try:
            t0 = time.perf_counter()
            assert requests.get(f"{base}/health", timeout=10).json() == {"triples": 0, "epoch": 0}
            waited = time.perf_counter() - t0
            assert 0.25 <= waited < 3.0
            for sock in idle:
                assert sock.recv(1) == b""  # closed by the worker, without an answer
        finally:
            for sock in idle:
                sock.close()

    def test_drip_fed_heads_hold_the_workers_no_longer_than_the_read_timeout(self, server, monkeypatch):
        """WORKERS connections that each send a header byte every 0.1 s
        keep a ninth client waiting only until READ_TIMEOUT has passed
        since each was accepted, not for as long as they keep sending."""
        base, _ = server
        monkeypatch.setattr(service, "READ_TIMEOUT", 0.5)
        drips = [socket.create_connection(("127.0.0.1", _port(base)), timeout=10) for _ in range(service.WORKERS)]
        done = threading.Event()

        def drip():
            data = b"GET /health HTTP/1.0\r\nX-Slow: "
            while not done.wait(0.1):
                for sock in drips:
                    try:
                        sock.sendall(data)
                    except OSError:  # dropped by its worker
                        pass
                data = b"x"

        dripper = threading.Thread(target=drip)
        dripper.start()
        try:
            t0 = time.perf_counter()
            assert requests.get(f"{base}/health", timeout=10).json() == {"triples": 0, "epoch": 0}
            assert time.perf_counter() - t0 < 3.0
        finally:
            done.set()
            dripper.join(timeout=10)
            for sock in drips:
                sock.close()
        assert not dripper.is_alive()

    def test_a_slow_steady_body_above_the_minimum_rate_is_stored(self, server, monkeypatch):
        """A body may take longer than READ_TIMEOUT in all, by its size
        over MIN_BODY_RATE."""
        base, state = server
        monkeypatch.setattr(service, "READ_TIMEOUT", 0.3)
        monkeypatch.setattr(service, "MIN_BODY_RATE", 50)
        body = GOOD_TTL.encode("utf-8")  # 100 bytes a second: over 1 s, each gap 0.1 s
        with socket.create_connection(("127.0.0.1", _port(base)), timeout=10) as sock:
            sock.sendall(f"POST /graph HTTP/1.0\r\nContent-Length: {len(body)}\r\n\r\n".encode("ascii"))
            t0 = time.perf_counter()
            for i in range(0, len(body), 10):
                time.sleep(0.1)
                sock.sendall(body[i : i + 10])
            answer = b""
            while chunk := sock.recv(65536):
                answer += chunk
        assert time.perf_counter() - t0 > 1.0
        assert answer.startswith(b"HTTP/1.0 200 ")
        assert json.loads(answer.partition(b"\r\n\r\n")[2]) == {"added": 3, "epoch": 1}
        assert state.snapshot_path.exists()

    def test_a_drip_fed_body_below_the_minimum_rate_is_cut_off_at_its_deadline(self, server, monkeypatch):
        """A body sent one byte every 0.1 s, under MIN_BODY_RATE, gets a 400
        once READ_TIMEOUT plus its size over MIN_BODY_RATE has passed,
        though its client never stops sending."""
        base, state = server
        body = GOOD_TTL.encode("utf-8")
        monkeypatch.setattr(service, "READ_TIMEOUT", 0.3)
        monkeypatch.setattr(service, "MIN_BODY_RATE", len(body) * 5)  # a deadline 0.5 s after the head
        with socket.create_connection(("127.0.0.1", _port(base)), timeout=10) as sock:
            sock.sendall(f"POST /graph HTTP/1.0\r\nContent-Length: {len(body)}\r\n\r\n".encode("ascii"))
            t0, sent = time.perf_counter(), 0
            while sent < len(body) - 1 and not select.select([sock], [], [], 0.1)[0]:
                sock.sendall(body[sent : sent + 1])
                sent += 1
            answer = b""
            while chunk := sock.recv(65536):
                answer += chunk
        assert 0.4 <= time.perf_counter() - t0 < 3.0 and sent < len(body) - 1
        head, _, reply = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 400 ")
        assert re.fullmatch(rf"body ended after [0-9]+ of {len(body)} bytes", json.loads(reply)["error"])
        assert requests.get(f"{base}/health", timeout=10).json() == {"triples": 0, "epoch": 0}
        assert not state.snapshot_path.exists()

    def test_recv_waits_no_later_than_its_deadline(self):
        left, right = socket.socketpair()
        with left, right:
            right.sendall(b"abc")
            assert service._recv(left, time.monotonic() + 5, 2) == b"ab"
            assert service._recv(left, time.monotonic() - 1, 2) == b""  # past: the byte waiting is not read
            t0 = time.perf_counter()
            assert service._recv(left, time.monotonic() + 5, 2) == b"c"
            assert service._recv(left, time.monotonic() + 0.2, 2) == b""  # nothing comes
            assert 0.15 <= time.perf_counter() - t0 < 3.0
            right.close()
            assert service._recv(left, time.monotonic() + 5, 2) == b""  # the peer has closed

    def test_a_worker_survives_a_handler_fault(self, server, monkeypatch):
        base, _ = server

        def failing(self, query):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(ServiceState, "run_query", failing)
        for _ in range(service.WORKERS + 1):
            resp = requests.get(_query_url(base, "SELECT * WHERE { ?s ?p ?o }"), timeout=10)
            assert resp.status_code == 500
            assert resp.json() == {"error": "internal error"}
        assert requests.get(f"{base}/health", timeout=10).status_code == 200

    def test_a_worker_survives_a_fault_in_a_post(self, server, monkeypatch, capsys):
        base, state = server
        assert requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8"), timeout=10).status_code == 200
        on_disk = state.snapshot_path.read_bytes()

        def failing(self, body):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(ServiceState, "apply_post", failing)
        for _ in range(service.WORKERS + 1):
            resp = requests.post(f"{base}/graph", data=MORE_TTL.encode("utf-8"), timeout=10)
            assert resp.status_code == 500
            assert resp.json() == {"error": "internal error"}
        assert requests.get(f"{base}/health", timeout=10).json() == {"triples": 3, "epoch": 1}
        assert state.snapshot_path.read_bytes() == on_disk
        assert capsys.readouterr().err.count("RuntimeError: injected fault") == service.WORKERS + 1

    def test_shutdown_wakes_the_workers_at_once(self, tmp_path):
        srv = Server(load_state(data_path=str(tmp_path / "kb.ttl")), port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        assert requests.get(f"http://127.0.0.1:{srv.server_address[1]}/health", timeout=10).status_code == 200
        t0 = time.perf_counter()
        stopper = threading.Thread(target=srv.shutdown, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        thread.join(timeout=5)
        assert not stopper.is_alive() and not thread.is_alive()
        assert time.perf_counter() - t0 < 0.25
        srv.server_close()


@pytest.mark.parametrize(
    "request_bytes,status",
    [
        (f"POST /graph HTTP/1.0\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode("ascii")
         + b"x" * (MAX_BODY_BYTES + 1), 413),
        (b"GET /health HTTP/1.0\r\nX-Big: " + b"a" * (4 * service.MAX_HEADER_BYTES) + b"\r\n\r\n", 431),
        (b"GET /health HTTP/1.0\r\nContent-Length: 200000\r\n\r\n" + b"x" * 200000, 200),
        (b"GET /health HTTP/1.0\r\nTransfer-Encoding: chunked\r\n\r\n30d40\r\n" + b"x" * 200000 + b"\r\n0\r\n\r\n",
         200),
    ],
    ids=["body-too-long", "header-block-too-long", "get-with-a-body", "get-with-a-chunked-body"],
)
def test_a_client_that_sends_its_whole_request_first_gets_the_early_answer(server, request_bytes, status):
    """An answer sent before the request was read to its end reaches a
    client that writes the whole request, without a half-close, and only
    then reads."""
    base, _ = server
    answer = _exchange(_port(base), request_bytes, close_write=False)
    assert answer[0] == status
    assert set(json.loads(answer[2])) == ({"error"} if status != 200 else {"triples", "epoch"})
    assert requests.get(f"{base}/health", timeout=10).json() == {"triples": 0, "epoch": 0}


def test_health_graph_and_epoch_agree_under_concurrent_writes():
    """Each post adds one new triple, so every /health must read triples == epoch."""
    state = ServiceState(graph=Graph(), schema=builtin_schema())
    srv = Server(state, port=0)
    server_thread = threading.Thread(target=srv.serve_forever, daemon=True)
    server_thread.start()
    base = f"http://127.0.0.1:{srv.server_address[1]}"
    writers_done = threading.Event()
    seen, errors = [], []

    def write(w):
        for i in range(15):
            body = f"<http://x/w{w}> <http://x/p> <http://x/o{i}> ."
            requests.post(f"{base}/graph", data=body.encode("utf-8"), timeout=10)

    def read():
        while not writers_done.is_set():
            health = requests.get(f"{base}/health", timeout=10).json()
            seen.append(health)
            if health["triples"] != health["epoch"]:
                errors.append(health)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writers = [threading.Thread(target=write, args=(w,)) for w in range(3)]
        readers = [threading.Thread(target=read) for _ in range(3)]
        for t in writers + readers:
            t.start()
        for t in writers:
            t.join(timeout=60)
        writers_done.set()
        for t in readers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in writers + readers)
    finally:
        sys.setswitchinterval(old_interval)
        srv.shutdown()
        srv.server_close()
        server_thread.join(timeout=5)
    assert seen and not errors
    assert (len(state.current.graph), state.current.epoch) == (45, 45)


def test_readers_see_whole_graphs_while_posts_overlay_and_fold(monkeypatch):
    """Each post adds one Locality, so every live (graph, epoch) pair
    must hold epoch triples, whether it is an overlay or just folded."""
    monkeypatch.setattr(rdf, "FOLD_TRIPLES", 4)
    state = ServiceState(Graph(), builtin_schema())
    typed = (Iri(RDF_TYPE), Iri(ONTOSOC_NS + "Locality"))
    done, errors, reads = threading.Event(), [], []

    def read():
        while not done.is_set():
            graph, epoch = state.current
            counts = (len(graph), len(list(graph)), len(graph.match(None, *typed)), len(graph.predicates()))
            reads.append(epoch)
            if counts != (epoch, epoch, epoch, min(epoch, 1)):
                errors.append((epoch, counts))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=read) for _ in range(3)]
    snapshots, statuses = [(state.current.graph, set())], []
    try:
        for t in readers:
            t.start()
        for i in range(60):
            statuses.append(state.apply_post(_locality(f"Town{i}"))[0])
            snapshots.append((state.current.graph, set(state.current.graph)))
    finally:
        done.set()
        for t in readers:
            t.join(timeout=60)
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in readers)
    assert statuses == [200] * 60 and reads and not errors
    assert state.types == validation.entail_types(state.current.graph, builtin_schema())
    _assert_frozen_as_they_were(snapshots)


def _assert_frozen_as_they_were(snapshots: list) -> None:
    """Each (graph, its triples when it was live) refuses every mutation
    and still holds just those triples."""
    t = Triple(Iri("http://example.org/soc/Never"), Iri(RDF_TYPE), Iri(ONTOSOC_NS + "Locality"))
    for graph, triples in snapshots:
        for mutate in (graph.add, lambda t: graph.bulk_insert([t]), lambda t: graph.update([t])):
            with pytest.raises(rdf.FrozenGraphError):
                mutate(t)
        assert len(graph) == len(triples) and set(graph) == triples


MORE_TTL = """\
@prefix ontosoc: <http://maroua-univ/ns/ontosoc#> .
@prefix ex: <http://example.org/soc/> .

ex:Maroua a ontosoc:Locality .
"""


class TestSnapshot:
    def test_snapshot_and_epoch_written(self, server, tmp_path):
        base, state = server
        requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8"))
        snapshot = state.snapshot_path
        assert snapshot.exists()
        text = snapshot.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "# epoch 1"
        assert len(parse_turtle(text).graph) == 3
        assert not (tmp_path / "kb.ttl.epoch").exists()

    def test_file_without_header_loads_at_epoch_zero(self, tmp_path):
        data = tmp_path / "kb.ttl"
        data.write_text(GOOD_TTL, encoding="utf-8")
        (tmp_path / "kb.ttl.epoch").write_text("7\n", encoding="utf-8")  # an old sidecar is not read
        state = load_state(data_path=str(data))
        assert (len(state.current.graph), state.current.epoch) == (3, 0)

    def test_reload_restores_graph_and_epoch(self, server, tmp_path):
        base, state = server
        requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8"))
        reloaded = load_state(data_path=str(state.snapshot_path))
        assert set(reloaded.current.graph) == set(state.current.graph)
        assert reloaded.current.epoch == 1

    @pytest.mark.parametrize("nth", [1, 2])
    @pytest.mark.parametrize("owner,name", [(tempfile, "mkstemp"), (os, "fsync"), (os, "replace")])
    def test_failed_write_leaves_old_pair_on_disk(self, server, tmp_path, monkeypatch, owner, name, nth):
        """The nth call of one persistence step fails during a post: a 507 must
        leave both the live and the reloaded (graph, epoch) at the old pair,
        a 200 must reload as the new pair, and no temp file may remain."""
        base, state = server
        assert requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8")).status_code == 200
        old = (set(state.current.graph), state.current.epoch)
        real = getattr(owner, name)
        calls = []

        def failing(*args, **kwargs):
            calls.append(args)
            if len(calls) == nth:
                raise OSError(f"injected failure of {name} call {nth}")
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, failing)
        resp = requests.post(f"{base}/graph", data=MORE_TTL.encode("utf-8"), timeout=10)
        monkeypatch.undo()

        reloaded = load_state(data_path=str(state.snapshot_path))
        if len(calls) >= nth:
            assert resp.status_code == 507
            assert resp.json()["error"] == "snapshot"
            assert requests.get(f"{base}/health").json() == {"triples": 3, "epoch": 1}
            assert (set(reloaded.current.graph), reloaded.current.epoch) == old
        else:
            assert resp.status_code == 200
            assert len(state.current.graph) == 4
            assert (set(reloaded.current.graph), reloaded.current.epoch) == (set(state.current.graph), 2)
        assert not list(tmp_path.glob("*.tmp"))


def _corpus():
    return cli._merge_files([str(p) for p in resources.corpus_paths()])


def _locality(name):
    return f"<http://example.org/soc/{name}> a <http://maroua-univ/ns/ontosoc#Locality> ."


def _assert_reloads_as_live(state):
    reloaded = load_state(data_path=str(state.snapshot_path))
    assert graph_equal(reloaded.current.graph, state.current.graph)
    assert reloaded.current.epoch == state.current.epoch


class TestLog:
    """The data file as a log: one appended record per accepted post."""

    @pytest.mark.parametrize(
        "tail",
        [
            b'<http://x/torn> <http://x/p> "half',
            b"<http://x/torn> <http://x/p> <http://x/o> .\n",
            b"<http://x/torn> <http://x/p> <http://x/o> .\n# epoch 3",
            b'<http://x/torn> <http://x/p> "\xc3',  # a UTF-8 sequence cut short
        ],
        ids=["mid-line", "no-commit-line", "commit-line-cut", "mid-character"],
    )
    def test_torn_tail_is_skipped_on_load_and_cut_by_the_next_post(self, server, tail):
        base, state = server
        assert requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8")).status_code == 200
        assert requests.post(f"{base}/graph", data=MORE_TTL.encode("utf-8")).status_code == 200
        path = state.snapshot_path
        with open(path, "ab") as fh:
            fh.write(tail)
        on_disk = path.read_bytes()
        reloaded = load_state(data_path=str(path))
        assert (set(reloaded.current.graph), reloaded.current.epoch) == (set(state.current.graph), 2)
        assert path.read_bytes() == on_disk  # loading wrote nothing
        resp = requests.post(f"{base}/graph", data=_locality("Garoua").encode("utf-8"))
        assert resp.json() == {"added": 1, "epoch": 3}
        assert b"torn" not in path.read_bytes()
        _assert_reloads_as_live(state)

    def test_compaction_past_twice_the_last_whole_write(self, server):
        base, state = server
        assert requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8")).status_code == 200
        path = state.snapshot_path
        whole = path.stat().st_size
        for i in range(1, 100):
            size = path.stat().st_size
            body = _locality(f"Town{i}")
            assert requests.post(f"{base}/graph", data=body.encode("utf-8")).status_code == 200
            (triple,) = parse_turtle(body).graph
            record = len(f"{triple.n3()}\n# epoch {state.current.epoch}\n")
            first_line = path.read_text(encoding="utf-8").splitlines()[0]
            if size + record <= 2 * whole:
                assert path.stat().st_size == size + record  # appended
                assert first_line == "# epoch 1"
            else:
                assert first_line == f"# epoch {state.current.epoch}"
                break
        else:
            pytest.fail("the file was never rewritten whole")
        _assert_reloads_as_live(state)

    def test_quoted_literals_reload_on_the_reader_after_a_record_and_a_compaction(self, tmp_path):
        """The writer escapes each '"' of a literal, in a record and in a
        whole write alike; the file still loads to the live (graph, epoch)
        with no fallback to the token path."""

        def refuse(*args, **kwargs):
            raise AssertionError("the token path ran")

        def reload_on_the_reader():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(turtle_tokens, "_Parser", refuse)
                reloaded = load_state(data_path=str(state.snapshot_path))
            assert graph_equal(reloaded.current.graph, state.current.graph)
            assert reloaded.current.epoch == state.current.epoch

        state = load_state(data_path=str(tmp_path / "kb.ttl"))
        assert state.apply_post(GOOD_TTL)[0] == 200  # a whole write
        label = '<http://example.org/soc/Choir> <http://www.w3.org/2000/01/rdf-schema#label> "say \\"hi\\" \\\\ \\"" .'
        assert state.apply_post(label)[0] == 200  # a record
        text = state.snapshot_path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "# epoch 1" and '"say \\"hi\\" \\\\ \\""' in text
        reload_on_the_reader()
        for i in itertools.count():
            assert state.apply_post(_locality(f"Town{i}"))[0] == 200
            if state.snapshot_path.read_text(encoding="utf-8").splitlines()[0] == f"# epoch {state.current.epoch}":
                break  # rewritten whole
        assert '"say \\"hi\\" \\\\ \\""' in state.snapshot_path.read_text(encoding="utf-8")
        reload_on_the_reader()

    def test_stray_epoch_comment_without_header(self, tmp_path):
        data = tmp_path / "kb.ttl"
        data.write_text(GOOD_TTL + "# epoch 9\n" + MORE_TTL.split("\n\n")[1], encoding="utf-8")
        state = load_state(data_path=str(data))
        assert (len(state.current.graph), state.current.epoch) == (4, 0)
        status, _, _ = state.apply_post(_locality("Garoua"))
        assert status == 200
        text = data.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "# epoch 1"
        assert "# epoch 9" not in text
        _assert_reloads_as_live(state)

    def test_file_removed_under_the_service_is_written_whole(self, server):
        base, state = server
        assert requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8")).status_code == 200
        state.snapshot_path.unlink()
        assert requests.post(f"{base}/graph", data=MORE_TTL.encode("utf-8")).json() == {"added": 1, "epoch": 2}
        assert state.snapshot_path.read_text(encoding="utf-8").splitlines()[0] == "# epoch 2"
        _assert_reloads_as_live(state)

    def test_blank_label_names_one_node_across_records(self, server):
        base, state = server
        person = "_:p a <http://maroua-univ/ns/ontosoc#Individual> ."
        joins = "_:p <http://maroua-univ/ns/ontosoc#isMemberOf> <http://example.org/soc/Choir> ."
        for body in (GOOD_TTL, person, joins):
            assert requests.post(f"{base}/graph", data=body.encode("utf-8")).status_code == 200
        reloaded = load_state(data_path=str(state.snapshot_path))
        assert {t.subject for t in reloaded.current.graph if isinstance(t.subject, Blank)} == {Blank("p")}
        assert (set(reloaded.current.graph), reloaded.current.epoch) == (set(state.current.graph), 3)

    def test_posts_after_the_first_copy_serialize_and_validate_nothing(self, tmp_path, monkeypatch):
        data = tmp_path / "kb.ttl"
        data.write_text(serialize_turtle(_corpus()), encoding="utf-8")
        state = load_state(data_path=str(data))
        filler = "\n".join(_locality(f"Filler{i}") for i in range(100))
        assert state.apply_post(filler)[0] == 200  # the first write: whole file
        calls = {"copy": 0, "serialize": 0, "validate": 0, "fsync": 0}

        def counting(key, real):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Graph, "copy", counting("copy", Graph.copy))
        monkeypatch.setattr(service, "serialize_turtle", counting("serialize", service.serialize_turtle))
        monkeypatch.setattr(service, "entail_types", counting("validate", service.entail_types))
        monkeypatch.setattr(validation, "entail_types", counting("validate", validation.entail_types))
        monkeypatch.setattr(validation, "validate", counting("validate", validation.validate))
        monkeypatch.setattr(os, "fsync", counting("fsync", os.fsync))
        for i in range(20):
            status, body, _ = state.apply_post(_locality(f"Town{i}"))
            assert (status, json.loads(body)) == (200, {"added": 1, "epoch": i + 2})
            assert calls == {"copy": 0, "serialize": 0, "validate": 0, "fsync": i + 1}
        monkeypatch.undo()
        assert data.read_text(encoding="utf-8").splitlines()[0] == "# epoch 1"  # no compaction
        _assert_reloads_as_live(state)


    def test_state_is_checked_when_built_not_by_the_first_post(self, tmp_path, monkeypatch):
        data = tmp_path / "kb.ttl"
        data.write_text(serialize_turtle(_corpus()), encoding="utf-8")
        state = load_state(data_path=str(data))
        assert state.types == validation.entail_types(state.current.graph, builtin_schema())

        def refusing(*args):
            raise AssertionError("a post ran a full validate or entailment")

        monkeypatch.setattr(service, "entail_types", refusing)
        monkeypatch.setattr(validation, "entail_types", refusing)
        monkeypatch.setattr(validation, "validate", refusing)
        assert state.apply_post(_locality("Town"))[0] == 200
        assert state.apply_post(BAD_TTL)[0] == 422


def test_a_post_is_refused_only_for_the_violations_it_adds():
    state = ServiceState(parse_turtle(make_corpus(1, 50, True).turtle()).graph, builtin_schema())
    assert len(validation.validate(state.current.graph, builtin_schema()).violations) == 4
    stream = deltas(7, 50)
    valid = next(stream)
    invalid = next(delta for delta in stream if not delta.valid)
    status, body, _ = state.apply_post(valid.body)
    assert (status, json.loads(body)) == (200, {"added": 3, "epoch": 1})
    assert state.types == validation.entail_types(state.current.graph, builtin_schema())
    status, body, _ = state.apply_post(invalid.body)
    assert status == 422
    lines = body.splitlines()
    assert lines and all(line.startswith(f"range\t<{invalid.person}>\t") for line in lines)
    assert state.current.epoch == 1


def test_a_valid_post_sorts_none_of_the_violations_the_graph_was_loaded_with(monkeypatch):
    graph = parse_turtle(make_corpus(1, 50, False).turtle()).graph
    member_of = Iri(ONTOSOC_NS + "isMemberOf")
    untyped = (Iri(f"http://example.org/u/{i}") for i in range(2000))
    graph.update(Triple(s, member_of, o) for s, o in zip(untyped, untyped))  # a domain and a range violation each
    state = ServiceState(graph, builtin_schema())
    assert len(validation.validate(graph, builtin_schema()).violations) == 2000
    calls = []
    sort_key = validation.Violation.sort_key
    monkeypatch.setattr(validation.Violation, "sort_key", lambda v: calls.append(v) or sort_key(v))
    status, body, _ = state.apply_post(next(deltas(7, 50)).body)
    assert (status, json.loads(body)) == (200, {"added": 3, "epoch": 1})
    assert calls == []


def test_a_refused_post_leaves_the_writers_type_map_as_it_was(tmp_path, monkeypatch):
    data = tmp_path / "kb.ttl"
    data.write_text(serialize_turtle(_corpus()), encoding="utf-8")
    state, schema = load_state(data_path=str(data)), builtin_schema()
    snapshots = [(state.current.graph, set(state.current.graph))]

    def post(body):
        status = state.apply_post(body)[0]
        snapshots.append((state.current.graph, set(state.current.graph)))
        return status

    assert post(_locality("Town")) == 200
    assert post(BAD_TTL) == 422  # it would have typed ex:Mixed
    assert state.types == validation.entail_types(state.current.graph, schema)

    def failing(fd):
        raise OSError("injected fsync failure")

    monkeypatch.setattr(os, "fsync", failing)
    assert post(_locality("Village")) == 507
    monkeypatch.undo()
    assert Iri("http://example.org/soc/Village") not in state.types
    assert state.types == validation.entail_types(state.current.graph, schema)
    assert post(_locality("Village")) == 200
    assert state.types == validation.entail_types(state.current.graph, schema)
    _assert_frozen_as_they_were(snapshots)


def test_serve_and_each_fold_freeze_what_is_alive(monkeypatch, tmp_path):
    """`serve` freezes the objects the load left (`gc.freeze`), and a post
    freezes them again when its union folded the overlay, and only then,
    so that the collector never walks a base."""
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(None))
    started = []

    class Server:
        server_address = ("127.0.0.1", 0)

        def serve_forever(self):
            started.append(len(freezes))

        def server_close(self):
            pass

    monkeypatch.setattr(service, "Server", lambda state, port: Server())
    service.serve(port=0, data_path=str(tmp_path / "kb.ttl"))
    assert started == [1]

    monkeypatch.setattr(rdf, "FOLD_TRIPLES", 4)
    state = ServiceState(Graph(), builtin_schema())
    folded = []
    for i in range(20):
        before = len(freezes)
        assert state.apply_post(_locality(f"Town{i}"))[0] == 200
        folded.append(state.current.graph.flat)
        assert len(freezes) - before == folded[-1]
    assert 0 < folded.count(True) < len(folded)


def test_posts_without_a_fold_keep_one_base_under_a_small_overlay():
    loaded = parse_turtle(make_corpus(1, 50, False).turtle()).graph
    state = ServiceState(loaded, builtin_schema())
    statuses, bases = [], []
    for delta in itertools.islice(deltas(7, 50), 50):  # 150 triples at most: no fold
        statuses.append(state.apply_post(delta.body)[0])
        graph = state.current.graph
        if graph is not loaded:
            bases.append(graph._base)
            assert len(graph) - len(graph._base) <= rdf.FOLD_TRIPLES
    assert 200 in statuses and 422 in statuses
    assert all(base is bases[0] for base in bases)
    assert bases[0]._spo is loaded._spo and len(bases[0]) == len(loaded)
    assert len(state.current.graph) == len(loaded) + 3 * statuses.count(200)


def test_posts_work_out_no_superclass_closure_again(monkeypatch):
    calls = []
    closure = SchemaDef.superclass_closure
    monkeypatch.setattr(SchemaDef, "superclass_closure", lambda schema, iri: calls.append(iri) or closure(schema, iri))
    schema = builtin_schema()
    state = ServiceState(parse_turtle(make_corpus(1, 50, False).turtle()).graph, schema)
    statuses = [state.apply_post(delta.body)[0] for delta in itertools.islice(deltas(7, 50), 100)]
    assert statuses.count(200) > 50
    assert len(calls) <= len(schema.classes)


def _fsync_target(fd):
    return "directory fsync" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file fsync"


def test_a_whole_write_fsyncs_its_directory_after_the_rename_and_an_append_does_not(tmp_path, monkeypatch):
    state = ServiceState(Graph(), builtin_schema(), snapshot_path=tmp_path / "kb.ttl")
    calls = []
    fsync, replace = os.fsync, os.replace
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append(_fsync_target(fd)) or fsync(fd))
    monkeypatch.setattr(os, "replace", lambda *args: calls.append("replace") or replace(*args))
    assert state.apply_post(GOOD_TTL)[0] == 200  # no file yet: a whole write
    assert calls == ["file fsync", "replace", "directory fsync"]
    calls.clear()
    for i in range(3):
        assert state.apply_post(_locality(f"Town{i}"))[0] == 200
    assert calls == ["file fsync"] * 3
    monkeypatch.undo()
    _assert_reloads_as_live(state)


@pytest.mark.parametrize("whole_write", ["no-file", "first-write", "compaction"])
def test_a_failed_directory_fsync_gets_a_507_and_the_next_post_writes_the_file_whole(tmp_path, monkeypatch, whole_write):
    """The directory fsync fails after the rename: the post gets a 507, the
    live pair stays, and the old file is put back, so a restart loads the
    live pair.  The next post, however small, rewrites the file whole
    rather than append at an offset into a file it no longer knows."""
    data = tmp_path / "kb.ttl"
    if whole_write != "no-file":
        data.write_text(GOOD_TTL, encoding="utf-8")
    state = load_state(data_path=str(data))
    if whole_write == "compaction":
        assert state.apply_post(_locality("Town"))[0] == 200  # a whole write; posts after it append
        assert state.apply_post(_locality("City"))[0] == 200
    before = state.current
    fsync = os.fsync

    def failing_on_a_directory(fd):
        if _fsync_target(fd) == "directory fsync":
            raise OSError("injected directory fsync failure")
        fsync(fd)

    monkeypatch.setattr(os, "fsync", failing_on_a_directory)
    big = "\n".join(_locality(f"Village{i}") for i in range(100))  # a record past twice the file
    status, body, _ = state.apply_post(big)
    monkeypatch.undo()
    assert (status, json.loads(body)["error"]) == (507, "snapshot")
    assert state.current is before
    reloaded = load_state(data_path=str(data))  # what a restart would load now
    assert graph_equal(reloaded.current.graph, before.graph) and reloaded.current.epoch == before.epoch
    assert data.exists() == (whole_write != "no-file")
    assert not list(tmp_path.glob("*.tmp"))
    status, body, _ = state.apply_post(_locality("Hamlet"))
    assert (status, json.loads(body)) == (200, {"added": 1, "epoch": before.epoch + 1})
    assert data.read_text(encoding="utf-8").splitlines()[0] == f"# epoch {state.current.epoch}"
    _assert_reloads_as_live(state)


@pytest.mark.parametrize("fails", [False, True], ids=["written", "write-fails"])
@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_a_whole_write_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, collecting, fails):
    state = ServiceState(Graph(), builtin_schema(), snapshot_path=tmp_path / "kb.ttl")
    during = []
    serialize = service.serialize_turtle
    monkeypatch.setattr(service, "serialize_turtle", lambda doc: during.append(gc.isenabled()) or serialize(doc))

    def failing(fd):
        during.append(gc.isenabled())
        raise OSError("injected fsync failure")

    if fails:
        monkeypatch.setattr(os, "fsync", failing)
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        status = state.apply_post(GOOD_TTL)[0]
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert status == (507 if fails else 200)
    assert during == [False] * (1 + fails)
    assert after == collecting


def test_cross_product_with_limit_answers_one_row_and_health_still_answers(tmp_path):
    corpus, data = make_corpus(1, 5, True), tmp_path / "kb.ttl"
    data.write_text(corpus.turtle(), encoding="utf-8")
    srv = Server(load_state(data_path=str(data)), port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{srv.server_address[1]}"
        resp = requests.get(_query_url(base, "SELECT * WHERE { ?a ?b ?c . ?d ?e ?f } LIMIT 1"), timeout=30)
        assert resp.status_code == 200
        assert len(resp.json()["results"]["bindings"]) == 1
        assert requests.get(f"{base}/health", timeout=5).json() == {"triples": corpus.triples, "epoch": 0}
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


@pytest.mark.parametrize(
    "modifier,rows", [("LIMIT 99999999999999999999", 3), ("OFFSET " + "9" * 5000, 0)], ids=["limit", "offset"]
)
def test_a_limit_or_offset_past_sys_maxsize_answers_200_and_health_still_answers(server, modifier, rows):
    base, _ = server
    assert requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8")).status_code == 200
    resp = requests.get(_query_url(base, "SELECT * WHERE { ?s ?p ?o } " + modifier), timeout=30)
    assert resp.status_code == 200
    assert len(resp.json()["results"]["bindings"]) == rows
    assert requests.get(f"{base}/health", timeout=5).json() == {"triples": 3, "epoch": 1}


class TestNestedGroups:
    def test_past_the_bound_get_400_and_health_still_answers(self, server):
        base, _ = server
        query = "SELECT * WHERE " + "{" * 1200
        assert len(query) == 1215
        resp = requests.get(_query_url(base, query), timeout=30)
        assert resp.status_code == 400
        payload = resp.json()
        assert payload["message"] == f"groups nested deeper than {MAX_GROUP_DEPTH}"
        assert (payload["line"], payload["column"]) == (1, 16 + MAX_GROUP_DEPTH)  # the first { too deep
        assert requests.get(f"{base}/health", timeout=5).json() == {"triples": 0, "epoch": 0}

    def test_the_deepest_nesting_that_parses_evaluates_in_the_handler_thread(self, server):
        base, _ = server
        assert requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8")).status_code == 200
        optionals = MAX_GROUP_DEPTH - 1  # inside the outer group
        query = "SELECT * WHERE { ?a ?b ?c " + "OPTIONAL{" * optionals + "}" * (optionals + 1)
        assert len(query) <= service.MAX_QUERY_LENGTH
        resp = requests.get(_query_url(base, query), timeout=30)
        assert resp.status_code == 200
        assert len(resp.json()["results"]["bindings"]) == 3


# `serve` with SIGINT raising KeyboardInterrupt, as from a terminal: a
# process that starts with SIGINT ignored, as a shell's background job
# does, keeps it ignored
_INTERRUPTIBLE_SERVE = (
    "import signal, sys; from ontosoc.cli import run; "
    "signal.signal(signal.SIGINT, signal.default_int_handler); sys.exit(run(['serve', *sys.argv[1:]]))"
)


class TestProcessRestart:
    """Stop the server process, hard or by an interrupt, and confirm
    acknowledged data survives."""

    def _spawn(self, data_path, *, interruptible=False):
        how = ["-c", _INTERRUPTIBLE_SERVE] if interruptible else ["-m", "ontosoc.service"]
        proc = subprocess.Popen(
            [sys.executable, *how, "--port", "0", "--data", str(data_path)],
            stdout=subprocess.PIPE,
            text=True,
            env=_env(),
        )
        with proc.stdout:  # the server writes nothing else to it
            line = proc.stdout.readline().strip()
        assert line.startswith("listening on 127.0.0.1:")
        port = int(line.rsplit(":", 1)[1])
        return proc, f"http://127.0.0.1:{port}"

    def test_acknowledged_write_survives_sigkill(self, tmp_path):
        data_path = tmp_path / "kb.ttl"
        proc, base = self._spawn(data_path)
        try:
            resp = requests.post(f"{base}/graph", data=GOOD_TTL.encode("utf-8"))
            assert resp.status_code == 200
            epoch = resp.json()["epoch"]
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)

        proc, base = self._spawn(data_path)
        try:
            health = requests.get(f"{base}/health").json()
            assert health == {"triples": 3, "epoch": epoch}
            q = "SELECT ?c WHERE { ?c <http://maroua-univ/ns/ontosoc#isLocatedIn> ?l }"
            bindings = requests.get(_query_url(base, q)).json()["results"]["bindings"]
            assert len(bindings) == 1
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)

    def test_an_interrupted_serve_answers_the_post_in_flight(self, tmp_path):
        data_path = tmp_path / "kb.ttl"
        body = GOOD_TTL.encode("utf-8")
        half = len(body) // 2
        proc, base = self._spawn(data_path, interruptible=True)
        try:
            with socket.create_connection(("127.0.0.1", _port(base)), timeout=30) as sock:
                sock.sendall(f"POST /graph HTTP/1.0\r\nContent-Length: {len(body)}\r\n\r\n".encode("ascii") + body[:half])
                time.sleep(0.5)  # a worker has accepted the connection and reads the body
                proc.send_signal(signal.SIGINT)
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:  # until the server no longer accepts
                    try:
                        socket.create_connection(("127.0.0.1", _port(base)), timeout=1).close()
                    except ConnectionRefusedError:
                        break
                    time.sleep(0.01)
                else:
                    pytest.fail("the interrupted server still accepts")
                sock.sendall(body[half:])
                answer = b""
                while chunk := sock.recv(65536):
                    answer += chunk
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        head, _, payload = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200 ")
        assert json.loads(payload) == {"added": 3, "epoch": 1}
        state = load_state(str(data_path))
        assert (len(state.current.graph), state.current.epoch) == (3, 1)
