"""Minimal HTTP front end for the knowledge base.

Endpoints:
  GET  /sparql?query=...   evaluate a query, JSON results
  POST /graph              merge a Turtle body (validated by default,
                           at most MAX_BODY_BYTES)
  GET  /health             {"triples": n, "epoch": e}

Writes are serialized behind a lock and applied copy-on-write: the new
graph is built aside, the snapshot file is written atomically (temp file,
fsync, rename), and only then is the live (graph, epoch) pair replaced,
as one value.  Readers always see a graph with its own epoch.

The snapshot is one Turtle file whose first line, ``# epoch N``, is a
comment holding the epoch, so one atomic write commits the graph and its
epoch together and a restart loads the last fully persisted pair.  A
file without that line (a fresh ``--data`` file) loads as epoch 0.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional
from urllib.parse import parse_qs, urlparse

from .rdf import Graph, PrefixMap
from .schema import SchemaDef, builtin_schema, schema_prefixes
from .sparql import QueryError, evaluate, parse_query, to_json_results
from .turtle import Document, ParseError, parse_turtle, serialize_turtle
from .validation import validate

DEFAULT_PORT = 7474
MAX_QUERY_LENGTH = 8192  # a longer query gets 414
MAX_BODY_BYTES = 16 * 1024 * 1024  # a longer POST body gets 413, unread
_EPOCH_LINE = re.compile(r"# epoch ([0-9]+)$", re.MULTILINE)


@dataclass(frozen=True)
class Snapshot:
    """The live graph and its epoch, replaced together by one assignment."""

    graph: Graph
    epoch: int = 0


class ServiceState:
    def __init__(
        self,
        graph: Graph,
        schema: SchemaDef,
        snapshot_path: Optional[Path] = None,
        validate_writes: bool = True,
        epoch: int = 0,
    ):
        self.current = Snapshot(graph, epoch)
        self.schema = schema
        self.snapshot_path = snapshot_path
        self.validate_writes = validate_writes
        self.write_lock = threading.Lock()

    @property
    def graph(self) -> Graph:
        return self.current.graph

    @property
    def epoch(self) -> int:
        return self.current.epoch

    def apply_post(self, body: str) -> tuple[int, dict, str]:
        """Parse, validate, persist, swap.  Returns (status, headers-free
        payload info, body)."""
        try:
            doc = parse_turtle(body)
        except ParseError as exc:
            return 400, {}, json.dumps(
                {"error": "parse", "line": exc.line, "column": exc.column, "message": exc.message}
            )
        with self.write_lock:
            merged = self.current.graph.copy()
            added = merged.update(doc.graph)
            if self.validate_writes:
                report = validate(merged, self.schema)
                if not report.conforms:
                    return 422, {"content-type": "text/plain; charset=utf-8"}, report.render_machine() + "\n"
            epoch = self.current.epoch + 1
            try:
                self._persist(merged, epoch)
            except OSError as exc:
                return 507, {}, json.dumps({"error": "snapshot", "message": str(exc)})
            self.current = Snapshot(merged, epoch)
            return 200, {}, json.dumps({"added": added, "epoch": epoch})

    def _persist(self, graph: Graph, epoch: int) -> None:
        if self.snapshot_path is None:
            return
        doc = Document(graph=graph, prefixes=PrefixMap(schema_prefixes()))
        self._atomic_write(self.snapshot_path, f"# epoch {epoch}\n" + serialize_turtle(doc))

    @staticmethod
    def _atomic_write(path: Path, text: str) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def run_query(self, query: str) -> tuple[int, str]:
        try:
            ast = parse_query(query)
        except QueryError as exc:
            return 400, json.dumps(
                {"error": "query", "line": exc.line, "column": exc.column, "message": exc.message}
            )
        table = evaluate(ast, self.current.graph)  # one consistent snapshot
        return 200, to_json_results(table)


def load_state(
    data_path: Optional[str] = None,
    schema: Optional[SchemaDef] = None,
    validate_writes: bool = True,
) -> ServiceState:
    """The service state for the snapshot at ``data_path`` (empty if the file
    does not exist), checked against ``schema`` (None: the builtin schema)."""
    graph, epoch = Graph(), 0
    snapshot = Path(data_path) if data_path is not None else None
    if snapshot is not None and snapshot.exists():
        text = snapshot.read_text(encoding="utf-8")
        graph = parse_turtle(text).graph
        header = _EPOCH_LINE.match(text)
        if header:
            epoch = int(header.group(1))
    return ServiceState(
        graph=graph,
        schema=builtin_schema() if schema is None else schema,
        snapshot_path=snapshot,
        validate_writes=validate_writes,
        epoch=epoch,
    )


class _Handler(BaseHTTPRequestHandler):
    state: ServiceState  # set by make_server

    def log_message(self, format: str, *args) -> None:  # quiet by default
        pass

    def _send(self, status: int, body: str, content_type: str = "application/json") -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:
        url = urlparse(self.path)
        if url.path == "/health":
            current = self.state.current
            self._send(200, json.dumps({"triples": len(current.graph), "epoch": current.epoch}))
            return
        if url.path == "/sparql":
            params = parse_qs(url.query)
            if "query" not in params:
                self._send(400, json.dumps({"error": "missing query parameter"}))
                return
            query = params["query"][0]
            if len(query) > MAX_QUERY_LENGTH:
                self._send(414, json.dumps({"error": "query too long"}))
                return
            status, body = self.state.run_query(query)
            content_type = "application/sparql-results+json" if status == 200 else "application/json"
            self._send(status, body, content_type)
            return
        self._send(404, json.dumps({"error": "not found"}))

    def do_POST(self) -> None:
        url = urlparse(self.path)
        if url.path != "/graph":
            self._send(404, json.dumps({"error": "not found"}))
            return
        length = self.headers.get("Content-Length", "").strip()
        if not (length.isascii() and length.isdigit()):
            self._send(400, json.dumps({"error": "Content-Length must be a non-negative integer"}))
            return
        size = int(length)
        if size > MAX_BODY_BYTES:
            self._send(413, json.dumps({"error": f"body exceeds {MAX_BODY_BYTES} bytes"}))
            return
        try:
            body = self.rfile.read(size).decode("utf-8")
        except UnicodeDecodeError as exc:
            self._send(400, json.dumps({"error": "body is not valid UTF-8", "message": str(exc)}))
            return
        status, headers, payload = self.state.apply_post(body)
        self._send(status, payload, headers.get("content-type", "application/json"))


def make_server(state: ServiceState, port: int = 0) -> ThreadingHTTPServer:
    handler = type("BoundHandler", (_Handler,), {"state": state})
    return ThreadingHTTPServer(("127.0.0.1", port), handler)


def serve(
    port: int = DEFAULT_PORT,
    data_path: Optional[str] = None,
    schema: Optional[SchemaDef] = None,
    validate_writes: bool = True,
) -> None:
    state = load_state(data_path, schema, validate_writes)
    server = make_server(state, port)
    print(f"listening on 127.0.0.1:{server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


if __name__ == "__main__":
    import sys

    from .cli import run

    sys.exit(run(["serve", *sys.argv[1:]]))
