"""Minimal HTTP front end for the knowledge base.

Endpoints:
  GET  /sparql?query=...   evaluate a query, JSON results
  POST /graph              merge a Turtle body (validated by default,
                           at most MAX_BODY_BYTES)
  GET  /health             {"triples": n, "epoch": e}

Writes are serialized behind a lock.  The new graph is built aside by
`Graph.union`, which shares every index container the delta does not
touch, and checked by `validate_delta`, which re-checks only what the
delta touches against the type map and violation list kept in the live
`Snapshot` (computed in full when the state is built).  The delta
is made durable, and only then is the live (graph, epoch) pair replaced,
as one value.  Readers always see a graph with its own epoch.

The ``--data`` file is a log of records.  It starts with a full
snapshot: a ``# epoch N`` line (a Turtle comment), the serialized graph
and the commit line ``# epoch N`` again.  Each accepted post appends one
record: its new triples as N-Triples lines, then the commit line
``# epoch N`` of its epoch (a post that adds nothing appends the commit
line alone).  A record goes out in one write and one fsync; if either
fails, the file is truncated back to its size before the append and the
post gets a 507.  The file as a whole is still Turtle, so blank-node
labels keep their meaning across records.

On load, everything after the last commit line is a torn tail from an
interrupted append: it is ignored, not loaded, and the next append cuts
it off first.  A file whose first line is not ``# epoch N`` (a fresh or
hand-written ``--data`` file) is loaded whole at epoch 0, and one with
no commit line after its first (written before the log) whole at its
first line's epoch; either is rewritten whole by the next post.  The
file is also rewritten whole, compacting the records into one snapshot,
when the file does not exist, or when an append would take it past
twice its size at the last whole write or at load.  A whole write goes
to a temp file that is fsynced and renamed over the old one.
"""

from __future__ import annotations

import gc
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

from .rdf import Graph, PrefixMap, Triple
from .schema import SchemaDef, builtin_schema, schema_prefixes
from .sparql import QueryError, evaluate, parse_query, to_json_results
from .turtle import Document, ParseError, parse_turtle, serialize_turtle
from .validation import TypeMap, ValidationReport, Violation, validate, validate_delta

DEFAULT_PORT = 7474
MAX_QUERY_LENGTH = 8192  # a longer query gets 414
MAX_BODY_BYTES = 16 * 1024 * 1024  # a longer POST body gets 413, unread
_COMMIT = re.compile(rb"^# epoch ([0-9]+)\n", re.MULTILINE)


@dataclass(frozen=True)
class Snapshot:
    """The live graph and its epoch, replaced together by one assignment,
    with the graph's type map and violation list when writes are
    validated."""

    graph: Graph
    epoch: int = 0
    checked: Optional[tuple[TypeMap, list[Violation]]] = None


class ServiceState:
    def __init__(
        self,
        graph: Graph,
        schema: SchemaDef,
        snapshot_path: Optional[Path] = None,
        validate_writes: bool = True,
        epoch: int = 0,
    ):
        checked = None
        if validate_writes:
            report = validate(graph, schema)
            checked = (report.types, report.violations)
        self.current = Snapshot(graph, epoch, checked)
        self.schema = schema
        self.snapshot_path = snapshot_path
        self.write_lock = threading.Lock()
        # bytes of the file up to its last commit line, or None while the
        # next write must rewrite the file whole
        self._committed: Optional[int] = None
        self._compact_at = 0  # an append past this size rewrites the file whole

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
            current = self.current
            merged, added = current.graph.union(doc.graph)
            checked = current.checked  # None when writes are not validated
            if checked is not None:
                checked = validate_delta(merged, self.schema, *checked, added)
                if checked[1]:
                    body = ValidationReport(checked[1]).render_machine() + "\n"
                    return 422, {"content-type": "text/plain; charset=utf-8"}, body
            epoch = current.epoch + 1
            try:
                self._persist(merged, added, epoch)
            except OSError as exc:
                return 507, {}, json.dumps({"error": "snapshot", "message": str(exc)})
            self.current = Snapshot(merged, epoch, checked)
            return 200, {}, json.dumps({"added": len(added), "epoch": epoch})

    def _persist(self, graph: Graph, added: list[Triple], epoch: int) -> None:
        """Append ``added`` and the commit line of ``epoch`` to the file,
        or rewrite it whole as ``graph`` at ``epoch``."""
        path = self.snapshot_path
        if path is None:
            return
        commit = f"# epoch {epoch}\n"
        record = "".join(t.n3() + "\n" for t in added).encode("utf-8") + commit.encode("ascii")
        if self._committed is not None and self._committed + len(record) <= self._compact_at:
            try:
                fd = os.open(path, os.O_WRONLY | os.O_APPEND)
            except FileNotFoundError:
                pass  # removed under the service: write it whole again
            else:
                try:
                    os.ftruncate(fd, self._committed)  # cut a torn tail
                    if os.write(fd, record) != len(record):
                        raise OSError(f"short write to {path}")
                    os.fsync(fd)
                except OSError:
                    os.ftruncate(fd, self._committed)
                    raise
                finally:
                    os.close(fd)
                self._committed += len(record)
                return
        doc = Document(graph=graph, prefixes=PrefixMap(schema_prefixes()))
        data = (commit + serialize_turtle(doc) + commit).encode("utf-8")
        self._atomic_write(path, data)
        self._committed = len(data)
        self._compact_at = 2 * len(data)

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
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
    """The service state for the file at ``data_path`` (empty if the file
    does not exist), checked against ``schema`` (None: the builtin schema).

    Reads the file only: a torn tail is skipped here and cut off by the
    next append.  Raises ParseError for a file that is not Turtle and
    UnicodeDecodeError for one that is not UTF-8.
    """
    graph, epoch, committed = Graph(), 0, None
    snapshot = Path(data_path) if data_path is not None else None
    if snapshot is not None and snapshot.exists():
        data = snapshot.read_bytes()
        commits = list(_COMMIT.finditer(data))
        if commits and commits[0].start() == 0:
            epoch = int(commits[-1].group(1))
            if len(commits) > 1:
                committed = commits[-1].end()
                data = data[:committed]
        graph = parse_turtle(data.decode("utf-8")).graph
    state = ServiceState(
        graph=graph,
        schema=builtin_schema() if schema is None else schema,
        snapshot_path=snapshot,
        validate_writes=validate_writes,
        epoch=epoch,
    )
    if committed is not None:
        state._committed, state._compact_at = committed, 2 * committed
    return state


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
    collecting = gc.isenabled()
    gc.disable()  # it would only rescan the loaded graph, which has no cycles
    try:
        state = load_state(data_path, schema, validate_writes)
    finally:
        if collecting:
            gc.enable()
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
