"""Minimal HTTP front end for the knowledge base.

Endpoints:
  GET  /sparql?query=...   evaluate a query, JSON results
  POST /graph              merge a Turtle body (validated, at most
                           MAX_BODY_BYTES)
  GET  /health             {"triples": n, "epoch": e}

Transport: WORKERS (8) threads, started by `Server.serve_forever`, each
block in ``accept()`` on the one listening socket and serve the
connection they accepted before accepting again (the Leader/Followers
pattern); no thread is started per connection.  A ninth concurrent
client waits in the listen backlog.  Each connection carries one
HTTP/1.0 request and is closed after its answer.  The request reader
and the handlers (`_Handler.do_GET` and `do_POST`,
`ServiceState.apply_post` and `run_query`) return that answer as
(status, body, content type), and `_Handler.handle` alone sends it, in
one send.  A request's head must arrive within READ_TIMEOUT (10 s) in
all, and its body within READ_TIMEOUT plus its size over MIN_BODY_RATE
(64 KiB/s), however the client paces its bytes.  A connection whose head
is not in by then is closed unanswered, and a body cut short by its
deadline, or by the peer closing, gets a 400.  The request line and
header fields may take MAX_HEADER_BYTES (64 KiB) in all: past that, 431
(414 if the request line alone is that long).  Every error body is JSON,
including 400 for a malformed request line or header field or a second
Content-Length, 501 for a method other than GET or POST, and 500 for a
fault anywhere before the send, after which the worker goes on serving.
A request answered before it was read to its end (as by a 413, 431 or
414, a 400 for a bad Content-Length, or any GET that declares a body) is
not closed at once, which would reset the connection under the answer:
the worker shuts its write side and discards what the client still
sends until the client's EOF, for at most READ_TIMEOUT and
MAX_BODY_BYTES + MAX_HEADER_BYTES bytes.  An interrupted `serve`
(KeyboardInterrupt) stops accepting and finishes the requests in flight,
waiting up to READ_TIMEOUT in all before it exits.

Writes are serialized behind a lock, and a post's in-memory work grows
with its delta, not with the graph.  The new graph is built aside by
`Graph.union` as an overlay: its own indexes hold only the triples
posted since the last fold, over a flat base that it shares with the
live graph, so a post copies only the overlay.  The union freezes both
graphs, so no graph that a reader may hold ever changes.  When the
overlay would pass `rdf.FOLD_TRIPLES`, the union folds it into a new
flat graph by path copying instead, once per that many posted triples.
The new graph is checked by `validate_delta`, which re-checks only what
the delta touches against the writer's own type map,
`ServiceState.types`.  Readers never read that map; the writer updates
it in place with the nodes a post retypes, and only once the post is
durable, so a refused post leaves it as it was.  The whole graph's types
are entailed once, when the state is built; its violations are never
listed.  A post is refused with a 422 only for the violations it adds,
those of a kind the graph before it had none of on the same triple
(domain, range) or on the same node and class pair (disjointness), and
the 422 lists only those.  The delta is made durable, and only then is
the live (graph, epoch) pair replaced, as one value.  Readers always see
a graph with its own epoch.

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
to a temp file that is fsynced and renamed over the old one, and then
the directory is fsynced, so that the rename survives a power loss too.
Until that last fsync succeeds, a hard link keeps the old file.  If it
fails, the old file is renamed back (a file that was not there is
removed), so the file holds only acknowledged posts; the post gets a
507, and the next post rewrites the file whole, at its own epoch,
whatever the size.  A whole write runs with the cyclic garbage collector
paused: the sort behind it allocates an object per triple, which would
make the collector rescan the whole graph.

`serve` freezes the objects alive once the state is loaded
(`gc.freeze`), and a post whose union folded the overlay freezes them
again, so the collector never walks the base, which holds no cycles.
The query engine, `sparql`, is imported on the first query.
"""

from __future__ import annotations

import gc
import json
import os
import re
import socket
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Union
from urllib.parse import parse_qs

from .rdf import Graph, PrefixMap, Triple
from .schema import SchemaDef, builtin_schema, schema_prefixes
from .turtle import Document, ParseError, parse_turtle, serialize_turtle
from .validation import TypeMap, ValidationReport, entail_types, validate_delta

DEFAULT_PORT = 7474
MAX_QUERY_LENGTH = 8192  # a longer query gets 414
MAX_BODY_BYTES = 16 * 1024 * 1024  # a longer POST body gets 413, unread
MAX_HEADER_BYTES = 64 * 1024  # a longer request line and header block gets 431 (414 if one line)
READ_TIMEOUT = 10.0  # seconds a request's head may take to arrive, in all, and an answer to go out
MIN_BODY_RATE = 64 * 1024  # bytes a second a body must average, past READ_TIMEOUT
WORKERS = 8  # threads that accept connections, each serving one at a time
_COMMIT = re.compile(rb"^# epoch ([0-9]+)\n", re.MULTILINE)


# an answer: (status, body, content type)
Answer = tuple[int, str, str]
_JSON = "application/json"


def _error(status: int, error: str, **fields) -> Answer:
    """A JSON error answer: ``{"error": error}`` and then ``fields``."""
    return status, json.dumps({"error": error, **fields}), _JSON


class Snapshot(NamedTuple):
    """The live graph and its epoch, replaced together by one assignment."""

    graph: Graph
    epoch: int = 0


class ServiceState:
    def __init__(self, graph: Graph, schema: SchemaDef, snapshot_path: Optional[Path] = None, epoch: int = 0):
        self.current = Snapshot(graph, epoch)
        # the live graph's type map; only a writer holding write_lock reads or changes it
        self.types: TypeMap = entail_types(graph, schema)
        self.schema = schema
        self.snapshot_path = snapshot_path
        self.write_lock = threading.Lock()
        # bytes of the file up to its last commit line, or None while the
        # next write must rewrite the file whole
        self._committed: Optional[int] = None
        self._compact_at = 0  # an append past this size rewrites the file whole

    def apply_post(self, body: str) -> Answer:
        """Parse, validate, persist, swap: the answer to a post of ``body``."""
        try:
            doc = parse_turtle(body)
        except ParseError as exc:
            return _error(400, "parse", line=exc.line, column=exc.column, message=exc.message)
        with self.write_lock:
            current = self.current
            merged, added = current.graph.union(doc.graph)
            retyped, offenses = validate_delta(merged, self.schema, self.types, added)
            if offenses:
                return 422, ValidationReport(offenses).render_machine() + "\n", "text/plain; charset=utf-8"
            epoch = current.epoch + 1
            try:
                self._persist(merged, added, epoch)
            except OSError as exc:
                return _error(507, "snapshot", message=str(exc))
            self.types.update(retyped)
            self.current = Snapshot(merged, epoch)
            if merged.flat:  # the union folded: its new base is long-lived
                gc.freeze()
            return 200, json.dumps({"added": len(added), "epoch": epoch}), _JSON

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
        self._committed = None  # so that, if this fails after the rename, the next write is whole
        with _collector_paused():  # the sort's many new objects would make it rescan the whole graph
            data = (commit + serialize_turtle(doc) + commit).encode("utf-8")
            self._atomic_write(path, data)
        self._committed = len(data)
        self._compact_at = 2 * len(data)

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        # a second name for the file being replaced, kept until its rename is durable
        old: Optional[str] = tmp[: -len(".tmp")] + ".old.tmp"
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            try:
                os.link(path, old)
            except FileNotFoundError:
                old = None
            os.replace(tmp, path)
        except OSError:
            for name in (tmp, old):
                if name is not None and os.path.exists(name):
                    os.unlink(name)
            raise
        try:
            fd = os.open(path.parent, os.O_RDONLY)  # the rename is durable once its directory is
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        except OSError:
            if old is None:
                os.unlink(path)
            else:
                os.replace(old, path)
            raise
        if old is not None:
            os.unlink(old)

    def run_query(self, query: str) -> Answer:
        from .sparql import QueryError, evaluate, parse_query, to_json_results

        try:
            ast = parse_query(query)
        except QueryError as exc:
            return _error(400, "query", line=exc.line, column=exc.column, message=exc.message)
        table = evaluate(ast, self.current.graph)  # one consistent snapshot
        return 200, to_json_results(table), "application/sparql-results+json"


@contextmanager
def _collector_paused() -> Iterator[None]:
    """The cyclic garbage collector off for the block, then as it was."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def load_state(data_path: Optional[str] = None, schema: Optional[SchemaDef] = None) -> ServiceState:
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
        epoch=epoch,
    )
    if committed is not None:
        state._committed, state._compact_at = committed, 2 * committed
    return state


class _Headers(dict):
    """Header fields by lower-cased name; ``get`` takes a name in any case."""

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


_HEAD_END = re.compile(rb"\r?\n\r?\n")
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 413: "Request Entity Too Large",
    414: "Request-URI Too Long", 422: "Unprocessable Entity", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented", 507: "Insufficient Storage",
}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _http_date() -> str:
    """The current time as an IMF-fixdate (RFC 9110 §5.6.7)."""
    t = time.gmtime()
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


class _Handler:
    """One HTTP/1.0 request on one accepted connection: read, passed to
    ``do_GET`` or ``do_POST``, and answered once."""

    def __init__(self, state: ServiceState, conn: socket.socket):
        self.state = state
        self.conn = conn
        self.path = ""  # the request target's path, without its query
        self.query = ""
        self.headers = _Headers()
        self.read_all = False  # whether the request has been read to its end
        self._rest = b""  # bytes read past the header block: the body's start

    def handle(self) -> bool:
        """Read the request and send its answer, in one send; whether an
        answer went out (none when the request never arrived)."""
        try:
            answer = self._answer()
            if answer is None:
                return False
            data = _encode(answer)
        except Exception:
            import traceback  # only on a fault: it stays off the cold start

            traceback.print_exc()
            data = _encode(_error(500, "internal error"))
        try:
            self.conn.settimeout(READ_TIMEOUT)  # a whole wait, whatever the read left
            self.conn.sendall(data)
        except OSError:  # the peer is gone: nobody is left to answer
            pass
        return True

    def _answer(self) -> Optional[Answer]:
        """The answer to the request, or None to close unanswered."""
        head = self._read_head()
        if not isinstance(head, bytes):
            return head  # None, or the 431 or 414
        request_line, *fields = head.decode("latin-1").split("\n")
        words = request_line.split()
        if len(words) != 3 or not words[2].startswith("HTTP/"):
            return _error(400, "malformed request line")
        method, target = words[0], words[1]
        if not target.startswith("/"):  # absolute-form, as sent to a proxy (RFC 9112 §3.2.2)
            target = "/" + target.partition("://")[2].partition("/")[2]
        self.path, _, self.query = target.partition("#")[0].partition("?")
        headers = self.headers
        for field in fields:
            name, colon, value = field.partition(":")
            if not colon or not name or name != name.strip():
                return _error(400, "malformed header field")
            key = name.lower()
            if key not in headers:
                headers[key] = value.strip()
            elif key == "content-length":  # RFC 9112 §6.3: no way to tell which is meant
                return _error(400, "more than one Content-Length")
        if method == "GET":
            # a GET is its head, unless it declares a body (RFC 9112 §6.3), which is drained
            self.read_all = "content-length" not in headers and "transfer-encoding" not in headers
            return self.do_GET()
        if method == "POST":
            return self.do_POST()
        return _error(501, "unsupported method")

    def _read_head(self) -> Union[bytes, Answer, None]:
        """The request line and header fields, without their blank line.

        None when the peer closes or resets first, or READ_TIMEOUT passes;
        the answer when the block is past MAX_HEADER_BYTES (414 if no line
        ended).
        """
        conn, buf, start = self.conn, b"", 0
        deadline = time.monotonic() + READ_TIMEOUT
        while True:
            end = _HEAD_END.search(buf, start)
            if end is not None and end.start() <= MAX_HEADER_BYTES:
                self._rest = buf[end.end():]
                return buf[: end.start()].replace(b"\r\n", b"\n")
            if len(buf) > MAX_HEADER_BYTES:
                if buf.find(b"\n", 0, MAX_HEADER_BYTES) >= 0:
                    return _error(431, f"header block exceeds {MAX_HEADER_BYTES} bytes")
                return _error(414, f"request line exceeds {MAX_HEADER_BYTES} bytes")
            chunk = _recv(conn, deadline, 65536)
            if not chunk:
                return None
            start = max(0, len(buf) - 3)
            buf += chunk

    def _read_body(self, size: int) -> bytes:
        """The next ``size`` bytes of the request, or fewer if the peer
        closes or resets first, or passes READ_TIMEOUT plus ``size`` over
        MIN_BODY_RATE."""
        chunks, got = [self._rest], len(self._rest)
        deadline = time.monotonic() + READ_TIMEOUT + size / MIN_BODY_RATE
        while got < size:
            chunk = _recv(self.conn, deadline, min(size - got, 262144))
            if not chunk:
                break
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)[:size]

    def do_GET(self) -> Answer:
        if self.path == "/health":
            graph, epoch = self.state.current
            return 200, json.dumps({"triples": len(graph), "epoch": epoch}), _JSON
        if self.path == "/sparql":
            query = parse_qs(self.query).get("query", [None])[0]
            if query is None:
                return _error(400, "missing query parameter")
            if len(query) > MAX_QUERY_LENGTH:
                return _error(414, "query too long")
            return self.state.run_query(query)
        return _error(404, "not found")

    def do_POST(self) -> Answer:
        if self.path != "/graph":
            return _error(404, "not found")
        length = self.headers.get("Content-Length", "").strip()
        if not (length.isascii() and length.isdigit()):
            return _error(400, "Content-Length must be a non-negative integer")
        size = int(length)
        if size > MAX_BODY_BYTES:
            return _error(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        data = self._read_body(size)
        self.read_all = len(data) == size
        if len(data) < size:
            return _error(400, f"body ended after {len(data)} of {size} bytes")
        try:
            body = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            return _error(400, "body is not valid UTF-8", message=str(exc))
        return self.state.apply_post(body)


def _encode(answer: Answer) -> bytes:
    """The HTTP/1.0 response that carries ``answer``."""
    status, body, content_type = answer
    payload = body.encode("utf-8")
    head = (f"HTTP/1.0 {status} {_REASONS[status]}\r\nDate: {_http_date()}\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n")
    return head.encode("latin-1") + payload


class Server:
    """WORKERS threads that each accept on one listening socket and serve
    the connection they accepted, one request, before accepting again."""

    def __init__(self, state: ServiceState, port: int = 0):
        self.state = state
        self.socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self.socket.bind(("127.0.0.1", port))
            self.socket.listen()
        except OSError:
            self.socket.close()
            raise
        self.server_address = self.socket.getsockname()
        self._closing = threading.Event()
        self._stopped = threading.Event()

    def serve_forever(self) -> None:
        """Start the workers and wait until `shutdown` has stopped them all.

        A KeyboardInterrupt stops the accepting too, and is raised again
        once each worker has finished its connection, or READ_TIMEOUT
        has passed in all."""
        workers = [threading.Thread(target=self._work, daemon=True) for _ in range(WORKERS)]
        deadline = None
        try:
            for worker in workers:
                worker.start()
            # not a join: on Python 3.11 a join cut short by the interrupt
            # leaves its thread marked as stopped, and the next join returns at once
            self._closing.wait()
        except KeyboardInterrupt:
            deadline = time.monotonic() + READ_TIMEOUT
            raise
        finally:
            self._stop_accepting()
            for worker in workers:
                if worker.is_alive():  # a join raises for one the interrupt kept from starting
                    worker.join(None if deadline is None else deadline - time.monotonic())
            self._stopped.set()

    def _work(self) -> None:
        listener, state = self.socket, self.state
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                if self._closing.is_set():
                    return
                continue  # the connection was aborted before it was accepted, or fds ran out
            try:
                handler = _Handler(state, conn)
                if handler.handle() and not handler.read_all:
                    _drain(conn)
            finally:
                conn.close()

    def _stop_accepting(self) -> None:
        self._closing.set()
        try:
            self.socket.shutdown(socket.SHUT_RDWR)  # wakes every worker blocked in accept()
        except OSError:
            pass

    def shutdown(self) -> None:
        """Stop `serve_forever` and wait until each worker has finished its connection."""
        self._stop_accepting()
        self._stopped.wait()

    def server_close(self) -> None:
        self._stop_accepting()
        self.socket.close()


def _drain(conn: socket.socket) -> None:
    """Shut the write side of a connection answered before its request
    was read to the end, then discard what the peer still sends until its
    EOF, for at most READ_TIMEOUT in all and MAX_BODY_BYTES +
    MAX_HEADER_BYTES bytes.  Closing with request bytes unread would
    reset the connection, and the peer could lose the answer."""
    deadline = time.monotonic() + READ_TIMEOUT
    left = MAX_BODY_BYTES + MAX_HEADER_BYTES
    try:
        conn.shutdown(socket.SHUT_WR)
    except OSError:  # the peer reset
        return
    while left > 0 and (chunk := _recv(conn, deadline, min(left, 262144))):
        left -= len(chunk)


def _recv(conn: socket.socket, deadline: float, limit: int) -> bytes:
    """At most ``limit`` bytes from ``conn``, waiting no later than
    ``deadline`` (`time.monotonic`); b"" once the peer has closed or reset,
    or the deadline has passed."""
    wait = deadline - time.monotonic()
    if wait <= 0:
        return b""
    try:
        conn.settimeout(wait)
        return conn.recv(limit)
    except OSError:  # the wait ran out, or the peer reset
        return b""


def serve(port: int = DEFAULT_PORT, data_path: Optional[str] = None, schema: Optional[SchemaDef] = None) -> None:
    with _collector_paused():  # it would only rescan the loaded graph, which has no cycles
        state = load_state(data_path, schema)
    gc.freeze()
    server = Server(state, port)
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

    # `python -m` runs this file as `__main__`: filed under its own name
    # too, it is the module that `serve` imports, not run a second time
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(run(["serve", *sys.argv[1:]]))
