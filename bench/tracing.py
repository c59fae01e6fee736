"""Spans around ontosoc's public functions, recorded from outside the program.

``install`` wraps each function where it is looked up (module attributes
in every loaded ``ontosoc`` module, and methods on their classes).  Three
kinds of wrapper:

* span: a record (name, start, end, parent, request id, size) kept in
  memory and written out by ``Tracer.dump``;
* leaf: a hot call with no traced children (``Graph.match``); its count,
  time and size are folded into the innermost open span instead of
  being kept one by one, which keeps memory bounded;
* counter: a call that is only counted; its time stays in its caller's
  self time.

Leaf and counter calls made outside every span are not recorded.  On the
traced paths there are none: a CLI command runs inside ``cli.run``, and
the service loads inside ``service.load_state`` and answers inside a
handler span.

A request id comes from the ``X-Bench-Request`` header of the HTTP
request being handled, or, for a CLI process, from ``Tracer.request``.
Ids are ``<kind>:<n>``; spans outside any request belong to set-up.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

REQUEST_HEADER = "X-Bench-Request"
SETUP = "setup"

# (module, attribute path, span name, size of (args, result))
SPANS = (
    ("ontosoc.turtle", "parse_turtle", "turtle.parse", lambda a, r: len(a[0])),
    ("ontosoc.turtle", "serialize_turtle", "turtle.serialize", lambda a, r: len(r)),
    ("ontosoc.rdf", "Graph.copy", "rdf.copy", None),
    ("ontosoc.validation", "validate", "validation.validate", lambda a, r: len(r.violations)),
    ("ontosoc.validation", "infer_types", "validation.infer_types", None),
    ("ontosoc.validation", "check_domain_range", "validation.domain_range", None),
    ("ontosoc.validation", "check_disjointness", "validation.disjointness", None),
    ("ontosoc.sparql", "parse_query", "sparql.parse_query", None),
    ("ontosoc.sparql", "evaluate", "sparql.evaluate", lambda a, r: len(r.rows)),
    ("ontosoc.sparql", "to_json_results", "sparql.to_json", lambda a, r: len(r)),
    ("ontosoc.service", "load_state", "service.load_state", None),
    ("ontosoc.service", "ServiceState.apply_post", "service.apply_post", None),
    ("ontosoc.service", "ServiceState._persist", "service.persist", None),
    ("ontosoc.service", "ServiceState.run_query", "service.run_query", None),
    ("ontosoc.cli", "run", "cli.run", None),
)
LEAVES = (("ontosoc.rdf", "Graph.match", "rdf.match", lambda a, r: len(r)),)
COUNTERS = (
    ("ontosoc.rdf", "Graph.add", "rdf.add"),
    ("ontosoc.schema", "SchemaDef.signatures_for", "schema.signatures_for"),
    ("ontosoc.schema", "SchemaDef.superclass_closure", "schema.superclass_closure"),
    ("os", "fsync", "service.fsync"),
)
HANDLERS = (("ontosoc.service", "_Handler.do_GET"), ("ontosoc.service", "_Handler.do_POST"))
HANDLER_SPAN = "service.handle"

# span record fields
NAME, START, END, PARENT, REQUEST, SIZE, LEAVES_AT = range(7)


class Tracer:
    def __init__(self, request: Optional[str] = None):
        self.request = request  # default request id for spans of this process
        self.spans: list[list] = []
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = None
        return local

    def _fold(self, name: str, calls: int, seconds: float, size: int) -> None:
        """Add to the innermost open span's leaf totals; outside every span, drop the call."""
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._state().stack
        if not stack:
            return
        top = stack[-1]
        leaves = top[LEAVES_AT]
        if leaves is None:
            leaves = top[LEAVES_AT] = {}
        entry = leaves.get(name)
        if entry is None:
            leaves[name] = [calls, seconds, size]
        else:
            entry[0] += calls
            entry[1] += seconds
            entry[2] += size

    def span(self, name: str, fn: Callable, size_of: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, state.request or self.request, None, None]
            stack.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                self.spans.append(rec)
            if size_of is not None:
                rec[SIZE] = size_of(args, result)
            return result

        return wrapper

    def leaf(self, name: str, fn: Callable, size_of: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            self._fold(name, 1, perf_counter() - t0, size_of(args, result))
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._fold(name, 1, 0.0, 0)
            return fn(*args, **kwargs)

        return wrapper

    def handler(self, fn: Callable) -> Callable:
        """An HTTP handler method: takes the request id from the header, then spans."""
        inner = self.span(HANDLER_SPAN, fn)

        @functools.wraps(fn)
        def wrapper(handler_self, *args, **kwargs):
            state = self._state()
            state.request = handler_self.headers.get(REQUEST_HEADER)
            try:
                return inner(handler_self, *args, **kwargs)
            finally:
                state.request = None

        return wrapper

    def dump(self, path: str, startup_s: Optional[float] = None) -> None:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        spans = [
            [r[NAME], r[START], r[END], index.get(id(r[PARENT])) if r[PARENT] is not None else None,
             r[REQUEST], r[SIZE], r[LEAVES_AT]]
            for r in self.spans
        ]
        doc = {"request": self.request, "startup_s": startup_s, "spans": spans}
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _replace(module: str, path: str, wrapper_of: Callable[[Callable], Callable]) -> None:
    """Replace a function everywhere it is looked up: on its class, or in every ontosoc module."""
    owner, attr = _resolve(module, path)
    original = getattr(owner, attr)
    wrapped = wrapper_of(original)
    if "." in path or module == "os":
        setattr(owner, attr, wrapped)
        return
    for name, mod in list(sys.modules.items()):
        if (name == "ontosoc" or name.startswith("ontosoc.")) and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    for module in ("ontosoc", "ontosoc.cli", "ontosoc.service"):
        importlib.import_module(module)
    for module, path, name, size_of in SPANS:
        _replace(module, path, lambda fn, n=name, s=size_of: tracer.span(n, fn, s))
    for module, path, name, size_of in LEAVES:
        _replace(module, path, lambda fn, n=name, s=size_of: tracer.leaf(n, fn, s))
    for module, path, name in COUNTERS:
        _replace(module, path, lambda fn, n=name: tracer.counter(n, fn))
    for module, path in HANDLERS:
        _replace(module, path, tracer.handler)


# ---------------------------------------------------------------------------
# analysis


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover and its folded leaf time."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        leaf_s = sum(v[1] for v in (s[LEAVES_AT] or {}).values())
        out.append(s[END] - s[START] - covered(s[START], s[END], children.get(i, [])) - leaf_s)
    return out


def kind_of(request: Optional[str]) -> str:
    return request.split(":", 1)[0] if request else SETUP


def tally(docs: list[dict], client_latency: dict[str, float]) -> dict[str, dict[str, dict[str, float]]]:
    """kind -> request -> measure -> value, from span dumps and client latencies.

    Measures are ``<span>.self_s``, ``<span>.calls`` and ``<span>.size``
    for spans and leaves, ``sparql.evaluate.match_calls`` (match calls
    made directly by query evaluation), ``service.http.self_s`` (client
    latency minus the handler span) and ``cli.startup.self_s``.
    """
    out: dict[str, dict[str, dict[str, float]]] = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for doc in docs:
        spans = doc["spans"]
        selfs = self_times(spans)
        for s, self_s in zip(spans, selfs):
            req = s[REQUEST]
            t = out[kind_of(req)][req or SETUP]
            t[s[NAME] + ".self_s"] += self_s
            t[s[NAME] + ".calls"] += 1
            t[s[NAME] + ".size"] += s[SIZE] or 0
            for leaf, (calls, secs, size) in (s[LEAVES_AT] or {}).items():
                t[leaf + ".calls"] += calls
                t[leaf + ".self_s"] += secs
                t[leaf + ".size"] += size
            if s[NAME] == "sparql.evaluate":
                t["sparql.evaluate.match_calls"] += (s[LEAVES_AT] or {}).get("rdf.match", [0])[0]
            if s[NAME] == HANDLER_SPAN and req in client_latency:
                t["service.http.self_s"] += client_latency[req] - (s[END] - s[START])
        if doc.get("startup_s") is not None:
            req = doc.get("request")
            out[kind_of(req)][req or SETUP]["cli.startup.self_s"] += doc["startup_s"]
    return out


def per_kind_means(tallies: dict) -> dict[str, dict[str, float]]:
    means = {}
    for kind, requests in tallies.items():
        keys = {k for t in requests.values() for k in t}
        means[kind] = {k: sum(t.get(k, 0.0) for t in requests.values()) / len(requests) for k in keys}
    return means


def round_totals(means: dict[str, dict[str, float]]) -> dict[str, float]:
    """One round: set-up once plus one request of each kind, each at its mean."""
    out: dict[str, float] = defaultdict(float)
    for m in means.values():
        for k, v in m.items():
            out[k] += v
    return out


# per-layer metric -> (measure, unit); sparql.match_calls_per_row is a ratio of two measures
LAYER_METRICS = {
    "turtle.parse_s": ("turtle.parse.self_s", "s"),
    "turtle.parse_bytes": ("turtle.parse.size", "bytes"),
    "turtle.serialize_s": ("turtle.serialize.self_s", "s"),
    "turtle.serialize_bytes": ("turtle.serialize.size", "bytes"),
    "rdf.copy_calls": ("rdf.copy.calls", "count"),
    "rdf.copy_s": ("rdf.copy.self_s", "s"),
    "rdf.add_calls": ("rdf.add.calls", "count"),
    "rdf.match_calls": ("rdf.match.calls", "count"),
    "rdf.match_s": ("rdf.match.self_s", "s"),
    "rdf.match_triples": ("rdf.match.size", "count"),
    "schema.signatures_for_calls": ("schema.signatures_for.calls", "count"),
    "schema.superclass_closure_calls": ("schema.superclass_closure.calls", "count"),
    "validation.validate_s": ("validation.validate.self_s", "s"),
    "validation.infer_types_calls": ("validation.infer_types.calls", "count"),
    "validation.infer_types_s": ("validation.infer_types.self_s", "s"),
    "validation.domain_range_s": ("validation.domain_range.self_s", "s"),
    "validation.disjointness_s": ("validation.disjointness.self_s", "s"),
    "validation.violations": ("validation.validate.size", "count"),
    "sparql.parse_query_s": ("sparql.parse_query.self_s", "s"),
    "sparql.evaluate_s": ("sparql.evaluate.self_s", "s"),
    "sparql.rows_out": ("sparql.evaluate.size", "count"),
    "sparql.match_calls_per_row": (None, "count"),
    "sparql.to_json_s": ("sparql.to_json.self_s", "s"),
    "sparql.json_bytes": ("sparql.to_json.size", "bytes"),
    "service.apply_post_s": ("service.apply_post.self_s", "s"),
    "service.persist_s": ("service.persist.self_s", "s"),
    "service.fsync_calls": ("service.fsync.calls", "count"),
    "service.run_query_s": ("service.run_query.self_s", "s"),
    "service.http_s": ("service.http.self_s", "s"),
    "cli.startup_s": ("cli.startup.self_s", "s"),
}


def layer_metrics(totals: dict[str, float]) -> dict[str, dict]:
    out = {}
    for metric, (measure, unit) in LAYER_METRICS.items():
        if measure is None:
            rows = totals.get("sparql.evaluate.size", 0.0)
            value = totals.get("sparql.evaluate.match_calls", 0.0) / rows if rows else 0.0
        else:
            value = totals.get(measure, 0.0)
        out[metric] = {"value": value, "unit": unit}
    return out


SEPARATE = ("service.http", "cli.startup")  # shown apart from their layer's functions


def layer_self_ms(means: dict[str, float]) -> dict[str, float]:
    """Self milliseconds per layer: the module part of each span name, but SEPARATE kept whole."""
    out: dict[str, float] = defaultdict(float)
    for k, v in means.items():
        if k.endswith(".self_s"):
            name = k[: -len(".self_s")]
            out[name if name in SEPARATE else name.split(".", 1)[0]] += v * 1000.0
    return dict(out)
