"""Benchmark for ontosoc: the CLI and the HTTP service, driven from outside.

    python3 bench/run.py [--workload batch-cli|serve-read|serve-write|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from its
``src/``.  Each workload generates its inputs from the seed (bench/gen.py),
runs the real ``ontosoc`` CLI or a ``python -m ontosoc.service`` process,
checks every answer against the generator's expectations, and prints its
metrics by name with units.  The last line of standard output is a JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  Exit status 0 means every check passed.

With ``--trace 1`` the run is split in two halves with the same seed: an
untraced pass, then a pass whose CLI commands or server start through
bench/launcher.py with spans installed.  The per-layer metrics come from
the traced pass; the difference between the passes is printed as the
tracing overhead.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import gen, measure, tracing  # noqa: E402
from bench.measure import PYTHON, Server, median, percentile  # noqa: E402

WORK = ROOT / ".bench_work"
K = {"batch-cli": 300, "serve-read": 300, "serve-write": 50}
# An untraced run sets up at least SETUP_MIN times, then again while less than
# SETUP_SECONDS have been spent, at most SETUP_MAX times; setup_s is the median.
SETUP_MIN, SETUP_SECONDS, SETUP_MAX = 3, 6.0, 15
CONNECTIONS = 2  # client threads, each a closed loop (nproc = 2 on the reference machine)
READ_RATE = 50.0  # serve-write: lookups per second the reader sends, on a fixed schedule (open loop)

# end-to-end metrics printed in the JSON line; per workload, which operation each one times or counts
HEAVY = {"batch-cli": "validate", "serve-read": "report", "serve-write": "post"}
LIGHT = {"batch-cli": "query", "serve-read": "lookup", "serve-write": "lookup"}
OPS = {"batch-cli": ("validate", "query"), "serve-read": ("lookup", "report"), "serve-write": ("post",)}


class CheckFailed(Exception):
    pass


# what a malformed answer can raise while it is being checked
BAD_ANSWER = (CheckFailed, ValueError, KeyError, IndexError, TypeError)


@dataclass
class Pass:
    """What one measured pass of a workload saw."""

    setup: list[float] = field(default_factory=list)
    latency: dict[str, list[float]] = field(default_factory=dict)  # operation -> seconds
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    ok: dict[str, int] = field(default_factory=dict)  # operation -> correct completions
    late: list[float] = field(default_factory=list)  # open loop: seconds each request was sent after it was due
    extra: dict[str, float] = field(default_factory=dict)
    by_request: dict[str, float] = field(default_factory=dict)  # request id -> client latency
    spans: list[dict] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, op: str, request: str, seconds: float, ok: bool, error: str = "") -> None:
        with self.lock:
            self.attempted += 1
            self.latency.setdefault(op, []).append(seconds)
            self.by_request[request] = seconds
            if ok:
                self.ok[op] = self.ok.get(op, 0) + 1
            else:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(f"{request}: {error}")

    def per_second(self, ops: tuple[str, ...]) -> float:
        return sum(self.ok.get(op, 0) for op in ops) / self.elapsed

    def more_setups(self, minimum: int, budget: float) -> bool:
        n = len(self.setup)
        return n < minimum or (n < SETUP_MAX and sum(self.setup) < budget)

    def fail(self, error: str) -> None:
        with self.lock:
            self.attempted += 1
            self.failed += 1
            self.errors.append(error)


class Workdir:
    def __init__(self, name: str):
        self.path = WORK / name
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self._n = 0

    def file(self, stem: str) -> Path:
        self._n += 1
        return self.path / f"{stem}-{self._n}"


# ---------------------------------------------------------------------------
# answer checks


def _rows(body: bytes, variables: tuple[str, ...]) -> list[tuple[str, ...]]:
    doc = json.loads(body)
    if tuple(doc["head"]["vars"]) != variables:
        raise CheckFailed(f"head vars {doc['head']['vars']} != {list(variables)}")
    rows = []
    for b in doc["results"]["bindings"]:
        if any(b.get(v, {}).get("type") != "uri" for v in variables):
            raise CheckFailed(f"unexpected binding {b}")
        rows.append(tuple(b[v]["value"] for v in variables))
    return rows


def check_report(body: bytes, corpus: gen.Corpus) -> int:
    rows = _rows(body, gen.REPORT_VARS)
    expected = corpus.report_rows()
    if rows != expected:
        missing = len(set(expected) - set(rows))
        raise CheckFailed(f"report: {len(rows)} rows, expected {len(expected)} ({missing} missing or out of order)")
    return len(rows)


def check_lookup(body: bytes, read: gen.Read, members: Optional[Callable[[set], bool]] = None) -> None:
    rows = sorted(_rows(body, read.variables))
    if members is not None:
        if not members({r[0] for r in rows}):
            raise CheckFailed(f"members of {read.community}: {rows}")
    elif tuple(rows) != read.expected:
        raise CheckFailed(f"{read.kind}: got {rows}, expected {list(read.expected)}")


def check_query(code: int, out: bytes, corpus: gen.Corpus) -> None:
    if code != 0:
        raise CheckFailed(f"query exited {code}")
    check_report(out, corpus)


def check_validate(code: int, out: bytes, corpus: gen.Corpus) -> None:
    if code != 1:
        raise CheckFailed(f"validate exited {code}, expected 1")
    doc = json.loads(out)
    nodes: dict[str, list[str]] = {"domain": [], "range": [], "disjointness": []}
    for v in doc["violations"]:
        node = v["machine"].split("\t")[1]
        nodes.setdefault(v["kind"], []).append(node.strip("<>"))
    got = {kind: sorted(ns) for kind, ns in nodes.items()}
    if got != corpus.violation_nodes():
        counts = {kind: len(ns) for kind, ns in got.items()}
        raise CheckFailed(f"violations {counts}, expected {corpus.violation_counts()}")
    if doc["checkedTriples"] != corpus.checked_triples:
        raise CheckFailed(f"checkedTriples {doc['checkedTriples']}, expected {corpus.checked_triples}")


# ---------------------------------------------------------------------------
# batch-cli


def batch_cli(seed: int, seconds: float, traced: bool, setups: tuple, work: Workdir, env: dict) -> Pass:
    corpus = gen.make_corpus(seed, K["batch-cli"], faults=True)
    data = work.path / "corpus.ttl"
    data.write_text(corpus.turtle(), encoding="utf-8")
    query = work.path / "community_activities.rq"
    query.write_text(gen.REPORT_QUERY, encoding="utf-8")
    result = Pass()
    counter = iter(range(1 << 30))

    def cli(kind: str, *args: str) -> tuple[str, float, int, bytes]:
        request = f"{kind}:{next(counter)}"
        spans = work.file("spans")
        t0 = time.perf_counter()
        if traced:
            argv = [PYTHON, "-m", "bench.launcher", "--spans", str(spans), "--request", request,
                    "--spawned-at", repr(t0), "cli", *args]
        else:
            argv = [PYTHON, "-m", "ontosoc.cli", *args]
        with measure.spawn(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            stdout, stderr = proc.communicate()
        elapsed = time.perf_counter() - t0
        if traced and spans.exists():
            result.spans.append(json.loads(spans.read_text(encoding="utf-8")))
        if proc.returncode not in (0, 1):
            sys.stderr.write(stderr.decode("utf-8", "replace"))
        return request, elapsed, proc.returncode, stdout

    while result.more_setups(*setups):
        request, elapsed, code, out = cli(tracing.SETUP, "stats", "--format", "json", str(data))
        triples = json.loads(out)["triples"] if code == 0 else None
        if triples != corpus.triples:
            raise CheckFailed(f"stats: exit {code}, triples {triples}, expected {corpus.triples}")
        result.setup.append(elapsed)

    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for kind, args, check in (
            ("validate", ("validate", "--format", "json", str(data)),
             lambda code, out: check_validate(code, out, corpus)),
            ("query", ("query", "--file", str(query), "--format", "json", str(data)),
             lambda code, out: check_query(code, out, corpus)),
        ):
            request, elapsed, code, out = cli(kind, *args)
            try:
                check(code, out)
                result.record(kind, request, elapsed, True)
            except BAD_ANSWER as exc:
                result.record(kind, request, elapsed, False, str(exc))
        if time.perf_counter() >= deadline:
            break
    result.elapsed = time.perf_counter() - start
    return result


# ---------------------------------------------------------------------------
# service workloads


def _server_argv(data: Path, traced: bool, spans: Path) -> list[str]:
    if traced:
        return [PYTHON, "-m", "bench.launcher", "--spans", str(spans), "serve", "--port", "0", "--data", str(data)]
    return [PYTHON, "-m", "ontosoc.service", "--port", "0", "--data", str(data)]


def _start(data: Path, traced: bool, setups: tuple, work: Workdir, env: dict, result: Pass) -> tuple[Server, Path]:
    """Start the server as often as ``setups`` asks, keeping the last; each start is a set-up sample."""
    server = None
    spans = work.file("spans")
    while result.more_setups(*setups):
        if server is not None:
            server.close()
        server = Server(_server_argv(data, traced, spans), env, ROOT, work.file("server.log"))
        result.setup.append(server.setup_s)
    return server, spans


def _stop(server: Server, spans: Path, traced: bool, result: Pass) -> None:
    server.close()
    if traced:
        result.spans.append(json.loads(spans.read_text(encoding="utf-8")))


def _get(server: Server, read: gen.Read, request: str) -> tuple[float, float, int, bytes]:
    """Send one query: (sent at, answered at, status, body)."""
    path = "/sparql?" + urllib.parse.urlencode({"query": read.query})
    t0 = time.perf_counter()
    status, body = measure.request(server.port, "GET", path, headers={tracing.REQUEST_HEADER: request})
    return t0, time.perf_counter(), status, body


def _reader(server: Server, reads, deadline: float, result: Pass, conn: int, corpus: gen.Corpus,
            members_check: Optional[Callable] = None, rate: Optional[float] = None) -> None:
    """A closed loop, or with ``rate`` an open loop: request n is due ``n / rate`` s after the start."""
    n = 0
    start = time.perf_counter()
    while time.perf_counter() < deadline:
        due = None
        if rate is not None:
            due = start + n / rate
            if due >= deadline:
                break
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
        read = next(reads)
        op = "report" if read.kind == "report" else "lookup"
        request = f"{op}:{conn}-{n}"
        n += 1
        check = members_check(read) if members_check is not None and read.kind == "members" else None
        try:
            sent, done, status, body = _get(server, read, request)
        except OSError as exc:
            result.fail(f"{request}: {exc}")
            break
        elapsed = done - sent
        if due is not None:  # an open loop times a request from when it was due
            elapsed = done - min(due, sent)
            with result.lock:
                result.late.append(max(0.0, sent - due))
        try:
            if status != 200:
                raise CheckFailed(f"status {status}")
            if op == "report":
                check_report(body, corpus)
            else:
                check_lookup(body, read, check)
            result.record(op, request, elapsed, True)
        except BAD_ANSWER as exc:
            result.record(op, request, elapsed, False, str(exc))


def _run_threads(targets: list[Callable[[], None]]) -> None:
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def serve_read(seed: int, seconds: float, traced: bool, setups: tuple, work: Workdir, env: dict) -> Pass:
    corpus = gen.make_corpus(seed, K["serve-read"], faults=False)
    data = work.path / "data" / "kb.ttl"
    data.parent.mkdir()
    data.write_text(corpus.turtle(), encoding="utf-8")
    result = Pass()
    server, spans = _start(data, traced, setups, work, env, result)
    try:
        if server.health["triples"] != corpus.triples:
            raise CheckFailed(f"/health triples {server.health['triples']}, expected {corpus.triples}")
        start = time.perf_counter()
        deadline = start + seconds
        _run_threads([
            (lambda c=c: _reader(server, gen.read_mix(seed, corpus.k, f"c{c}"), deadline, result, c, corpus))
            for c in range(CONNECTIONS)
        ])
        result.elapsed = time.perf_counter() - start
    finally:
        _stop(server, spans, traced, result)
    return result


class Writer:
    """Posts the seeded delta sequence, one at a time, until the deadline."""

    def __init__(self, server: Server, seed: int, corpus: gen.Corpus, data_dir: Path):
        self.server = server
        self.deltas = gen.deltas(seed, corpus.k)
        self.sent: list[gen.Delta] = []
        self.acked = 0
        self.epoch = 0
        self.accepted_bytes = 0
        self.written = 0
        self.data_dir = data_dir

    def run(self, deadline: float, result: Pass) -> None:
        scan = measure.scan_dir(self.data_dir)
        while time.perf_counter() < deadline:
            delta = next(self.deltas)
            body = delta.body.encode("utf-8")
            request = f"post:{delta.index}"
            self.sent.append(delta)
            t0 = time.perf_counter()
            try:
                status, reply = measure.request(
                    self.server.port, "POST", "/graph", body=body,
                    headers={"Content-Type": "text/turtle", tracing.REQUEST_HEADER: request})
            except OSError as exc:
                result.fail(f"{request}: {exc}")
                break
            elapsed = time.perf_counter() - t0
            after = measure.scan_dir(self.data_dir)
            self.written += measure.bytes_written(scan, after)
            scan = after
            try:
                if delta.valid:
                    if status != 200:
                        raise CheckFailed(f"status {status}: {reply[:200]!r}")
                    answer = json.loads(reply)
                    if answer != {"added": 3, "epoch": self.epoch + 1}:
                        raise CheckFailed(f"answer {answer}, expected added=3 epoch={self.epoch + 1}")
                    self.epoch += 1
                    self.accepted_bytes += len(body)
                else:
                    if status != 422 or not reply.startswith(b"range\t<" + delta.person.encode()):
                        raise CheckFailed(f"invalid delta got status {status}: {reply[:200]!r}")
                result.record("post", request, elapsed, True)
            except BAD_ANSWER as exc:
                result.record("post", request, elapsed, False, str(exc))
                break
            self.acked += 1


def serve_write(seed: int, seconds: float, traced: bool, setups: tuple, work: Workdir, env: dict) -> Pass:
    corpus = gen.make_corpus(seed, K["serve-write"], faults=False)
    data_dir = work.path / "data"
    data_dir.mkdir()
    data = data_dir / "kb.ttl"
    data.write_text(corpus.turtle(), encoding="utf-8")
    base_bytes = data.stat().st_size
    result = Pass()
    server, spans = _start(data, traced, setups, work, env, result)
    writer = Writer(server, seed, corpus, data_dir)
    lookups = gen.lookups(seed, corpus.k, "c1")
    base_members = {}

    def members_check(read: gen.Read):
        low = writer.acked
        base = base_members.setdefault(read.community, {r[0] for r in read.expected})
        return lambda answer: gen.members_consistent(answer, base, read.community, writer.sent, low, len(writer.sent))

    try:
        start = time.perf_counter()
        deadline = start + seconds
        _run_threads([
            lambda: writer.run(deadline, result),
            lambda: _reader(server, lookups, deadline, result, 1, corpus, members_check, READ_RATE),
        ])
        result.elapsed = time.perf_counter() - start
        expected = {"triples": corpus.triples + 3 * writer.epoch, "epoch": writer.epoch}
        result.extra["write_amp"] = writer.written / max(1, writer.accepted_bytes)
        result.extra["space_amp"] = measure.dir_bytes(measure.scan_dir(data_dir)) / (base_bytes + writer.accepted_bytes)
        if traced:  # the traced server must stop cleanly to write its spans
            health = server.wait_healthy(time.perf_counter() + 10.0)
        else:
            t0 = time.perf_counter()
            server.kill9()
            server = Server(_server_argv(data, False, spans), env, ROOT, work.file("server.log"))
            result.extra["recover_s"] = time.perf_counter() - t0
            health = server.health
        if health != expected:
            result.fail(f"after the writes{'' if traced else ' and kill -9'}: /health {health}, expected {expected}")
        else:
            result.attempted += 1
    finally:
        _stop(server, spans, traced, result)
    return result


WORKLOADS = {"batch-cli": batch_cli, "serve-read": serve_read, "serve-write": serve_write}


# ---------------------------------------------------------------------------
# reporting


def end_to_end(workload: str, p: Pass) -> dict[str, dict]:
    """The JSON metrics of BENCHMARK.json's end_to_end list."""
    return {
        "setup_s": {"value": median(p.setup), "unit": "s"},
        "heavy_ms": {"value": median(p.latency[HEAVY[workload]]) * 1000.0, "unit": "ms"},
        "light_ms": {"value": median(p.latency[LIGHT[workload]]) * 1000.0, "unit": "ms"},
        "ops_per_s": {"value": p.per_second(OPS[workload]), "unit": "1/s"},
    }


def named_lines(workload: str, p: Pass) -> list[str]:
    """Every end-to-end metric under its workload-specific name, with unit and sample counts."""
    lines = [f"{'setup_s':<22} {median(p.setup):.4f} s (median of {len(p.setup)})"]

    def pct(name: str, op: str, q: float) -> None:
        if op in p.latency:
            ms = [x * 1000.0 for x in p.latency[op]]
            lines.append(f"{name:<22} {percentile(ms, q).describe('ms')}")

    if workload == "batch-cli":
        for op in ("validate", "query"):
            lines.append(f"{op + '_s':<22} {median(p.latency[op]):.4f} s (median of {len(p.latency[op])})")
        lines.append(f"{'commands_per_s':<22} {p.per_second(OPS[workload]):.4f} 1/s")
    else:
        pct("lookup_p50_ms", "lookup", 50)
        pct("lookup_p99_ms", "lookup", 99)
        if workload == "serve-read":
            pct("report_p50_ms", "report", 50)
            pct("report_p90_ms", "report", 90)
        else:
            pct("post_p50_ms", "post", 50)
            pct("post_p90_ms", "post", 90)
        lines.append(f"{'reads_per_s':<22} {p.per_second(('lookup', 'report')):.4f} 1/s")
        if workload == "serve-write":
            lines.append(f"{'writes_per_s':<22} {p.per_second(('post',)):.4f} 1/s")
        if p.late:
            late = percentile([x * 1000.0 for x in p.late], 99)
            lines.append(f"{'reader_late_p99_ms':<22} {late.describe('ms')} (open loop at {READ_RATE:g}/s)")
    for name, unit in (("recover_s", "s"), ("write_amp", "bytes/byte"), ("space_amp", "bytes/byte")):
        if name in p.extra:
            lines.append(f"{name:<22} {p.extra[name]:.4f} {unit}")
    lines.append(f"{'error_rate':<22} {p.failed / max(1, p.attempted):.4f} ({p.failed} of {p.attempted})")
    return lines


def trace_lines(workload: str, untraced: Pass, traced: Pass) -> list[str]:
    tallies = tracing.tally(traced.spans, traced.by_request)
    means = tracing.per_kind_means(tallies)
    client = {kind: traced.latency.get(kind, []) for kind in means}
    client[tracing.SETUP] = traced.setup
    lines = ["per-layer self time in ms, mean per request (set-up: per set-up), traced pass:"]
    layers = sorted({layer for m in means.values() for layer in tracing.layer_self_ms(m)})
    lines.append("  " + f"{'kind':<10}{'n':>6}{'client':>10}" + "".join(f"{x:>14}" for x in layers))
    for kind in sorted(means):
        per = tracing.layer_self_ms(means[kind])
        mean_ms = sum(client[kind]) / len(client[kind]) * 1000.0 if client[kind] else 0.0
        lines.append("  " + f"{kind:<10}{len(tallies[kind]):>6}{mean_ms:10.2f}"
                     + "".join(f"{per.get(x, 0.0):14.3f}" for x in layers))
    lines.append("  (client: mean latency seen by the client; service.http: client latency minus the handler span)")
    a, b = end_to_end(workload, untraced), end_to_end(workload, traced)
    lines.append("tracing overhead (traced pass vs untraced pass, same seed, half the run each):")
    for name in a:
        base, with_trace = a[name]["value"], b[name]["value"]
        lines.append(f"  {name:<10} {base:.4f} -> {with_trace:.4f} {a[name]['unit']} ({(with_trace / base - 1) * 100:+.1f}%)")
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> tuple[dict, list[str]]:
    fn = WORKLOADS[workload]
    header = (f"== {workload}  seed={seed}  k={K[workload]}  nproc={os.cpu_count()}  "
              f"python={platform.python_version()}  trace={int(trace)}")
    if not trace:
        p = fn(seed, seconds, False, (SETUP_MIN, SETUP_SECONDS), Workdir(workload), env)
        lines = [header] + named_lines(workload, p) + [f"error: {e}" for e in p.errors]
        metrics = end_to_end(workload, p)
        passes = [p]
    else:
        untraced = fn(seed, seconds / 2, False, (1, 0.0), Workdir(workload), env)
        traced = fn(seed, seconds / 2, True, (1, 0.0), Workdir(workload + "-traced"), env)
        lines = [header] + named_lines(workload, untraced) + trace_lines(workload, untraced, traced)
        lines += [f"error: {e}" for e in untraced.errors + traced.errors]
        totals = tracing.round_totals(tracing.per_kind_means(tracing.tally(traced.spans, traced.by_request)))
        metrics = tracing.layer_metrics(totals)
        passes = [untraced, traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, lines


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ontosoc" / "__init__.py").is_file():
        print(f"error: no ontosoc sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    env = measure.python_env(ROOT)
    measure.pin_client()
    signal.signal(signal.SIGTERM, _terminate)  # unwind, so that every started process is stopped
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        except (CheckFailed, measure.HttpError, OSError, ValueError, KeyError) as exc:
            print(f"== {name}: failed: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        results.append(result)
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{m}": v for n, r in zip(names, results) for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
