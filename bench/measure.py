"""Measuring from outside the program: percentiles, bytes written to a
directory, and a service process driven over HTTP."""

from __future__ import annotations

import http.client
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

PYTHON = sys.executable
MIN_BEYOND = 10  # samples a percentile must have above it to be reported as itself


@dataclass(frozen=True)
class Percentile:
    """A latency percentile with the sample count and the samples beyond it.

    ``label`` names the percentile actually reported.  The median is
    always reported as itself.  When an asked-for tail percentile (above
    50) has fewer than MIN_BEYOND samples beyond it, the highest
    percentile that has MIN_BEYOND is reported instead and ``label`` says
    so; when no percentile above the median has MIN_BEYOND, the median is
    reported, labelled as such.
    """

    value: float
    label: str
    n: int
    beyond: int

    def describe(self, unit: str) -> str:
        return f"{self.value:.4f} {unit} ({self.label}, n={self.n}, beyond={self.beyond})"


def _rank(n: int, q: float) -> int:
    """Nearest-rank index (1-based) of percentile q among n sorted samples."""
    return max(1, math.ceil(q / 100.0 * n))


def _median(ordered: list[float], label: str) -> Percentile:
    value = statistics.median(ordered)
    return Percentile(value, label, len(ordered), sum(x > value for x in ordered))


def percentile(samples: list[float], q: float) -> Percentile:
    """Percentile q, which is 50 (the median) or a tail percentile above it."""
    if not samples:
        raise ValueError("no samples")
    if q < 50:
        raise ValueError(f"p{q:g}: only the median and tail percentiles are reported")
    ordered = sorted(samples)
    if q == 50:
        return _median(ordered, "p50")
    n = len(ordered)
    rank = _rank(n, q)
    if n - rank >= MIN_BEYOND:
        return Percentile(ordered[rank - 1], f"p{q:g}", n, n - rank)
    best = math.floor(100.0 * (n - MIN_BEYOND) / n)
    if best <= 50:
        return _median(ordered, f"p50 in place of p{q:g}: no higher percentile has {MIN_BEYOND} samples beyond it")
    rank = _rank(n, best)
    return Percentile(ordered[rank - 1], f"p{best} in place of p{q:g}: highest with {MIN_BEYOND} samples beyond it",
                      n, n - rank)


def median(samples: list[float]) -> float:
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# bytes written into a directory


def scan_dir(path: Path) -> dict[str, tuple[int, int, int]]:
    """name -> (inode, size, mtime_ns) for each regular file in ``path``."""
    out = {}
    with os.scandir(path) as it:
        for entry in it:
            if entry.is_file(follow_symlinks=False):
                st = entry.stat(follow_symlinks=False)
                out[entry.name] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return out


def bytes_written(before: dict, after: dict) -> int:
    """Bytes written between two scans, as seen from outside.

    A new or replaced file (new name or new inode) counts its full size,
    an appended file counts its growth, and a file rewritten in place
    without growing counts its full size.
    """
    total = 0
    for name, (ino, size, mtime) in after.items():
        old = before.get(name)
        if old is None or old[0] != ino:
            total += size
        elif size > old[1]:
            total += size - old[1]
        elif mtime != old[2]:
            total += size
    return total


def dir_bytes(scan: dict) -> int:
    return sum(size for _, size, _ in scan.values())


# ---------------------------------------------------------------------------
# a service process


class HttpError(Exception):
    pass


def request(port: int, method: str, path: str, body: Optional[bytes] = None,
            headers: Optional[dict] = None, timeout: float = 60.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def split_cpus() -> tuple[Optional[set], Optional[set]]:
    """(program CPUs, client CPUs), or (None, None) on a single CPU.

    The program (CLI command or server) gets one CPU and the client
    another, so that the client's own work never competes with the
    program for a CPU.
    """
    if not hasattr(os, "sched_getaffinity"):  # not Linux: leave placement to the system
        return None, None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


PROGRAM_CPUS, CLIENT_CPUS = split_cpus()


def pin_client() -> None:
    """Pin the calling thread (and the threads and processes it starts later) to the client CPU."""
    if CLIENT_CPUS is not None:
        os.sched_setaffinity(0, CLIENT_CPUS)


def _pin_program() -> None:
    if PROGRAM_CPUS is not None:
        os.sched_setaffinity(0, PROGRAM_CPUS)


def spawn(argv: list[str], **kwargs) -> subprocess.Popen:
    """Start a program process on the program CPU.  Call only while the caller has no other threads."""
    return subprocess.Popen(argv, preexec_fn=_pin_program, **kwargs)


class Server:
    """An ontosoc service in its own process, on a free port.

    ``argv`` is the command that starts it; it must print
    ``listening on 127.0.0.1:<port>`` once it is ready to accept.
    ``setup_s`` is the time from spawn to the first 200 from /health.
    """

    def __init__(self, argv: list[str], env: dict, cwd: Path, log: Path):
        self._log = open(log, "ab")
        t0 = time.perf_counter()
        self.proc = spawn(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=self._log)
        try:
            line = self.proc.stdout.readline().decode("utf-8", "replace").strip()
            if not line.startswith("listening on "):
                raise HttpError(f"server did not start (said {line!r}); see {log}")
            self.port = int(line.rsplit(":", 1)[1])
            self.health = self.wait_healthy(t0 + 120.0)
        except BaseException:
            self.close(kill=True)
            raise
        self.setup_s = time.perf_counter() - t0

    def wait_healthy(self, deadline: float) -> dict:
        while True:
            try:
                status, body = request(self.port, "GET", "/health", timeout=10.0)
                if status == 200:
                    return json.loads(body)
            except OSError:
                pass
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise HttpError("server never became healthy")
            time.sleep(0.002)

    def kill9(self) -> None:
        self.proc.kill()
        self.proc.wait()

    def close(self, kill: bool = False) -> None:
        """Stop the process (SIGTERM unless ``kill``) and wait for it to end."""
        if self.proc.poll() is None:
            if kill:
                self.proc.kill()
            else:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def python_env(root: Path) -> dict:
    """Environment in which ``python -m ontosoc...`` and ``-m bench...`` import from the checkout.

    The hash seed is fixed so that set and dict order, and with it the
    work the program does on a given input, repeat from run to run.
    """
    env = dict(os.environ)
    paths = [str(root / "src"), str(root)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env
