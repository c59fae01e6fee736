"""Run an ontosoc CLI command or the service with tracing installed.

    python -m bench.launcher --spans OUT [--request ID] [--spawned-at T] cli ARG...
    python -m bench.launcher --spans OUT serve --port PORT --data PATH

Spans are written to OUT when the command returns or, for the service,
when SIGTERM stops it.  ``--spawned-at`` is the parent's
``time.perf_counter()`` just before it started this process (the clock
is system-wide on Linux); the time from then until ontosoc is imported
is recorded as the CLI start-up.
"""

from __future__ import annotations

import argparse
import signal
import sys
from time import perf_counter


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench.launcher")
    parser.add_argument("--spans", required=True)
    parser.add_argument("--request")
    parser.add_argument("--spawned-at", type=float)
    parser.add_argument("mode", choices=("cli", "serve"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    import ontosoc.cli  # what ``python -m ontosoc.cli`` imports; it loads the service only to serve

    startup_s = perf_counter() - args.spawned_at if args.spawned_at is not None else None

    import ontosoc.service
    from bench.tracing import Tracer, install

    tracer = Tracer(args.request)
    install(tracer)
    if args.mode == "cli":
        try:
            return ontosoc.cli.run(args.rest)
        finally:
            tracer.dump(args.spans, startup_s)

    serve = argparse.ArgumentParser(prog="serve")
    serve.add_argument("--port", type=int, required=True)
    serve.add_argument("--data", required=True)
    opts = serve.parse_args(args.rest)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        ontosoc.service.serve(port=opts.port, data_path=opts.data)
    finally:
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
