"""Command-line front door.

Subcommands: validate, query, derive-schema, export-alignment, stats,
serve.  Results go to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 validation violations, 2 usage, parse and OS errors (as a
missing file or a port in use) and a stdout closed early (as by `| head`).

The schema defaults to the builtin one; a replacement Turtle schema may
be given with --schema.  No environment variable is read: every setting
comes from the command line.

Every command but `serve` runs with the cyclic garbage collector off.
Each command imports the modules it runs when it runs, so a cold
`stats` loads only the graph and the Turtle reader, and `run` builds
the argument parser of that command alone.  `main` ends the
process with `os._exit` once the output is flushed; `run` returns.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .rdf import RDF_TYPE, Blank, Graph, Iri, PrefixMap, Triple
from .turtle import Document, ParseError, parse_turtle, serialize_turtle

if TYPE_CHECKING:
    from .schema import SchemaDef

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2


class CliError(Exception):
    pass


def _load_schema(path: Optional[str]) -> SchemaDef:
    from .schema import SchemaError, builtin_schema, schema_from_graph

    if path is None:
        return builtin_schema()
    doc = _parse_file(path)
    try:
        return schema_from_graph(doc.graph)
    except SchemaError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _not_utf8(path: str, exc: UnicodeDecodeError) -> CliError:
    return CliError(f"{path}: not valid UTF-8 (byte {exc.start})")


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise CliError(f"no such file: {path}")
    try:
        return p.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def _parse_file(path: str) -> Document:
    text = _read_text(path)
    try:
        return parse_turtle(text)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _merge_files(paths: list[str]) -> Document:
    """The files' graphs merged as RDF merges them: a blank node label
    names one node within its file only, so a label that an earlier file
    used is renamed in each later file that uses it too."""
    merged = _parse_file(paths[0])
    taken = _blank_labels(merged.graph) if len(paths) > 1 else set()
    for path in paths[1:]:
        doc = _parse_file(path)
        merged.prefixes.update(doc.prefixes)
        own = _blank_labels(doc.graph)
        rename = {}
        for label in sorted(own & taken):
            n = 2
            while f"{label}_{n}" in taken or f"{label}_{n}" in own:
                n += 1
            rename[Blank(label)] = Blank(f"{label}_{n}")
            taken.add(f"{label}_{n}")
        taken |= own
        merged.graph.update(
            t if not rename else Triple(rename.get(t[0], t[0]), t[1], rename.get(t[2], t[2]))
            for t in doc.graph
        )
    return merged


def _blank_labels(graph: Graph) -> set[str]:
    return {term.label for t in graph for term in (t[0], t[2]) if isinstance(term, Blank)}


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validation import validate

    schema = _load_schema(args.schema)
    doc = _merge_files(args.files)
    report = validate(doc.graph, schema)
    if args.format == "json":
        payload = {
            "violations": [
                {
                    "kind": v.kind,
                    "message": v.message,
                    "machine": v.machine_line(),
                }
                for v in report.violations
            ],
            "checkedTriples": report.checked_triples,
            "entailedTypes": report.entailed_types,
            "skippedPredicates": report.skipped_predicates,
            "conforms": report.conforms,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(report.render_text())
    return EXIT_OK if report.conforms else EXIT_VIOLATIONS


def _cmd_query(args: argparse.Namespace) -> int:
    from .sparql import QueryError, evaluate, parse_query, to_json_results

    text = args.query if args.query is not None else _read_text(args.file)
    try:
        ast = parse_query(text)
    except QueryError as exc:
        raise CliError(f"query: {exc}") from exc
    for warning in ast.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    doc = _merge_files(args.files)
    table = evaluate(ast, doc.graph)
    if args.format == "json":
        print(to_json_results(table))
    else:
        print(table.render_text())
    return EXIT_OK


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        Path(out).write_text(text, encoding="utf-8")


def _schema_turtle(graph: Graph) -> str:
    from .schema import schema_prefixes

    doc = Document(graph=graph, prefixes=PrefixMap(schema_prefixes()))
    return serialize_turtle(doc)


def _cmd_derive_schema(args: argparse.Namespace) -> int:
    from . import hat

    default_triads = hat.default_triads()
    try:
        triads = default_triads if args.triads is None else _parse_triads(_read_text(args.triads))
        if args.decisions is not None:
            table = hat.parse_decision_table(_read_text(args.decisions))
        else:
            table = hat.default_decision_table()
        pairs, stats = hat.dedupe_pairs(hat.candidate_relations(triads))
        final = hat.full_relation_set(hat.apply_decisions(pairs, table))
        schema = None if args.out is None else hat.schema_from_relations(final)
    except ValueError as exc:  # the default inputs always fit: name the given ones
        raise CliError(", ".join(p for p in (args.triads, args.decisions) if p) + f": {exc}") from exc

    if triads == default_triads:
        print(hat.implication_table(triads, hat.default_use_cases()).render())
        print()
    if stats.triads != len(default_triads):
        print(f"note: {stats.triads} triads in play", file=sys.stderr)
    print(f"{stats.summary()} final={len(final)}")
    if schema is not None:
        from .schema import schema_to_graph

        Path(args.out).write_text(_schema_turtle(schema_to_graph(schema)), encoding="utf-8")
        print(f"schema written to {args.out}", file=sys.stderr)
    return EXIT_OK


def _parse_triads(text: str) -> set:
    from . import hat

    triads = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            triads.add(hat.triad(*(hat.Pole.parse(p) for p in line.split(","))))
        except ValueError as exc:
            raise ValueError(f"triads file line {lineno}: {exc}") from exc
    return triads


def _cmd_export_alignment(args: argparse.Namespace) -> int:
    from .schema import export_alignment

    schema = _load_schema(args.schema)
    _write_or_print(_schema_turtle(export_alignment(schema)), args.out)
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    doc = _merge_files(args.files)
    graph = doc.graph
    by_class = {
        cls.value: len(nodes)
        for cls, nodes in graph.subjects_by_object(Iri(RDF_TYPE)).items()
        if isinstance(cls, Iri)
    }
    by_predicate = {
        p.value: sum(map(len, graph.subjects_by_object(p).values())) for p in graph.predicates()
    }
    if args.format == "json":
        print(
            json.dumps(
                {
                    "triples": len(graph),
                    "instancesByClass": dict(sorted(by_class.items())),
                    "triplesByPredicate": dict(sorted(by_predicate.items())),
                },
                indent=2,
            )
        )
    else:
        print(f"triples: {len(graph)}")
        print("instances by class:")
        for iri, n in sorted(by_class.items()):
            print(f"  {iri}: {n}")
        print("triples by predicate:")
        for iri, n in sorted(by_predicate.items()):
            print(f"  {iri}: {n}")
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import DEFAULT_PORT, serve

    port = DEFAULT_PORT if args.port is None else args.port
    if not 0 <= port <= 65535:
        raise CliError(f"port {port} is not in 0-65535")
    schema = _load_schema(args.schema)
    try:
        serve(port=port, data_path=args.data, schema=schema)
    except ParseError as exc:  # from loading the snapshot: a bad POST body is answered, not raised
        raise CliError(f"{args.data}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(args.data, exc) from exc
    return EXIT_OK


def _validate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="+")
    p.add_argument("--schema")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_validate)


def _query_arguments(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--query")
    src.add_argument("--file")
    p.add_argument("files", nargs="+")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_query)


def _derive_schema_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--triads")
    p.add_argument("--decisions")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_derive_schema)


def _export_alignment_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--schema")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export_alignment)


def _stats_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="+")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_stats)


def _serve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--port", type=int)
    p.add_argument("--data")
    p.add_argument("--schema")
    p.set_defaults(func=_cmd_serve)


# command -> (its line in --help, what adds its arguments), in the order --help lists them
_COMMANDS = {
    "validate": ("check data files against the schema", _validate_arguments),
    "query": ("evaluate a query over data files", _query_arguments),
    "derive-schema": ("run the triad-analysis pipeline", _derive_schema_arguments),
    "export-alignment": ("write the alignment triples", _export_alignment_arguments),
    "stats": ("triple, class and predicate counts", _stats_arguments),
    "serve": ("run the HTTP knowledge-base service", _serve_arguments),
}


def build_parser(argv: Optional[list[str]] = None) -> argparse.ArgumentParser:
    """The parser for ``argv`` (None: for any command line).  When
    ``argv`` starts with a command, only that command's subparser is
    built, and the usage line still lists every command, as argparse
    lists them when all are built."""
    parser = argparse.ArgumentParser(prog="ontosoc", description="Sociocultural knowledge-base engine")
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    listed = None if named is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=listed)
    for name, (summary, add_arguments) in _COMMANDS.items():
        if named is None or name == named:
            add_arguments(sub.add_parser(name, help=summary))
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    # A batch command builds no reference cycles and then exits, so the
    # cyclic collector would only rescan the graph as it is loaded;
    # `serve` runs for long and keeps it.
    collecting = gc.isenabled()
    if args.command != "serve":
        gc.disable()
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except BrokenPipeError:
        # the reader left: send what is still buffered nowhere, so the
        # interpreter's flush at exit raises no second error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except (CliError, ParseError, OSError) as exc:  # after BrokenPipeError, an OSError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if collecting:
            gc.enable()


def main() -> None:
    """The `ontosoc` script and `python -m ontosoc.cli`: `run`, flush,
    then `os._exit`, skipping the interpreter's teardown, which would
    only free one by one the objects that the process exit frees."""
    status = run()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(status)  # the interpreter's own exit reports the failed flush
    os._exit(status)


if __name__ == "__main__":
    main()
