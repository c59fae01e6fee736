import ast
import errno
import gc
import json
import os
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from ontosoc import service
from ontosoc.cli import EXIT_ERROR, EXIT_OK, EXIT_VIOLATIONS, run
from ontosoc.schema import ONTOSOC_NS
from ontosoc.sparql import MAX_GROUP_DEPTH
from ontosoc.validation import validate

from . import resources

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def corpus_args(corpus_files):
    return [str(p) for p in corpus_files]


@pytest.fixture()
def bad_data(tmp_path):
    path = tmp_path / "bad.ttl"
    path.write_text(
        "@prefix ontosoc: <http://maroua-univ/ns/ontosoc#> .\n"
        "@prefix ex: <http://example.org/soc/> .\n"
        "ex:Mixed a ontosoc:Community, ontosoc:Resource .\n",
        encoding="utf-8",
    )
    return str(path)


class TestValidate:
    def test_clean_corpus_exits_zero(self, corpus_args, capsys):
        assert run(["validate", *corpus_args]) == EXIT_OK
        out = capsys.readouterr().out
        assert "conforms" in out.lower() or "0 violation" in out

    def test_violations_exit_one(self, bad_data, capsys):
        assert run(["validate", bad_data]) == EXIT_VIOLATIONS
        assert "disjoint" in capsys.readouterr().out

    def test_json_format_parses(self, bad_data, capsys):
        assert run(["validate", "--format", "json", bad_data]) == EXIT_VIOLATIONS
        payload = json.loads(capsys.readouterr().out)
        assert payload["conforms"] is False
        assert len(payload["violations"]) == 1

    def test_missing_file_exits_two_and_names_path(self, capsys):
        assert run(["validate", "does/not/exist.ttl"]) == EXIT_ERROR
        assert "does/not/exist.ttl" in capsys.readouterr().err

    def test_malformed_turtle_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.ttl"
        bad.write_text("ex:a ex:b", encoding="utf-8")
        assert run(["validate", str(bad)]) == EXIT_ERROR
        assert "broken.ttl" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,column,message",
        [
            ("<http://x/s> <http://x/p> <> .\n", 27, "IRI must be non-empty"),
            ("<http://x/a b> <http://x/p> <http://x/o> .\n", 1, "IRI contains whitespace"),
        ],
    )
    def test_bad_iri_exits_two_with_position(self, tmp_path, capsys, text, column, message):
        bad = tmp_path / "bad_iri.ttl"
        bad.write_text(text, encoding="utf-8")
        assert run(["validate", str(bad)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"{bad}: line 1, column {column}: {message}" in err
        assert "Traceback" not in err


# the 0xff at byte 28 is inside the literal
NOT_UTF8 = b'<http://x/s> <http://x/p> "a\xffb" .\n'


@pytest.fixture()
def not_utf8(tmp_path):
    path = tmp_path / "latin.ttl"
    path.write_bytes(NOT_UTF8)
    return str(path)


class TestNotUtf8:
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "{bad}"],
            ["query", "--query", "SELECT ?s WHERE { ?s ?p ?o }", "{bad}"],
            ["query", "--file", "{bad}", "{good}"],
            ["stats", "{good}", "{bad}"],
            ["validate", "--schema", "{bad}", "{good}"],
        ],
        ids=["validate", "query-data", "query-file", "stats", "schema"],
    )
    def test_exits_two_and_names_path_and_byte(self, not_utf8, corpus_args, capsys, argv):
        argv = [{"{bad}": not_utf8, "{good}": corpus_args[0]}.get(a, a) for a in argv]
        assert run(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"error: {not_utf8}: not valid UTF-8 (byte 28)" in err
        assert "Traceback" not in err


class TestQuery:
    def test_shipped_query_json(self, corpus_args, capsys):
        assert (
            run(
                [
                    "query",
                    "--file",
                    str(resources.community_activities_query_path()),
                    "--format",
                    "json",
                    *corpus_args,
                ]
            )
            == EXIT_OK
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]["bindings"]) == 3

    def test_inline_query_text_table(self, corpus_args, capsys):
        code = run(
            [
                "query",
                "--query",
                "SELECT ?c WHERE { ?c a <http://maroua-univ/ns/ontosoc#Community> } ORDER BY ?c",
                *corpus_args,
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "Naakosenda" in out and "CDE-SAARE" in out

    def test_bad_query_exits_two(self, corpus_args, capsys):
        assert run(["query", "--query", "ASK { ?s ?p ?o }", *corpus_args]) == EXIT_ERROR
        assert "ASK" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "query,column",
        [
            ("SELECT * WHERE { <> ?p ?o }", 18),
            ('SELECT * WHERE { ?s ?p "x"^^<> }', 29),
            ("PREFIX e: <> SELECT * WHERE { ?s ?p e: }", 37),
        ],
        ids=["iriref", "datatype", "prefix"],
    )
    def test_an_empty_iri_exits_two_with_its_position(self, corpus_args, capsys, query, column):
        assert run(["query", "--query", query, *corpus_args]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: query: line 1, column {column}: IRI must be non-empty\n"

    def test_unbound_projection_warns_on_stderr(self, corpus_args, capsys):
        code = run(
            [
                "query",
                "--query",
                "SELECT ?c ?nope WHERE { ?c a <http://maroua-univ/ns/ontosoc#Community> }",
                *corpus_args,
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "?nope" in captured.err

    def test_groups_nested_past_the_bound_exit_two_without_traceback(self, tmp_path, corpus_args, capsys):
        query = tmp_path / "deep.rq"
        query.write_text("SELECT * WHERE { " + "OPTIONAL { " * 1000 + "}" * 1001, encoding="utf-8")
        assert run(["query", "--file", str(query), *corpus_args]) == EXIT_ERROR
        err = capsys.readouterr().err
        column = len("SELECT * WHERE { ") + len("OPTIONAL { ") * (MAX_GROUP_DEPTH - 1) + len("OPTIONAL ") + 1
        assert f"line 1, column {column}: groups nested deeper than" in err  # the first { too deep
        assert "Traceback" not in err

    def test_a_surrogate_escape_in_a_data_file_exits_two_with_its_position(self, tmp_path):
        data = tmp_path / "kb.ttl"
        line = '<http://example.org/soc/a> <http://www.w3.org/2000/01/rdf-schema#label> "\\uD800" .'
        data.write_text(line + "\n", encoding="utf-8")
        proc = _cli("query", "--query", "SELECT * WHERE { ?s ?p ?o }", str(data))
        column = line.index("\\") + 1
        error = f"error: {data}: line 1, column {column}: \\u escape of a surrogate, U+D800\n"
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (EXIT_ERROR, b"", error)

    def test_the_deepest_nesting_that_parses_evaluates(self, corpus_args, capsys):
        optionals = MAX_GROUP_DEPTH - 1  # inside the outer group
        query = "SELECT * WHERE { ?a ?b ?c " + "OPTIONAL { ?a ?b ?c " * optionals + "}" * (optionals + 1) + " LIMIT 2"
        assert run(["query", "--query", query, "--format", "json", *corpus_args]) == EXIT_OK
        assert len(json.loads(capsys.readouterr().out)["results"]["bindings"]) == 2

    def test_a_closed_stdout_exits_two_without_traceback(self, tmp_path):
        data = tmp_path / "big.ttl"  # its rows fill more than a pipe's 64 KiB buffer
        data.write_text(
            "".join(f"<http://example.org/s{i}> <http://example.org/p> <http://example.org/o{i}> .\n" for i in range(5000)),
            encoding="utf-8",
        )
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        with subprocess.Popen(  # its exit closes the pipes and waits
            [sys.executable, "-m", "ontosoc.cli", "query", "--query", "SELECT * WHERE { ?s ?p ?o }", str(data)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            try:
                assert proc.stdout.readline().startswith(b"?s")
                proc.stdout.close()  # as `| head -1` does
                err = proc.stderr.read()
                assert proc.wait(timeout=60) == EXIT_ERROR
            finally:
                proc.kill()
        assert b"Traceback" not in err, err.decode()

    @pytest.mark.parametrize(
        "modifiers,unbounded,rows",
        [
            ("LIMIT 99999999999999999999", "", slice(None)),
            ("OFFSET " + "9" * 5000, "", slice(0)),
            (f"ORDER BY ?s LIMIT {sys.maxsize} OFFSET 1", "ORDER BY ?s", slice(1, None)),
        ],
        ids=["limit", "offset", "limit-and-offset"],
    )
    def test_a_limit_or_offset_past_sys_maxsize_bounds_no_row(self, corpus_args, capsys, modifiers, unbounded, rows):
        def bindings(modifiers):
            query = "SELECT * WHERE { ?s ?p ?o } " + modifiers
            assert run(["query", "--query", query, "--format", "json", *corpus_args]) == EXIT_OK
            return json.loads(capsys.readouterr().out)["results"]["bindings"]

        every = bindings(unbounded)
        assert every and bindings(modifiers) == every[rows]

    def test_repeat_runs_byte_identical(self, corpus_args, capsys):
        argv = [
            "query",
            "--file",
            str(resources.community_activities_query_path()),
            "--format",
            "json",
            *corpus_args,
        ]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        assert capsys.readouterr().out == first


class TestDeriveSchema:
    def test_stats_line(self, capsys):
        assert run(["derive-schema"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "candidates=30 pairs=12 reduction=60% final=10" in out

    def test_implication_table_printed(self, capsys):
        run(["derive-schema"])
        out = capsys.readouterr().out
        for label in ("Subject", "Object", "Tools", "Rules", "Community", "Division of Labour"):
            assert label in out

    def test_out_writes_loadable_schema(self, tmp_path, capsys):
        out_path = tmp_path / "schema.ttl"
        assert run(["derive-schema", "--out", str(out_path)]) == EXIT_OK
        assert run(["stats", str(out_path)]) == EXIT_OK

    def test_derived_schema_usable_for_validation(self, tmp_path, corpus_args):
        out_path = tmp_path / "schema.ttl"
        run(["derive-schema", "--out", str(out_path)])
        assert run(["validate", "--schema", str(out_path), *corpus_args]) == EXIT_OK

    def test_default_run_prints_no_note(self, capsys):
        assert run(["derive-schema"]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_missing_decisions_file(self, capsys):
        assert run(["derive-schema", "--decisions", "nope.txt"]) == EXIT_ERROR
        assert "nope.txt" in capsys.readouterr().err

    @staticmethod
    def _dropping_community_object() -> str:
        shipped = resources.decision_table_path().read_text(encoding="utf-8")
        keep = "Community,Object | keep | isOrganisedBy | Object->Community |"
        assert keep in shipped
        return shipped.replace(keep, "Community,Object | drop | | |")

    @pytest.mark.parametrize(
        "option,text,message",
        [
            ("--triads", "Community,Object,Subject\n", "derived relation set does not match"),
            ("--decisions", None, "derived relation set does not match"),
            ("--triads", "Community,Bogus,Subject\n", "triads file line 1: unknown pole: 'Bogus'"),
            ("--decisions", "Community,Object | keep\n", "decision table line 1: expected 5 fields, got 2"),
        ],
        ids=["core-triad-only", "pair-dropped", "unknown-pole", "two-fields"],
    )
    def test_bad_input_exits_two_naming_the_file(self, tmp_path, capsys, option, text, message):
        path, out = tmp_path / "input.txt", tmp_path / "schema.ttl"
        path.write_text(text or self._dropping_community_object(), encoding="utf-8")
        assert run(["derive-schema", option, str(path), "--out", str(out)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert f"error: {path}: {message}" in captured.err
        assert captured.out == "" and not out.exists()

    def test_pipeline_runs_once(self, tmp_path, capsys):
        path = tmp_path / "decisions.txt"
        path.write_text(self._dropping_community_object(), encoding="utf-8")
        assert run(["derive-schema", "--decisions", str(path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "warning: expected 7 pole-level relations, got 6\n"
        assert captured.out.endswith("candidates=30 pairs=12 reduction=60% final=9\n")

    def test_triad_subset_without_out_builds_no_schema(self, tmp_path, capsys):
        path = tmp_path / "triads.txt"
        path.write_text("Community,Object,Subject\n", encoding="utf-8")
        assert run(["derive-schema", "--triads", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "candidates=3 pairs=3 reduction=0% final=5\n"


class TestExportAlignment:
    def test_prints_alignment_turtle(self, capsys):
        assert run(["export-alignment"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "foaf" in out
        assert "equivalentClass" in out

    def test_out_file(self, tmp_path):
        out_path = tmp_path / "alignment.ttl"
        assert run(["export-alignment", "--out", str(out_path)]) == EXIT_OK
        assert "owl" in out_path.read_text(encoding="utf-8")


class TestStats:
    def test_text(self, corpus_args, capsys):
        assert run(["stats", *corpus_args]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("triples: ")

    def test_json_counts(self, corpus_args, capsys):
        assert run(["stats", "--format", "json", *corpus_args]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["instancesByClass"]["http://maroua-univ/ns/ontosoc#Community"] == 3
        assert payload["triples"] == sum(payload["triplesByPredicate"].values())

    def test_one_file_and_the_same_file_twice_agree(self, corpus_args, capsys):
        assert run(["stats", "--format", "json", corpus_args[0]]) == EXIT_OK
        once = capsys.readouterr().out
        assert run(["stats", "--format", "json", corpus_args[0], corpus_args[0]]) == EXIT_OK
        assert capsys.readouterr().out == once


class TestMergeFiles:
    """Each file's blank node labels name nodes of that file only."""

    @pytest.fixture()
    def one_label_two_classes(self, tmp_path):
        paths = []
        for name, cls in (("a", "Individual"), ("b", "Community")):
            path = tmp_path / f"{name}.ttl"
            path.write_text(f"@prefix ontosoc: <http://maroua-univ/ns/ontosoc#> .\n_:x a ontosoc:{cls} .\n", encoding="utf-8")
            paths.append(str(path))
        return paths

    def test_a_shared_label_names_two_nodes(self, one_label_two_classes, capsys):
        for path in one_label_two_classes:
            assert run(["validate", path]) == EXIT_OK
        assert run(["validate", *one_label_two_classes]) == EXIT_OK
        capsys.readouterr()
        assert run(["query", "--query", "SELECT ?s ?c WHERE { ?s a ?c }", *one_label_two_classes]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["_:x", "_:x_2"]

    def test_a_renamed_label_skips_labels_already_used(self, tmp_path, capsys):
        first = tmp_path / "first.ttl"
        first.write_text("_:x <http://x/p> _:x_2 .\n", encoding="utf-8")
        second = tmp_path / "second.ttl"
        second.write_text("_:x <http://x/q> _:x_3 .\n", encoding="utf-8")
        assert run(["query", "--query", "SELECT * WHERE { ?s ?p ?o }", str(first), str(second)]) == EXIT_OK
        rows = [row.split() for row in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [["_:x", "<http://x/p>", "_:x_2"], ["_:x_4", "<http://x/q>", "_:x_3"]]


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))


def _after(argv: list[str], expression: str):
    """The value of ``expression`` once a fresh interpreter has run ``ontosoc`` with ``argv``."""
    probe = (
        "import sys\n"
        "from ontosoc.cli import run\n"
        "status = run(sys.argv[1:])\n"
        "sys.stdout.flush()\n"
        f"sys.stderr.write('\\nVALUE ' + repr({expression}))\n"
        "sys.exit(status)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, env=_env(), timeout=120)
    assert proc.returncode in (EXIT_OK, EXIT_VIOLATIONS), proc.stderr.decode()
    return ast.literal_eval(proc.stderr.decode().rpartition("VALUE ")[2])


def _modules_after(argv: list[str]) -> set[str]:
    """The modules loaded once a fresh interpreter has run ``ontosoc`` with ``argv``."""
    return set(_after(argv, "sorted(sys.modules)"))


def _modules_after_import(module: str) -> set[str]:
    """The modules loaded once a fresh interpreter has imported ``module``."""
    probe = f"import sys, {module}; print(repr(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return set(ast.literal_eval(proc.stdout.decode()))


class TestColdImports:
    """A command loads only the modules it runs."""

    def test_stats_loads_the_graph_and_the_reader_only(self, corpus_args):
        loaded = _modules_after(["stats", "--format", "json", *corpus_args])
        assert {"ontosoc.rdf", "ontosoc.turtle"} <= loaded
        unused = {"schema", "validation", "sparql", "service", "hat", "canonical"}
        assert loaded.isdisjoint({f"ontosoc.{name}" for name in unused} | {"dataclasses"})

    def test_validate_loads_no_query_engine_or_service(self, corpus_args):
        loaded = _modules_after(["validate", *corpus_args])
        assert "ontosoc.validation" in loaded
        assert loaded.isdisjoint({"ontosoc.sparql", "ontosoc.service"})

    def test_stats_leaves_the_token_scanner_uncompiled(self, corpus_args):
        tokens = "sys.modules['ontosoc.turtle_tokens']"
        compiled = f"{tokens}._scanner.cache_info().currsize if 'ontosoc.turtle_tokens' in sys.modules else 0"
        assert _after(["stats", "--format", "json", *corpus_args], compiled) == 0

    @pytest.mark.parametrize("command", ["stats", "validate"])
    def test_a_command_on_what_the_reader_reads_loads_no_token_path(self, corpus_args, command):
        loaded = _modules_after([command, *corpus_args])
        assert "ontosoc.turtle" in loaded and "ontosoc.turtle_tokens" not in loaded

    def test_python_m_ontosoc_service_runs_the_module_once(self, tmp_path):
        """`python -m ontosoc.service` runs service.py as `__main__`; the
        CLI's `serve` then imports the same module, not a second copy."""
        bad = tmp_path / "bad.ttl"
        bad.write_text("not turtle\n", encoding="utf-8")  # `serve` fails once it has imported the service
        probe = (
            "import os, runpy, sys\n"
            "runs = []\n"
            "module = os.path.join('ontosoc', 'service.py')\n"
            "sys.addaudithook(lambda event, args: event == 'exec' and args[0].co_filename.endswith(module)"
            " and runs.append(args[0].co_name))\n"
            "sys.argv = ['ontosoc.service', '--port', '0', '--data', sys.argv[1]]\n"
            "try:\n"
            "    runpy.run_module('ontosoc.service', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            "    sys.stderr.write('\\nVALUE ' + repr(runs))\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe, str(bad)], capture_output=True, env=_env(), timeout=120)
        stderr = proc.stderr.decode()
        assert proc.returncode == EXIT_ERROR and f"error: {bad}: line 1" in stderr, stderr
        assert ast.literal_eval(stderr.rpartition("VALUE ")[2]) == ["<module>"]

    def test_the_service_loads_the_query_engine_on_the_first_query(self, tmp_path, capsys):
        data = tmp_path / "kb.ttl"
        shutil.copy(resources.corpus_paths()[0], data)
        probe = (
            "import io, json, socket, sys, threading, time, urllib.parse\n"
            "from ontosoc import service\n"
            "listening, real = io.StringIO(), sys.stdout\n"
            "sys.stdout = listening\n"
            "threading.Thread(target=service.serve, kwargs={'port': 0, 'data_path': sys.argv[1]}, daemon=True).start()\n"
            "deadline = time.monotonic() + 60\n"
            "while 'listening' not in listening.getvalue() and time.monotonic() < deadline:\n"
            "    time.sleep(0.01)\n"
            "sys.stdout = real\n"
            "port = int(listening.getvalue().strip().rsplit(':', 1)[1])\n"
            "def get(target):\n"
            "    with socket.create_connection(('127.0.0.1', port)) as conn:\n"
            "        conn.sendall(f'GET {target} HTTP/1.0\\r\\n\\r\\n'.encode())\n"
            "        with conn.makefile('rb') as answer:\n"
            "            return answer.read().partition(b'\\r\\n\\r\\n')[2].decode()\n"
            "loaded = ['ontosoc.sparql' in sys.modules]\n"
            "health = json.loads(get('/health'))\n"
            "loaded.append('ontosoc.sparql' in sys.modules)\n"
            "answer = json.loads(get('/sparql?' + urllib.parse.urlencode({'query': sys.argv[2]})))\n"
            "loaded.append('ontosoc.sparql' in sys.modules)\n"
            "print(json.dumps([loaded, health, answer]))\n"
        )
        query = resources.community_activities_query()
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(data), query], capture_output=True, env=_env(), timeout=120
        )
        assert proc.returncode == 0, proc.stderr.decode()
        loaded, health, answer = json.loads(proc.stdout)
        assert loaded == [False, False, True]
        assert run(["stats", "--format", "json", str(data)]) == EXIT_OK
        assert health == {"triples": json.loads(capsys.readouterr().out)["triples"], "epoch": 0}
        assert run(["query", "--query", query, "--format", "json", str(data)]) == EXIT_OK
        assert answer == json.loads(capsys.readouterr().out)
        assert answer["results"]["bindings"]

    def test_the_service_loads_no_http_or_email_package(self):
        loaded = _modules_after_import("ontosoc.service")
        heavy = {"http.server", "http.client", "email", "ssl"}
        assert not {name for name in loaded if name.partition(".")[0] in heavy or name in heavy}

    @pytest.mark.parametrize(
        "command,module",
        [
            ("validate", "ontosoc.validation"),
            ("query", "ontosoc.sparql"),
            ("stats", "ontosoc.turtle"),
            ("derive-schema", "ontosoc.hat"),
            ("export-alignment", "ontosoc.schema"),
            (None, "ontosoc.service"),
        ],
        ids=["validate", "query", "stats", "derive-schema", "export-alignment", "import-service"],
    )
    def test_no_command_loads_dataclasses_or_inspect(self, corpus_args, command, module):
        if command is None:
            loaded = _modules_after_import(module)
        else:
            argv = {
                "validate": ["validate", *corpus_args],
                "query": ["query", "--file", str(resources.community_activities_query_path()), *corpus_args],
                "stats": ["stats", *corpus_args],
            }.get(command, [command])
            loaded = _modules_after(argv)
        assert module in loaded
        assert loaded.isdisjoint({"dataclasses", "inspect"})


def _cli(*args: str, python: str = sys.executable) -> subprocess.CompletedProcess:
    """``python -m ontosoc.cli ARGS`` in a fresh process, through `main`,
    with stdout buffered, so that what `main` did not flush is lost."""
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([python, "-m", "ontosoc.cli", *args], capture_output=True, env=env, timeout=120)


FAULT_FIXTURES = sorted(str(p) for p in (Path(__file__).parent / "fixtures").glob("fault_*.ttl"))


class TestExit:
    """`main` flushes and ends the process with `os._exit`; what it writes
    and its exit code are those of `run`."""

    def test_query_json_writes_the_bytes_run_writes(self, corpus_args, capsys):
        argv = ["query", "--file", str(resources.community_activities_query_path()), "--format", "json", *corpus_args]
        assert run(argv) == EXIT_OK
        expected = capsys.readouterr().out
        proc = _cli(*argv)
        assert (proc.returncode, proc.stdout.decode("utf-8"), proc.stderr) == (EXIT_OK, expected, b"")

    def test_validate_on_a_fault_exits_one_with_the_report(self, capsys):
        assert run(["validate", FAULT_FIXTURES[0]]) == EXIT_VIOLATIONS
        expected = capsys.readouterr().out
        proc = _cli("validate", FAULT_FIXTURES[0])
        assert (proc.returncode, proc.stdout.decode("utf-8")) == (EXIT_VIOLATIONS, expected)

    def test_help_is_flushed_before_the_exit(self, capsys):
        assert run(["--help"]) == EXIT_OK  # argparse prints it before `run` returns
        expected = capsys.readouterr().out
        proc = _cli("--help")
        assert (proc.returncode, proc.stdout.decode("utf-8")) == (EXIT_OK, expected)

    def test_a_missing_file_exits_two_with_the_error_on_stderr(self, tmp_path):
        missing = str(tmp_path / "missing.ttl")
        proc = _cli("stats", missing)
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (EXIT_ERROR, b"", f"error: no such file: {missing}\n")


class TestOsErrors:
    """An OS error names itself on stderr and exits 2, with no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "{dir}"],
            ["query", "--query", "SELECT * WHERE { ?s ?p ?o }", "{dir}"],
            ["stats", "{dir}"],
            ["query", "--file", "{dir}", "{data}"],
            ["validate", "--schema", "{dir}", "{data}"],
            ["serve", "--port", "0", "--schema", "{dir}"],
            ["serve", "--port", "0", "--data", "{dir}"],
            ["derive-schema", "--out", "{dir}"],
            ["export-alignment", "--out", "{dir}"],
        ],
        ids=["validate", "query", "stats", "query-file", "schema", "serve-schema", "serve-data", "derive-out", "export-out"],
    )
    def test_a_directory_for_a_file(self, tmp_path, corpus_args, argv):
        proc = _cli(*({"{dir}": str(tmp_path), "{data}": corpus_args[0]}.get(a, a) for a in argv))
        error = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(tmp_path))
        assert (proc.returncode, proc.stderr.decode()) == (EXIT_ERROR, f"error: {error}\n")

    def test_a_port_in_use(self):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            proc = _cli("serve", "--port", str(taken.getsockname()[1]))
        error = OSError(errno.EADDRINUSE, os.strerror(errno.EADDRINUSE))
        assert (proc.returncode, proc.stderr.decode()) == (EXIT_ERROR, f"error: {error}\n")


def _python310() -> str | None:
    """A Python 3.10 interpreter: `python3.10` on PATH, or, where that is a
    pyenv shim that selects no 3.10, pyenv's own 3.10 beside it."""
    found = shutil.which("python3.10")
    if found is None:
        return None
    candidates = [found, *sorted(str(p) for p in Path(found).parents[1].glob("versions/3.10*/bin/python3.10"))]
    for python in candidates:
        probe = subprocess.run([python, "-c", "import sys; print(sys.version_info[:2])"], capture_output=True, timeout=60)
        if probe.returncode == 0 and probe.stdout.strip() == b"(3, 10)":
            return python
    return None


class TestPython310:
    """`requires-python` admits 3.10: the cold commands give the same output there."""

    @pytest.mark.parametrize(
        "argv",
        [["stats"], ["validate", "--format", "json"], ["query", "--file", "{query}", "--format", "json"]],
        ids=["stats", "validate", "query"],
    )
    def test_same_output_as_this_interpreter(self, corpus_args, argv):
        python = _python310()
        if python is None:
            pytest.skip("no python3.10 on PATH")
        argv = [{"{query}": str(resources.community_activities_query_path())}.get(a, a) for a in argv]
        here, there = _cli(*argv, *corpus_args), _cli(*argv, *corpus_args, python=python)
        assert here.returncode == EXIT_OK and here.stdout
        assert (there.returncode, there.stdout, there.stderr) == (here.returncode, here.stdout, here.stderr)


class TestServe:
    """Each load failure exits 2 before the server starts."""

    @pytest.fixture(autouse=True)
    def refuse_to_start(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the server started")

        monkeypatch.setattr(service, "Server", refused)

    def test_missing_schema_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.ttl")
        assert run(["serve", "--port", "0", "--schema", missing]) == EXIT_ERROR
        assert f"no such file: {missing}" in capsys.readouterr().err

    def test_unparsable_data_names_path_and_position(self, tmp_path, capsys):
        data = tmp_path / "kb.ttl"
        data.write_text("# epoch 3\nex:a ex:b", encoding="utf-8")
        assert run(["serve", "--port", "0", "--data", str(data)]) == EXIT_ERROR
        assert f"error: {data}: line 2, column 1: undeclared prefix" in capsys.readouterr().err

    def test_data_not_utf8(self, not_utf8, capsys):
        assert run(["serve", "--port", "0", "--data", not_utf8]) == EXIT_ERROR
        assert f"error: {not_utf8}: not valid UTF-8 (byte 28)" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["99999", "-1"])
    def test_a_port_out_of_range_exits_two_with_one_line(self, port):
        proc = _cli("serve", "--port", port)
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (EXIT_ERROR, b"", f"error: port {port} is not in 0-65535\n")


class TestSchemaFile:
    @pytest.fixture()
    def derived(self, tmp_path, capsys):
        path = tmp_path / "schema.ttl"
        run(["derive-schema", "--out", str(path)])
        capsys.readouterr()
        return path

    def test_blank_alias_subject_is_ignored(self, derived, corpus_args, capsys):
        with derived.open("a", encoding="utf-8") as f:
            f.write("_:x owl:equivalentProperty ontosoc:isMemberOf .\n")
        assert run(["validate", "--schema", str(derived), *corpus_args]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_literal_domain_exits_two(self, derived, corpus_args, capsys):
        with derived.open("a", encoding="utf-8") as f:
            f.write('ontosoc:extra a owl:ObjectProperty ; rdfs:domain "x" ; rdfs:range ontosoc:Role .\n')
        assert run(["validate", "--schema", str(derived), *corpus_args]) == EXIT_ERROR
        assert "not an IRI" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line,message",
        [
            (
                "ontosoc:isMemberOf rdfs:domain ontosoc:Community .",
                f"property {ONTOSOC_NS}isMemberOf has more than one domain: <{ONTOSOC_NS}Community>, <{ONTOSOC_NS}Individual>",
            ),
            (
                "ontosoc:isMemberOf rdfs:range ontosoc:Role .",
                f"property {ONTOSOC_NS}isMemberOf has more than one range: <{ONTOSOC_NS}Community>, <{ONTOSOC_NS}Role>",
            ),
            (
                "ontosoc:SportActivity rdfs:subClassOf ontosoc:Community .",
                f"class {ONTOSOC_NS}SportActivity has more than one superclass in the schema namespace: "
                f"{ONTOSOC_NS}Activity, {ONTOSOC_NS}Community",
            ),
            (
                "ontosoc:isOccurredIn owl:equivalentProperty ontosoc:isBorderdBy .",
                f"alias {ONTOSOC_NS}isOccurredIn is equivalent to more than one property: "
                f"{ONTOSOC_NS}isBorderdBy, {ONTOSOC_NS}isOccuredIn",
            ),
        ],
        ids=["two-domains", "two-ranges", "two-superclasses", "alias-of-two"],
    )
    def test_an_ambiguous_declaration_exits_two_naming_it(self, derived, corpus_args, capsys, line, message):
        with derived.open("a", encoding="utf-8") as f:
            f.write(line + "\n")
        assert run(["validate", "--schema", str(derived), *corpus_args]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"error: {derived}: {message}\n"
        assert captured.out == ""

    def test_schema_breaking_an_invariant_exits_two(self, tmp_path, corpus_args, capsys):
        path = tmp_path / "schema.ttl"
        path.write_text("<http://maroua-univ/ns/ontosoc#A> a <http://www.w3.org/2002/07/owl#Class> .\n", encoding="utf-8")
        assert run(["validate", "--schema", str(path), *corpus_args]) == EXIT_ERROR
        assert f"error: {path}: expected exactly 7 upper-level classes" in capsys.readouterr().err


class TestCollector:
    """Batch commands run with the cyclic collector off and leave it as
    they found it; `serve` keeps it on."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collecting(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.fixture()
    def unparsable(self, tmp_path):
        path = tmp_path / "bad.ttl"
        path.write_text("ex:a ex:b", encoding="utf-8")
        return str(path)

    def test_state_restored_after_success(self, collecting, corpus_args, capsys):
        assert run(["validate", *corpus_args]) == EXIT_OK
        assert gc.isenabled() is collecting

    def test_state_restored_after_violations(self, collecting, bad_data, capsys):
        assert run(["validate", bad_data]) == EXIT_VIOLATIONS
        assert gc.isenabled() is collecting

    def test_state_restored_after_parse_error(self, collecting, unparsable, capsys):
        assert run(["validate", unparsable]) == EXIT_ERROR
        assert gc.isenabled() is collecting

    def test_off_while_a_batch_command_runs(self, monkeypatch, corpus_args, capsys):
        seen = []

        def recording(graph, schema):
            seen.append(gc.isenabled())
            return validate(graph, schema)

        monkeypatch.setattr("ontosoc.validation.validate", recording)  # cli imports it per command
        assert run(["validate", *corpus_args]) == EXIT_OK
        assert seen == [False] and gc.isenabled()

    def test_on_while_serving(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(service, "serve", lambda **kwargs: seen.append(gc.isenabled()))
        assert run(["serve", "--port", "0"]) == EXIT_OK
        assert seen == [True]

    def test_off_while_serve_loads_and_on_while_it_serves(self, collecting, monkeypatch, capsys):
        seen = []
        load_state = service.load_state

        def loading(*args):
            seen.append(("load", gc.isenabled()))
            return load_state(*args)

        class Server:
            server_address = ("127.0.0.1", 0)

            def serve_forever(self):
                seen.append(("serve", gc.isenabled()))

            def server_close(self):
                pass

        monkeypatch.setattr(service, "load_state", loading)
        monkeypatch.setattr(service, "Server", lambda state, port: Server())
        service.serve(port=0)
        assert seen == [("load", False), ("serve", collecting)]
        assert gc.isenabled() is collecting


USAGE_CASES = json.loads((Path(__file__).parent / "golden" / "cli_usage.json").read_text(encoding="utf-8"))


class TestUsage:
    @pytest.mark.parametrize("case", USAGE_CASES, ids=[" ".join(c["argv"]) or "no-command" for c in USAGE_CASES])
    def test_usage_output_is_unchanged(self, case, capsys, monkeypatch):
        """What a run printed and returned when every run built all six
        subparsers: stdout, stderr and exit status, at 80 columns, under
        Python 3.11's argparse."""
        monkeypatch.setenv("COLUMNS", "80")
        status = run(list(case["argv"]))
        out, err = capsys.readouterr()
        assert (status, out, err) == (case["status"], case["stdout"], case["stderr"])

    def test_no_command_exits_two(self, capsys):
        assert run([]) == EXIT_ERROR

    def test_unknown_command_exits_two(self, capsys):
        assert run(["frobnicate"]) == EXIT_ERROR

    def test_query_requires_source(self, corpus_args, capsys):
        assert run(["query", *corpus_args]) == EXIT_ERROR

    def test_the_schema_comes_from_the_command_line_alone(self, tmp_path, corpus_args, monkeypatch, capsys):
        monkeypatch.setenv("ONTOSOC_SCHEMA", str(tmp_path / "missing.ttl"))
        assert run(["validate", *corpus_args]) == EXIT_OK
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("path", sorted((Path(SRC) / "ontosoc").glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    """Settings come from the command line alone: no module names
    ``os.environ`` or ``os.getenv``, as an attribute or an import."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names.update(alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "os"
                 for alias in node.names)
    assert names.isdisjoint({"environ", "environb", "getenv", "getenvb"})
