"""CLI output must not depend on the process it runs in.

Terms hash by identity, so the order of a set of terms follows memory
addresses, which differ from process to process.  Every output must
therefore be sorted before it is printed.  Each command runs in two
fresh interpreters with different string-hash seeds, among them
`validate` on each fault fixture, so that the order of violations is
compared too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from . import resources

SRC = str(Path(__file__).resolve().parents[1] / "src")
FAULTS = sorted((Path(__file__).parent / "fixtures").glob("fault_*.ttl"))
HASH_SEEDS = ("0", "4242")


def _stdout(args: list[str], hash_seed: str, exit_code: int = 0) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "ontosoc.cli", *args], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == exit_code, proc.stderr.decode()
    return proc.stdout


def _commands() -> list:
    corpus = [str(p) for p in resources.corpus_paths()]
    query = str(resources.community_activities_query_path())
    return [
        ["validate", "--format", "json", *corpus],
        ["query", "--file", query, "--format", "json", *corpus],
        # streamed rows without ORDER BY: the order of the joins' nested loops
        pytest.param(["query", "--query", "SELECT * WHERE { ?s ?p ?o } LIMIT 5 OFFSET 7", *corpus], id="query-slice"),
        ["stats", "--format", "json", *corpus],
        ["export-alignment"],
    ]


@pytest.mark.parametrize("args", _commands(), ids=lambda args: args[0])
def test_stdout_is_byte_identical_across_processes(args):
    first, second = (_stdout(args, seed) for seed in HASH_SEEDS)
    assert first and first == second


@pytest.mark.parametrize("fixture", FAULTS, ids=lambda path: path.stem)
def test_violation_order_is_byte_identical_across_processes(fixture):
    args = ["validate", "--format", "json", str(fixture)]
    first, second = (_stdout(args, seed, exit_code=1) for seed in HASH_SEEDS)
    assert b'"conforms": false' in first and first == second
