"""Access to the packaged default data: decision table, corpus, query."""

from __future__ import annotations

from importlib import resources
from pathlib import Path


def _data_root() -> Path:
    return Path(str(resources.files("ontosoc") / "data"))


def decision_table_path() -> Path:
    return _data_root() / "decisions.txt"


def corpus_paths() -> list[Path]:
    return sorted((_data_root() / "corpus").glob("*.ttl"))


def community_activities_query_path() -> Path:
    return _data_root() / "community_activities.rq"


def community_activities_query() -> str:
    """The shipped community/activity/role/resource report query."""
    return community_activities_query_path().read_text(encoding="utf-8")
