"""The data files the package ships, as the tests read them."""

from importlib.resources import files
from pathlib import Path

DATA = Path(str(files("ontosoc") / "data"))


def decision_table_path() -> Path:
    return DATA / "decisions.txt"


def corpus_paths() -> list[Path]:
    return sorted((DATA / "corpus").glob("*.ttl"))


def community_activities_query_path() -> Path:
    return DATA / "community_activities.rq"


def community_activities_query() -> str:
    """The shipped community/activity/role/resource report query."""
    return community_activities_query_path().read_text(encoding="utf-8")
