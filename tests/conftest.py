import pytest

from ontosoc import cli, resources
from ontosoc.schema import builtin_schema


@pytest.fixture(scope="session")
def schema():
    return builtin_schema()


@pytest.fixture(scope="session")
def corpus_doc(corpus_files):
    return cli._merge_files(corpus_files)


@pytest.fixture(scope="session")
def corpus_graph(corpus_doc):
    return corpus_doc.graph


@pytest.fixture(scope="session")
def corpus_files():
    return [str(p) for p in resources.corpus_paths()]
