"""Schema-aware sociocultural knowledge-base engine.

Triple store, Turtle IO, the OntoSOC schema and its derivation pipeline,
instance validation, a SPARQL subset, a CLI and an HTTP service.

The names below are imported from their modules on first use (PEP 562),
so importing the package, as ``python -m ontosoc.cli`` does, loads none
of them: each command loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the module that defines it
_HOMES = {
    "Blank": "rdf",
    "Graph": "rdf",
    "Iri": "rdf",
    "Literal": "rdf",
    "PrefixMap": "rdf",
    "Triple": "rdf",
    "graph_equal": "canonical",
    "SchemaDef": "schema",
    "builtin_schema": "schema",
    "schema_from_graph": "schema",
    "schema_to_graph": "schema",
    "evaluate": "sparql",
    "parse_query": "sparql",
    "to_json_results": "sparql",
    "Document": "turtle",
    "ParseError": "turtle",
    "parse_turtle": "turtle",
    "serialize_turtle": "turtle",
    "ValidationReport": "validation",
    "validate": "validation",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str) -> object:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
