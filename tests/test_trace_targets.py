"""Every function the benchmark tracer wraps must still exist.

``bench/run.py --trace 1`` installs wrappers by (module, attribute path);
a renamed or deleted target breaks only the traced run, so the names are
checked here.
"""

import pytest

from bench.tracing import COUNTERS, HANDLERS, LEAVES, SPANS, _resolve

TARGETS = sorted({entry[:2] for entry in SPANS + LEAVES + COUNTERS + HANDLERS})


@pytest.mark.parametrize("module,path", TARGETS, ids=[f"{m}:{p}" for m, p in TARGETS])
def test_trace_target_resolves_to_a_callable(module, path):
    owner, attr = _resolve(module, path)
    assert callable(getattr(owner, attr, None))
