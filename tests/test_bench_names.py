"""Every function the benchmark's tracer looks up still exists.

``bench/tracing.py`` resolves its per-layer metrics by attribute path, and
a name that no longer resolves turns a metric into null.  This test reads
the tracer's own tables and lookup helpers; it does not edit ``bench/``.
"""

import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
LOOKUPS = sorted({*tracing.ENTRY_TIMES.values(),
                  *(f for funcs in tracing.CALL_COUNTS.values() for f in funcs)}
                 - tracing.OPTIONAL)


@pytest.mark.parametrize("layer, path", LOOKUPS)
def test_traced_name_resolves(layer, path):
    assert tracing._code_key(tracing._layer_module(layer), path) is not None
