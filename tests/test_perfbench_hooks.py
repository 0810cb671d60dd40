"""Every package attribute the benchmark looks up by name still exists.

`perfbench/spans.py` wraps functions by (module, attribute) when a run
traces, and the workloads read a few more attributes directly.  A run
without tracing wraps nothing, so a removed or renamed attribute would
only show in a traced run; this test catches it in tier-1 instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
)
_SPANS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_SPANS)
# (module, dotted attribute) the benchmark reads besides the wrap points
_DIRECT = [
    ("oracle", "iter_relation_pairs"),
    ("oracle", "class_images.cache_info"),
    ("oracle", "class_images.cache_clear"),
    ("oracle", "_roots_of.cache_clear"),
    ("kernels", "BACKEND"),
]


@pytest.mark.parametrize(
    "module, attr",
    [(m, a) for m, a, _ in _SPANS.WRAP_POINTS + _SPANS.VERIFIER_ONLY] + _DIRECT,
)
def test_benchmark_hook_resolves(module, attr):
    obj = importlib.import_module(f"rp2cover.{module}")
    for part in attr.split("."):
        assert hasattr(obj, part), f"rp2cover.{module}.{attr}"
        obj = getattr(obj, part)
