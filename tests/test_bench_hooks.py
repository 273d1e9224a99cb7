"""The benchmark's per-layer tracer wraps program functions by name; a hook
point that a refactor renames or drops is skipped by the tracer and its
metrics silently vanish.  These tests fail instead."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_point_resolves():
    spans = load_spans()
    absent = [name for name, target in spans.HOOKS.items()
              if spans._resolve(target) == (None, None)]
    assert absent == []
    assert spans.Tracer.for_bernstein().hooks
