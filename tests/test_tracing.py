"""The benchmark's tracer (bench/tracing.py) still finds what it wraps."""

import importlib.util
from pathlib import Path

from dyntree import (
    ActiveMultiset,
    DecisionTree,
    FeasibilityParams,
    Schema,
    mixed_stream,
)

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracer_class():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_spans_every_layer_and_uninstalls():
    tracer = _tracer_class()()
    update = DecisionTree.__dict__["update"]
    tracer.install()
    try:
        stream = mixed_stream(300, d_num=2, d_cat=2, seed=3, grid=8)
        schema = Schema.infer(stream[0].features)
        params = FeasibilityParams(epsilon=0.04, alpha=0.2, beta=0.5, k=2, h=8)
        window = list(stream[:100])
        tree = DecisionTree.from_multiset(
            ActiveMultiset.from_examples(window, schema), params)
        tracer.active = True
        for e in stream[100:]:
            tree.update(window.pop(0), "del")
            tree.update(e, "ins")
            window.append(e)
            tree.query(e.features)
        tracer.active = False
    finally:
        tracer.uninstall()
    calls = {name: rec[0] for name, rec in tracer.totals().items()}
    # the builder reaches the sort sweep through build._sweep_numeric, the
    # name the tracer wraps
    for name in ("core.validate", "dynamic.update", "dynamic.gather",
                 "dynamic.rebuild", "build.generic", "gini.sweep_numeric"):
        assert calls.get(name, 0) > 0, name
    assert DecisionTree.__dict__["update"] is update
