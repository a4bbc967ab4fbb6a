"""Traced-run wrappers: they record, and they leave nothing behind."""

import importlib
import sys
import types

import pytest

from ledger import CONTRACT_PER_LAYER, PRELOAD, TARGETS, Tracer, \
    layer_metrics, self_times, wrappers_left


def _bindings():
    """Every current binding of every target, by location."""
    seen = {}
    for target in TARGETS:
        module = importlib.import_module(target.module)
        if "." in target.attr:
            cls_name, method = target.attr.split(".")
            cls = getattr(module, cls_name)
            seen[target.attr] = cls.__dict__[method]
        else:
            original = getattr(module, target.attr)
            for loaded in list(sys.modules.values()):
                for name, value in list(getattr(loaded, "__dict__",
                                                {}).items()):
                    if value is original:
                        seen[(loaded.__name__, name)] = value
    from repro.experiments.registry import all_experiments
    for experiment in all_experiments().values():
        seen[("render", experiment.name)] = experiment.render
    return seen


@pytest.fixture(autouse=True)
def _clean():
    yield
    assert not wrappers_left()


def test_install_records_spans_and_uninstall_restores_every_binding():
    from repro.exec import Job, RunContext, RunEngine
    from repro.exec import engine as engine_module
    from repro.exec import serialize

    for module in PRELOAD:      # what install() imports first
        importlib.import_module(module)
    before = _bindings()
    original_to_dict = serialize.result_to_dict
    tracer = Tracer()
    with tracer:
        assert engine_module.result_to_dict is not original_to_dict
        assert serialize.result_to_dict is engine_module.result_to_dict
        # A module imported while the wrappers are live captures one.
        late = types.ModuleType("perfbench_late_import")
        late.result_to_dict = serialize.result_to_dict
        sys.modules[late.__name__] = late
        RunEngine(RunContext(use_cache=False, backend="fast")).run(
            Job("go"))
    try:
        assert wrappers_left() == []
        assert late.result_to_dict is original_to_dict
        assert engine_module.result_to_dict is original_to_dict
    finally:
        del sys.modules[late.__name__]
    assert _bindings() == before
    names = {span["name"] for span in tracer.spans}
    assert {"workloads.build", "workloads.warmup_len", "fastsim.init",
            "fastsim.fast_forward", "fastsim.run", "fastsim.replay",
            "exec.serialize", "exec.engine"} <= names
    metrics = layer_metrics(tracer.spans)
    assert all(name in metrics for name, _ in CONTRACT_PER_LAYER)
    assert metrics["fastsim.committed"] == 10198


def test_uninstall_happens_when_the_traced_code_raises():
    from repro.workloads.registry import get_workload
    with pytest.raises(ValueError):
        with Tracer():
            get_workload("go").build(0)     # scale 0 is rejected
    assert wrappers_left() == []


def test_self_time_subtracts_children():
    spans = [
        {"id": 1, "name": "outer", "start": 0.0, "end": 10.0,
         "parent": None, "args": {}},
        {"id": 2, "name": "inner", "start": 1.0, "end": 4.0, "parent": 1,
         "args": {}},
        {"id": 3, "name": "inner", "start": 3.0, "end": 6.0, "parent": 1,
         "args": {}},
    ]
    table = self_times(spans)
    assert table["outer"]["total_s"] == 10.0
    assert table["outer"]["self_s"] == pytest.approx(5.0)   # 10 - [1, 6]
    assert table["inner"] == {"calls": 2, "total_s": 6.0, "self_s": 6.0}
