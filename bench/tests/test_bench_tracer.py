"""Self time, error attribution and the per-layer mapping of the tracer."""

import json
import types
from math import comb
from pathlib import Path

import pytest

import tracer as tracing
from tracer import Target, Tracer


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


LIB = """
def leaf(clock):
    clock.now += 4.0

def middle(clock):
    clock.now += 1.0
    leaf(clock)
    leaf(clock)
    clock.now += 2.0

def outer(clock):
    clock.now += 3.0
    middle(clock)
    clock.now += 5.0

def failing(clock):
    clock.now += 1.0
    raise ValueError("bad input")

def catcher(clock):
    try:
        failing(clock)
    except ValueError:
        return "caught"
"""


@pytest.fixture
def fake():
    lib = types.ModuleType("lib")
    exec(LIB, lib.__dict__)
    user = types.ModuleType("user")
    user.leaf = lib.leaf          # a binding made by "from lib import leaf"
    clock = Clock()
    tracer = Tracer(clock)
    targets = [Target("a", lib, "outer", group="a.outer_s"),
               Target("b", lib, "middle"),
               Target("c", lib, "leaf", group="c.leaf_s"),
               Target("c", lib, "failing"),
               Target("b", lib, "catcher")]
    found = tracer.install(targets, [lib, user])
    tracer.active = True
    yield types.SimpleNamespace(lib=lib, user=user, clock=clock, tracer=tracer,
                                found=found)
    tracer.uninstall()


def test_self_time_is_span_minus_covered_child_time(fake):
    fake.lib.outer(fake.clock)
    t = fake.tracer
    assert fake.clock.now == 19.0
    assert t.self_s["a"] == 8.0           # 19 - middle's 11
    assert t.self_s["b"] == 3.0           # 11 - two leaves of 4
    assert t.self_s["c"] == 8.0
    assert sum(t.self_s.values()) == 19.0
    assert t.group_s["a.outer_s"] == 19.0
    assert t.group_s["c.leaf_s"] == 8.0
    assert t.calls == {"a.outer": 1, "b.middle": 1, "c.leaf": 2}


def test_every_binding_is_patched_and_restored(fake):
    assert fake.found["c.leaf"] == 2
    fake.user.leaf(fake.clock)
    assert fake.tracer.calls["c.leaf"] == 1
    fake.tracer.uninstall()
    assert fake.user.leaf is fake.lib.leaf
    assert not hasattr(fake.lib.leaf, "__wrapped__")


def test_inactive_tracer_records_nothing(fake):
    fake.tracer.active = False
    fake.lib.outer(fake.clock)
    assert not fake.tracer.calls and not fake.tracer.self_s


def test_errors_count_once_where_they_leave_a_layer(fake):
    assert fake.lib.catcher(fake.clock) == "caught"
    with pytest.raises(ValueError):
        fake.lib.failing(fake.clock)
    assert fake.tracer.errors == {"c": 2}
    assert fake.tracer.self_s["c"] == 2.0


def test_nested_calls_of_one_group_count_once():
    clock = Clock()
    lib = types.ModuleType("lib")
    exec("def f(clock, depth):\n    clock.now += 1.0\n"
         "    if depth:\n        f(clock, depth - 1)\n", lib.__dict__)
    tracer = Tracer(clock)
    tracer.install([Target("a", lib, "f", group="a.f_s")], [lib])
    tracer.active = True
    lib.f(clock, 2)
    tracer.uninstall()
    assert tracer.group_s["a.f_s"] == 3.0
    assert tracer.self_s["a"] == 3.0
    assert tracer.calls["a.f"] == 3


@pytest.fixture
def traced_shatterlab():
    tracer = Tracer()
    tracer.install(tracing.shatterlab_targets(), tracing.shatterlab_modules())
    tracer.active = True
    yield tracer
    tracer.uninstall()


def test_shatterlab_ban_counters_map_to_banseq(traced_shatterlab):
    import shatterlab
    from shatterlab import banseq

    sols, _ = shatterlab.solutions(banseq.parity_problem(3))
    metrics = tracing.per_layer_metrics(traced_shatterlab)
    value = {name: m["value"] for name, m in metrics.items()}
    assert len(sols) == 4
    assert value["banseq.ban_set_calls"] == comb(3, 1) * 2 ** 2
    assert value["banseq.table_entries"] == 12
    assert value["banseq.sequences_enumerated"] == 8
    assert value["banseq.ban_set_per_entry"] == 1.0
    assert value["banseq.solve_s"] > 0 and value["banseq.construct_s"] > 0
    assert value["banseq.self_s"] > 0 and value["dims.self_s"] == 0


def test_shatterlab_dims_counters_reach_imported_bindings(traced_shatterlab):
    from shatterlab import dims, setsystem, thicketvc

    system = setsystem.SetSystem(4, tuple(range(0, 16, 3)))
    assert dims.audit_bounds(system, 2, 1, 2).all_pass
    thicketvc.run_weak_law(thicketvc.ProbSpace.uniform(4), (0, 1), 6, "1/4", 50, 1,
                           keep_rows=False)
    value = {n: m["value"] for n, m in tracing.per_layer_metrics(traced_shatterlab).items()}
    assert value["setsystem.child_masks_calls"] > 0   # bound by name inside dims
    assert value["setsystem.self_s"] > 0
    assert value["dims.redundant_rank_calls"] > 0    # audit_bounds repeats op_rank
    assert value["dims.op_rank_calls"] > value["dims.redundant_rank_calls"]
    assert value["thicketvc.trial_steps"] == 50 * 6
    assert value["thicketvc.steps_per_s"] > 0


def test_benchmark_json_declares_the_per_layer_metrics():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["per_layer"]}
    emitted = tracing.per_layer_spec() + [tracing.OVERHEAD_SPEC]
    assert declared == {m["name"]: m for m in emitted}


def test_per_layer_times_scale_with_machine_speed():
    tracer = Tracer()
    tracer.self_s["dims"] = 2.0
    tracer.group_s["thicketvc.weak_law_s"] = 4.0
    tracer.counts["thicketvc.trial_steps"] = 100
    tracer.calls["dims.op_rank"] = 3
    value = {n: m["value"] for n, m in tracing.per_layer_metrics(tracer, 0.5).items()}
    assert value["dims.self_s"] == 1.0
    assert value["thicketvc.weak_law_s"] == 2.0
    assert value["thicketvc.steps_per_s"] == 50.0
    assert value["dims.op_rank_calls"] == 3
