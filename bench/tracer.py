"""Per-layer tracing of shatterlab from outside the library.

The traced run replaces the public functions of each module (and a few hot
methods) with wrappers that record one span per call.  A layer's self time
is the duration of its spans minus the part covered by child spans; spans
nest strictly because the benchmark runs one item at a time on one thread,
so the covered part is the sum of the children's durations.  Spans are
folded into per-layer totals as they close rather than kept: a single
``ban_set``-heavy item opens several hundred thousand of them.

Every binding of a wrapped function is patched, not only the defining
module: ``dims`` imports ``child_masks`` by name, ``thicketvc`` imports
``thicket_shatter`` and the package re-exports everything.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Callable

LAYERS = ("cli", "banseq", "dims", "setsystem", "typetree", "thicketvc",
          "geometry")


@dataclass(frozen=True)
class Target:
    """One function to wrap.  ``owner`` is a module or a class; ``group``
    names the inclusive-time metric the call counts towards; ``hook`` sees
    the bound arguments before the call, ``outcome`` the return value."""

    layer: str
    owner: object
    attr: str
    group: str | None = None
    hook: Callable | None = None
    outcome: Callable | None = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.self_s = Counter()   # layer -> self seconds
        self.calls = Counter()    # "layer.attr" -> calls
        self.group_s = Counter()  # group -> outermost inclusive seconds
        self.errors = Counter()   # layer -> exceptions escaping the layer
        self.counts = Counter()   # counts derived from arguments and results
        self.rank_args_seen = set()
        self._stack = []          # open spans: [layer, start, covered]
        self._depth = Counter()
        self._patched = []

    def span(self, layer, key, group, fn, args, kwargs):
        """Run ``fn`` as one span of ``layer``."""
        parent = self._stack[-1] if self._stack else None
        frame = [layer, self.clock(), 0.0]
        self._stack.append(frame)
        if group:
            self._depth[group] += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            if parent is None or parent[0] != layer:
                self.errors[layer] += 1
            raise
        finally:
            duration = self.clock() - frame[1]
            self._stack.pop()
            self.self_s[layer] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            self.calls[key] += 1
            if group:
                self._depth[group] -= 1
                if not self._depth[group]:
                    self.group_s[group] += duration

    def inside(self, group):
        return self._depth[group] > 0

    def wrap(self, target, fn):
        key = f"{target.layer}.{target.attr}"
        signature = inspect.signature(fn) if target.hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if target.hook:
                target.hook(self, signature.bind(*args, **kwargs).arguments)
            result = self.span(target.layer, key, target.group, fn, args, kwargs)
            if target.outcome:
                target.outcome(self, result)
            return result

        return wrapper

    def install(self, targets, modules):
        """Patch every target in its owner class, or in every module of
        ``modules`` that binds it.  Returns the number of bindings patched
        per target key, so a caller can see a target that was not found."""
        found = Counter()
        for target in targets:
            key = f"{target.layer}.{target.attr}"
            if inspect.isclass(target.owner):
                raw = target.owner.__dict__.get(target.attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(target, raw.__func__))
                else:
                    wrapped = self.wrap(target, raw)
                self._patch(target.owner, target.attr, raw, wrapped)
                found[key] += 1
                continue
            fn = getattr(target.owner, target.attr, None)
            if fn is None:
                continue
            wrapped = self.wrap(target, fn)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, name, fn, wrapped)
                        found[key] += 1
        return found

    def _patch(self, owner, name, original, wrapped):
        setattr(owner, name, wrapped)
        self._patched.append((owner, name, original))

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# shatterlab's layers
# ---------------------------------------------------------------------------

def _count_enumeration(tracer, arguments):
    """solutions / banned_count mark all j^n sequences and read all
    C(n,k) j^(n-k) ban-table entries of their problem."""
    p = arguments["problem"]
    tracer.counts["banseq.sequences_enumerated"] += p.j ** p.n
    tracer.counts["banseq.table_entries"] += comb(p.n, p.k) * p.j ** (p.n - p.k)


def _count_vc_steps(tracer, arguments):
    tracer.counts["thicketvc.trial_steps"] += (
        arguments["trials"] * arguments["height"] * len(arguments["system"].sets))


def _count_weak_law_steps(tracer, arguments):
    tracer.counts["thicketvc.trial_steps"] += arguments["trials"] * arguments["height"]


def _start_audit(tracer, arguments):
    tracer.rank_args_seen.clear()


def _count_redundant_rank(name):
    """op_rank / op_shatter calls inside one audit_bounds whose arguments
    repeat an earlier call of that audit."""
    def hook(tracer, arguments):
        if not tracer.inside("dims.audit_bounds_s"):
            return
        system = arguments["system"]
        key = (name, system.universe_size, system.sets, arguments["s"],
               arguments.get("height"))
        if key in tracer.rank_args_seen:
            tracer.counts["dims.redundant_rank_calls"] += 1
        tracer.rank_args_seen.add(key)
    return hook


def _count_exit(tracer, code):
    tracer.counts[f"cli.exit_{code}"] += 1


def shatterlab_targets():
    """Every function in each module's ``__all__``, plus ``cli.main`` and
    the hot helpers the per-layer metrics count."""
    from shatterlab import (banseq, cli, dims, geometry, setsystem, thicketvc,
                            typetree)

    groups = {
        "solutions": "banseq.solve_s", "banned_count": "banseq.solve_s",
        "parity_problem": "banseq.construct_s", "from_vc": "banseq.construct_s",
        "from_element_tree": "banseq.construct_s", "from_type_tree": "banseq.construct_s",
        "random_problem": "banseq.construct_s",
        "reduce_hat": "banseq.reduce_s", "reduce_prime": "banseq.reduce_s",
        "is_hereditary": "banseq.hereditary_s",
        "min_subcube_hitting": "banseq.hitting_s", "max_solutions": "banseq.hitting_s",
        "op_shatter": "dims.op_shatter_s", "op_rank": "dims.op_rank_s",
        "audit_bounds": "dims.audit_bounds_s",
        "thicket_dimension": "dims.thicket_s", "thicket_shatter": "dims.thicket_s",
        "vc_dimension": "dims.vc_s", "vc_shatter_function": "dims.vc_s",
        "shatters": "dims.vc_s",
        "build_type_tree": "typetree.build_s",
        "run_vc_theorem": "thicketvc.vc_theorem_s", "run_weak_law": "thicketvc.weak_law_s",
    }
    hooks = {
        "solutions": _count_enumeration, "banned_count": _count_enumeration,
        "run_vc_theorem": _count_vc_steps, "run_weak_law": _count_weak_law_steps,
        "audit_bounds": _start_audit,
        "op_rank": _count_redundant_rank("op_rank"),
        "op_shatter": _count_redundant_rank("op_shatter"),
    }
    modules = {"banseq": banseq, "dims": dims, "geometry": geometry,
               "setsystem": setsystem, "thicketvc": thicketvc,
               "typetree": typetree}
    targets = [Target("cli", cli, "main", outcome=_count_exit)]
    for layer, module in modules.items():
        for attr in module.__all__:
            if inspect.isfunction(getattr(module, attr)):
                targets.append(Target(layer, module, attr, group=groups.get(attr),
                                      hook=hooks.get(attr)))
    targets += [
        Target("setsystem", setsystem, "child_masks"),
        Target("banseq", banseq.RelaxedBanProblem, "ban_set"),
        Target("banseq", banseq.RelaxedBanProblem, "from_table",
               group="banseq.construct_s"),
        Target("dims", dims.ElementTree, "path_requirements"),
    ]
    return targets


def shatterlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "shatterlab"
                                  or name.startswith("shatterlab."))]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def _per_layer_values(t):
    vc_and_weak = t.group_s["thicketvc.vc_theorem_s"] + t.group_s["thicketvc.weak_law_s"]
    values = {
        "cli.calls": t.calls["cli.main"],
        "cli.self_s": t.self_s["cli"],
        "cli.exit_0": t.counts["cli.exit_0"],
        "cli.exit_2": t.counts["cli.exit_2"],
        "cli.crash": t.errors["cli"],
        "banseq.self_s": t.self_s["banseq"],
        "banseq.solve_s": t.group_s["banseq.solve_s"],
        "banseq.ban_set_calls": t.calls["banseq.ban_set"],
        "banseq.sequences_enumerated": t.counts["banseq.sequences_enumerated"],
        "banseq.table_entries": t.counts["banseq.table_entries"],
        "banseq.ban_set_per_entry": _ratio(t.calls["banseq.ban_set"],
                                           t.counts["banseq.table_entries"]),
        "banseq.construct_s": t.group_s["banseq.construct_s"],
        "banseq.reduce_s": t.group_s["banseq.reduce_s"],
        "banseq.hereditary_s": t.group_s["banseq.hereditary_s"],
        "banseq.hitting_s": t.group_s["banseq.hitting_s"],
        "dims.self_s": t.self_s["dims"],
        "dims.op_shatter_calls": t.calls["dims.op_shatter"],
        "dims.op_shatter_s": t.group_s["dims.op_shatter_s"],
        "dims.op_rank_calls": t.calls["dims.op_rank"],
        "dims.op_rank_s": t.group_s["dims.op_rank_s"],
        "dims.audit_bounds_s": t.group_s["dims.audit_bounds_s"],
        "dims.thicket_s": t.group_s["dims.thicket_s"],
        "dims.vc_s": t.group_s["dims.vc_s"],
        "dims.redundant_rank_calls": t.counts["dims.redundant_rank_calls"],
        "dims.path_requirements_calls": t.calls["dims.path_requirements"],
        "setsystem.self_s": t.self_s["setsystem"],
        "setsystem.child_masks_calls": t.calls["setsystem.child_masks"],
        "typetree.self_s": t.self_s["typetree"],
        "typetree.tree_rank_calls": t.calls["typetree.tree_rank"],
        "typetree.build_s": t.group_s["typetree.build_s"],
        "thicketvc.self_s": t.self_s["thicketvc"],
        "thicketvc.vc_theorem_s": t.group_s["thicketvc.vc_theorem_s"],
        "thicketvc.weak_law_s": t.group_s["thicketvc.weak_law_s"],
        "thicketvc.trial_steps": t.counts["thicketvc.trial_steps"],
        "thicketvc.steps_per_s": _ratio(t.counts["thicketvc.trial_steps"], vc_and_weak),
        "geometry.calls": sum(n for key, n in t.calls.items()
                              if key.startswith("geometry.")),
        "geometry.self_s": t.self_s["geometry"],
    }
    for layer in LAYERS:
        values[f"{layer}.errors"] = t.errors[layer]
    return values


def _unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_entry"):
        return "ratio"
    return "count"


# Metrics where more is better; every other per-layer metric is better lower.
HIGHER_IS_BETTER = {"cli.calls", "cli.exit_0", "cli.exit_2", "thicketvc.steps_per_s"}


# Filled in by the runner: traced item time over untraced item time, minus 1.
OVERHEAD_SPEC = {"name": "trace.overhead_pct", "unit": "%", "better": "lower"}


def per_layer_metrics(tracer, speed=1.0):
    """{name: {"value", "unit"}} for every per-layer metric, with times
    multiplied and rates divided by the machine-speed factor ``speed``."""
    scale = {"s": speed, "1/s": 1 / speed}
    return {name: {"value": value * scale.get(_unit(name), 1), "unit": _unit(name)}
            for name, value in _per_layer_values(tracer).items()}


def per_layer_spec():
    """The per-layer metric list as BENCHMARK.json declares it."""
    return [{"name": name, "unit": _unit(name),
             "better": "higher" if name in HIGHER_IS_BETTER else "lower"}
            for name in _per_layer_values(Tracer())]
