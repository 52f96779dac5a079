"""Span tracing of breakaway's layers, installed from the benchmark only.

``install`` rebinds public functions at the module attribute each caller
looks up (for example ``breakaway.terrain.ode_solve_with_events``, which
terrain imported by name) with a wrapper that records one span per call:
name, start, end, parent span and operation id.  Callables handed to the
numerics kernels (objective functions, ODE right-hand sides) are wrapped
too, so their time is charged to the calling layer rather than to the
solver.  Nothing under ``src/`` changes, and ``uninstall`` restores every
attribute.

Spans are kept in memory in flat arrays.  Self time (a span's duration
minus the time its child spans cover) and inclusive time are summed per
span name as spans close; the arrays can be written out at the end.

Work counters come from returned objects (``sol.nfev``, ``sol.njev``,
``sol.nlu``, ``len(sol.t)``, ``FatigueResult.iterations``) and from the
wrapped callables.  They are deterministic for a given list of operations.

A span name is ``layer.what``; calls into the numerics kernels carry the
calling layer after an ``@`` (``numerics.brent@terrain``).
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

_perf = time.perf_counter


class Tracer:
    """In-memory span recorder with per-name self and inclusive time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.op = -1
        self._stack: list[list] = []   # [span id, name id, base id, start, child time]
        self._depth: Counter = Counter()
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and aggregates (between passes)."""
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next = 0
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int, bid: int) -> None:
        self._stack.append([self._next, nid, bid, _perf(), 0.0])
        self._next += 1
        self._depth[bid] += 1

    def exit(self) -> None:
        end = _perf()
        sid, nid, bid, start, child = self._stack.pop()
        duration = end - start
        self.span_name.append(nid)
        self.span_op.append(self.op)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(start)
        self.span_end.append(end)
        if self._stack:
            self._stack[-1][4] += duration
        name = self.names[nid]
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self._depth[bid] -= 1
        if not self._depth[bid]:  # outermost call of this kind: no double count
            self.incl_s[name] += duration

    def wrap(self, name: str, fn, on_result=None, callee=None):
        """fn wrapped in a span; callee(args) may wrap a callable argument."""
        nid = self.name_id(name)
        bid = self.name_id(name.split("@")[0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if callee is not None:
                args = callee(args)
            self.enter(nid, bid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def write(self, path: str) -> None:
        """Write the recorded spans as a compressed .npz file."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, "i4"),
            op=np.frombuffer(self.span_op, "i4"),
            parent=np.frombuffer(self.span_parent, "i8"),
            start=np.frombuffer(self.span_start, "f8"),
            end=np.frombuffer(self.span_end, "f8"))


def _callable_first(tracer: Tracer, name: str, counter: str | None = None):
    """Wrap args[0] (the objective or right-hand side) in a `name` span."""
    def callee(args):
        f = args[0]
        inner = tracer.wrap(name, f)
        if counter is None:
            return (inner,) + tuple(args[1:])

        def counted(*a, **k):
            tracer.counts[counter] += 1
            return inner(*a, **k)
        return (counted,) + tuple(args[1:])
    return callee


def _ode_counts(tracer: Tracer, layer: str):
    def on_result(args, sol):
        tracer.counts[f"{layer}.ode_steps"] += len(sol.t) - 1
        tracer.counts[f"{layer}.rhs_evals"] += int(sol.nfev)
        tracer.counts[f"{layer}.jac_evals"] += int(sol.njev)
        tracer.counts[f"{layer}.lu_decomps"] += int(sol.nlu)
    return on_result


def _count(tracer: Tracer, counter: str, value):
    def on_result(args, result):
        tracer.counts[counter] += value(args, result)
    return on_result


def _targets(tracer: Tracer) -> list[tuple]:
    """(module, class or None, attribute, span name, extra wrap arguments)."""
    t = tracer
    out = [
        ("breakaway.cli", None, "main", "cli.main", {}),
        ("breakaway.tables", "ResultTable", "render", "tables.render",
         {"on_result": _count(t, "tables.rows", lambda a, r: len(a[0].rows))}),
        ("breakaway.tables", "ResultTable", "write", "tables.write", {}),
        ("breakaway.config", "RunConfig", "load", "config.load", {}),
        ("breakaway.config", "RunConfig", "defaults", "config.defaults", {}),
        ("breakaway.config", "RunConfig", "get", "config.get", {}),
        ("breakaway.config", "RunConfig", "with_value", "config.with_value", {}),
        ("breakaway.config", "RunConfig", "echo_items", "config.echo_items", {}),
    ]
    for builder in ("drag_params", "crash_model", "strategy_problem",
                    "p_sustain", "terrain_scales"):
        out.append(("breakaway.config", "RunConfig", builder, "config.build", {}))
    for fn in ("optimal_attack", "critical_risk", "min_energy_to_win",
               "min_risk_to_win", "min_attack_position", "interior_optimum",
               "objective", "attack_power", "earliest_attack_position",
               "time_gap_from_position", "time_gap_from_power", "win_frontier"):
        out.append(("breakaway.flat", None, fn, f"flat.{fn}", {}))
    out += [
        ("breakaway.flat", None, "solve_cubic_real", "numerics.cubic", {}),
        ("breakaway.flat", None, "involvement_given_crash", "crash.involvement", {}),
        ("breakaway.fatigue", None, "optimize_fatigue", "fatigue.optimize",
         {"on_result": _count(t, "fatigue.attack_solves", lambda a, r: r.iterations)}),
        ("breakaway.fatigue", None, "find_root_bracketed", "numerics.brent@fatigue",
         {"callee": _callable_first(t, "fatigue.feval", "numerics.brent_fevals")}),
        ("breakaway.fatigue", None, "minimize_scalar", "numerics.minimize@fatigue",
         {"callee": _callable_first(t, "fatigue.feval", "numerics.minimize_fevals")}),
        ("breakaway.fatigue", None, "integrate_adaptive", "numerics.quad@fatigue",
         {"callee": _callable_first(t, "fatigue.feval", "numerics.quad_fevals")}),
        ("breakaway.crash", None, "integrate_adaptive", "numerics.quad@crash",
         {"callee": _callable_first(t, "crash.feval", "numerics.quad_fevals")}),
        ("breakaway.cli", None, "monte_carlo_exposure", "crash.mc",
         {"on_result": _count(t, "crash.mc_trials", lambda a, r: a[2])}),
        ("breakaway.terrain", None, "simulate_breakaway", "terrain.simulate", {}),
        ("breakaway.terrain", None, "load_course_table", "terrain.course_load", {}),
        ("breakaway.terrain", None, "demo_profile", "terrain.course_load", {}),
        ("breakaway.terrain", "CourseProfile", "flat", "terrain.course_load", {}),
        ("breakaway.terrain", "CourseProfile", "steepness", "terrain.steepness", {}),
        ("breakaway.terrain", None, "find_root_bracketed", "numerics.brent@terrain",
         {"callee": _callable_first(t, "terrain.feval", "numerics.brent_fevals")}),
        ("breakaway.terrain", None, "ode_solve_with_events", "numerics.ode@terrain",
         {"callee": _callable_first(t, "terrain.rhs"),
          "on_result": _ode_counts(t, "terrain")}),
        ("breakaway.model", "PowerProfile", "power_at", "model.power_at", {}),
        ("breakaway.model", None, "drag_at_depth", "model.drag_at_depth", {}),
        ("breakaway.microstructure", None, "drag_at_depth", "model.drag_at_depth", {}),
        ("breakaway.microstructure", None, "ode_solve_with_events",
         "numerics.ode@microstructure",
         {"callee": _callable_first(t, "microstructure.rhs"),
          "on_result": _ode_counts(t, "microstructure")}),
    ]
    for fn in ("full_ode_attack", "composite_attack", "max_relative_deviation",
               "peloton_passage"):
        out.append(("breakaway.microstructure", None, fn, f"microstructure.{fn}", {}))
    # exposure_simple_attack was imported by name into each of its callers
    for module in ("breakaway.cli", "breakaway.flat", "breakaway.fatigue"):
        out.append((module, None, "exposure_simple_attack", "crash.exposure", {}))
    return out


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Rebind every target; returns (undo list, targets not found).

    A target a later version of the program no longer has is skipped and
    reported, so the traced run keeps working across refactors.
    """
    undo, missing = [], []
    for module_name, class_name, attr, name, extra in _targets(tracer):
        label = ".".join(p for p in (module_name, class_name, attr) if p)
        try:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
        except (ImportError, AttributeError):
            missing.append(label)
            continue
        original = (owner.__dict__.get(attr) if isinstance(owner, type)
                    else getattr(owner, attr, None))
        if original is None:
            missing.append(label)
            continue
        if isinstance(original, classmethod):
            patched = classmethod(tracer.wrap(name, original.__func__, **extra))
        elif isinstance(original, staticmethod):
            patched = staticmethod(tracer.wrap(name, original.__func__, **extra))
        elif callable(original):
            patched = tracer.wrap(name, original, **extra)
        else:
            missing.append(label)
            continue
        setattr(owner, attr, patched)
        undo.append((owner, attr, original))
    return undo, missing


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# -- per-layer metrics ------------------------------------------------------

# metric name -> unit; the order is the order of the report
PER_LAYER = {
    "numerics.brent_calls": "count", "numerics.brent_fevals": "count",
    "numerics.brent_s": "s", "numerics.minimize_fevals": "count",
    "numerics.minimize_s": "s", "numerics.quad_calls": "count",
    "numerics.quad_s": "s",
    "fatigue.optimize_calls": "count", "fatigue.attack_solves": "count",
    "fatigue.self_s": "s",
    "flat.self_s": "s", "numerics.cubic_calls": "count",
    "crash.exposure_calls": "count",
    "config.load_s": "s", "config.with_value_calls": "count",
    "config.get_calls": "count", "config.self_s": "s", "cli.self_s": "s",
    "tables.render_s": "s", "tables.rows": "count",
    "terrain.ode_calls": "count", "terrain.ode_steps": "count",
    "terrain.rhs_evals": "count", "terrain.jac_evals": "count",
    "terrain.lu_decomps": "count", "terrain.ode_s": "s",
    "terrain.brent_calls": "count", "terrain.course_load_s": "s",
    "terrain.steepness_calls": "count", "terrain.steepness_us": "us",
    "model.power_at_calls": "count", "model.power_at_us": "us",
    "crash.mc_s": "s", "crash.mc_trials_per_s": "1/s",
    "microstructure.ode_steps": "count", "microstructure.rhs_evals": "count",
    "microstructure.ode_s": "s", "model.drag_at_depth_calls": "count",
    "import.numpy_s": "s", "import.scipy_s": "s", "import.breakaway_s": "s",
    "trace.overhead_s": "s",
}


def aggregates(tracer: Tracer) -> dict:
    """The per-pass sums a traced pass leaves behind, as plain dicts."""
    return {"calls": dict(tracer.calls), "self_s": dict(tracer.self_s),
            "incl_s": dict(tracer.incl_s), "counts": dict(tracer.counts)}


def merge(parts: list[dict]) -> dict:
    """Sum the aggregates of several traced processes (one pass)."""
    out = {key: Counter() for key in ("calls", "self_s", "incl_s", "counts")}
    for part in parts:
        for key, values in part.items():
            out[key].update(values)
    return {key: dict(values) for key, values in out.items()}


def layer_metrics(agg: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (imports and overhead excluded).

    ``*.self_s`` is the self time of every span of that layer.  The other
    ``*_s`` figures are inclusive times of the named calls, counting only
    the outermost of nested calls of one kind.  ``*_us`` is the mean
    inclusive time per call.
    """
    calls, self_s, incl, counts = (agg["calls"], agg["self_s"], agg["incl_s"],
                                   agg["counts"])

    def total(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def per_call_us(name):
        n = calls.get(name, 0)
        return 1e6 * incl.get(name, 0.0) / n if n else 0.0

    mc_s = incl.get("crash.mc", 0.0)
    return {
        "numerics.brent_calls": total(calls, "numerics.brent@"),
        "numerics.brent_fevals": counts.get("numerics.brent_fevals", 0),
        "numerics.brent_s": total(incl, "numerics.brent@"),
        "numerics.minimize_fevals": counts.get("numerics.minimize_fevals", 0),
        "numerics.minimize_s": total(incl, "numerics.minimize@"),
        "numerics.quad_calls": total(calls, "numerics.quad@"),
        "numerics.quad_s": total(incl, "numerics.quad@"),
        "fatigue.optimize_calls": calls.get("fatigue.optimize", 0),
        "fatigue.attack_solves": counts.get("fatigue.attack_solves", 0),
        "fatigue.self_s": total(self_s, "fatigue."),
        "flat.self_s": total(self_s, "flat."),
        "numerics.cubic_calls": calls.get("numerics.cubic", 0),
        "crash.exposure_calls": calls.get("crash.exposure", 0),
        "config.load_s": incl.get("config.load", 0.0),
        "config.with_value_calls": calls.get("config.with_value", 0),
        "config.get_calls": calls.get("config.get", 0),
        "config.self_s": total(self_s, "config."),
        "cli.self_s": total(self_s, "cli."),
        "tables.render_s": incl.get("tables.render", 0.0),
        "tables.rows": counts.get("tables.rows", 0),
        "terrain.ode_calls": calls.get("numerics.ode@terrain", 0),
        "terrain.ode_steps": counts.get("terrain.ode_steps", 0),
        "terrain.rhs_evals": counts.get("terrain.rhs_evals", 0),
        "terrain.jac_evals": counts.get("terrain.jac_evals", 0),
        "terrain.lu_decomps": counts.get("terrain.lu_decomps", 0),
        "terrain.ode_s": incl.get("numerics.ode@terrain", 0.0),
        "terrain.brent_calls": calls.get("numerics.brent@terrain", 0),
        "terrain.course_load_s": incl.get("terrain.course_load", 0.0),
        "terrain.steepness_calls": calls.get("terrain.steepness", 0),
        "terrain.steepness_us": per_call_us("terrain.steepness"),
        "model.power_at_calls": calls.get("model.power_at", 0),
        "model.power_at_us": per_call_us("model.power_at"),
        "crash.mc_s": mc_s,
        "crash.mc_trials_per_s": counts.get("crash.mc_trials", 0) / mc_s if mc_s else 0.0,
        "microstructure.ode_steps": counts.get("microstructure.ode_steps", 0),
        "microstructure.rhs_evals": counts.get("microstructure.rhs_evals", 0),
        "microstructure.ode_s": incl.get("numerics.ode@microstructure", 0.0),
        "model.drag_at_depth_calls": calls.get("model.drag_at_depth", 0),
    }
