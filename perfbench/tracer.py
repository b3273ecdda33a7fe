"""Spans and counters around the calls into each slspectra module.

A traced sample process installs a ``Tracer`` after importing the package.
It replaces each target in ``TARGETS`` with a wrapper, looked up by name at
run time, in every ``slspectra`` module namespace that binds it, so calls
routed through an import such as ``spectral.fundamental_trajectory`` or
``propagator.solve_ivp`` are caught where they are made.  A target a later
version of the package no longer has is listed as absent, and the metrics
built only from absent targets are reported as absent.

A span wrapper records (target, parent span, start, end, nesting depth
within its group) in a flat in-memory array; the spans are written out when
the sample ends.  A span's self time is its duration minus the durations of
its direct child spans.  Count wrappers only count calls and points: they
sit on the coefficient rules, which the Runge-Kutta right-hand side calls
millions of times.

``metrics`` turns the summed raw aggregates of one sample into the per-layer
metrics of BENCHMARK.json; it needs no slspectra import.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

SPAN, COUNT = "span", "count"

# (module, attribute path, group, kind).  The group's first component is
# the module that owns the time and the errors.
TARGETS = [
    ("problem", "loads_problem", "problem.load", SPAN),
    ("problem", "load_problem", "problem.load", SPAN),
    ("problem", "constant_coefficient_problem", "problem.load", SPAN),
    ("problem", "delta_inner", "problem.delta_inner", SPAN),
    ("problem", "ConstantRule.__call__", "problem.rule", COUNT),
    ("problem", "PolyRule.__call__", "problem.rule", COUNT),
    ("problem", "TableRule.__call__", "problem.rule", COUNT),
    ("quadrature", "piecewise_integrate", "quadrature.integral", SPAN),
    ("quadrature", "adaptive_integrate", "quadrature.adaptive", SPAN),
    ("quadrature", "_panel", "quadrature.panel", SPAN),
    ("propagator", "propagate", "propagator.propagate", SPAN),
    ("propagator", "fundamental_trajectory", "propagator.fundamental", SPAN),
    ("propagator", "solve_ivp", "propagator.dop853", SPAN),
    ("propagator", "_ExactSegment.__init__", "propagator.closed_form", COUNT),
    ("propagator", "Trajectory.eval", "propagator.eval", SPAN),
    ("nevanlinna", "eval_param", "nevanlinna.eval", SPAN),
    ("nevanlinna", "BoundaryParam.boundary_value", "nevanlinna.eval", SPAN),
    ("spectral", "m_function", "spectral.m_function", SPAN),
    ("spectral", "spectral_density", "spectral.density", SPAN),
    ("spectral", "_scan_value", "spectral.scan_value", SPAN),
    ("spectral", "_scan_segment", "spectral.scan_segment", SPAN),
    ("spectral", "brentq", "spectral.brentq", SPAN),
    ("spectral", "_is_pole", "spectral.pole_probe", SPAN),
    ("spectral", "_winding_confirms", "spectral.winding", SPAN),
    ("spectral", "find_eigenvalues", "spectral.find_eigenvalues", SPAN),
    ("spectral", "point_mass", "spectral.point_mass", SPAN),
    ("spectral", "build_spectral_function", "spectral.build", SPAN),
    ("transform", "fourier_transform", "transform.fourier_transform", SPAN),
    ("transform", "_hat_at", "transform.hat", SPAN),
    ("transform", "inverse_transform", "transform.inverse_point", SPAN),
    ("transform", "_inverse_on_grid", "transform.inverse_grid", SPAN),
    ("transform", "parseval_defect", "transform.parseval", SPAN),
    ("transform", "uniform_convergence_profile", "transform.convergence", SPAN),
    ("cli", "main", "cli.main", SPAN),
    ("cli", "cmd_spectral", "cli.command", SPAN),
    ("cli", "cmd_expand", "cli.command", SPAN),
    ("cli", "_write_table", "cli.write", SPAN),
    ("cli", "_write_manifest", "cli.write", SPAN),
]
MODULES = ("propagator", "problem", "quadrature", "nevanlinna", "spectral", "transform", "cli")
GROUPS = sorted({t[2] for t in TARGETS})
SKIPPED_MODULES = ("slspectra.verify",)  # the acceptance harness is not a layer


class Tracer:
    def __init__(self) -> None:
        self.spans = array("q")  # flat records of 5: target, parent, start, end, nest
        self.stack: list[int] = []
        self.active = defaultdict(int)  # open spans per group
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.present_groups: set[str] = set()
        self._intervals: list[float] = []  # open adaptive_integrate intervals

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for home in MODULES:
            try:
                importlib.import_module(f"slspectra.{home}")
            except ImportError:
                pass  # its targets are reported absent
        modules = [
            m for name, m in list(sys.modules.items())
            if (name == "slspectra" or name.startswith("slspectra."))
            and name not in SKIPPED_MODULES and m is not None
        ]
        for tid, (home, path, group, kind) in enumerate(TARGETS):
            owner = sys.modules.get(f"slspectra.{home}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.absent.append(f"{home}.{path}")
                continue
            self.present_groups.add(group)
            wrapper = self._span(orig, tid, group) if kind == SPAN else self._count(orig, group)
            if owner_path:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapper)

    def _error(self, module: str, exc: BaseException) -> None:
        # count each exception once per module however many wrappers it leaves
        seen = exc.__dict__.setdefault("_bench_modules", set())
        if module not in seen:
            seen.add(module)
            self.counters[f"{module}.errors"] += 1

    def _span(self, orig, tid: int, group: str):
        spans, stack, active, clock = self.spans, self.stack, self.active, time.perf_counter_ns
        module = group.split(".")[0]
        pre, post = self._hooks(group)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args = pre(args)
            idx = len(spans) // 5
            nest = active[group]
            active[group] = nest + 1
            stack.append(idx)
            spans.extend((tid, stack[-2] if len(stack) > 1 else -1, clock(), 0, nest))
            result = None
            try:
                result = orig(*args, **kwargs)
                return result
            except BaseException as exc:
                self._error(module, exc)
                raise
            finally:
                spans[5 * idx + 3] = clock()
                stack.pop()
                active[group] = nest
                if post is not None:
                    post(args, result)

        return wrapper

    def _count(self, orig, group: str):
        counters = self.counters
        module = group.split(".")[0]
        calls, points = f"{group}.calls", f"{group}.points"
        with_points = group == "problem.rule"  # rule(t) evaluates len(t) points

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counters[calls] += 1
            if with_points:
                counters[points] += np.size(args[1])
            try:
                return orig(*args, **kwargs)
            except BaseException as exc:
                self._error(module, exc)
                raise

        return wrapper

    def _hooks(self, group: str):
        """(pre, post) hooks: pre may replace the arguments, post sees the result."""
        c = self.counters
        if group == "propagator.eval":
            def post(args, res):
                c["propagator.eval.points"] += np.size(args[1])
            return None, post
        if group == "propagator.dop853":
            def post(args, res):
                if res is not None:
                    c["propagator.dop853.steps"] += max(len(getattr(res, "t", ())) - 1, 0)
                    c["propagator.dop853.nfev"] += getattr(res, "nfev", 0)
            return None, post
        if group == "spectral.brentq":
            def pre(args):
                fn = args[0]

                def counted(*a, **k):
                    c["spectral.brentq.fevals"] += 1
                    return fn(*a, **k)

                return (counted,) + tuple(args[1:])
            return pre, None
        if group == "spectral.find_eigenvalues":
            def post(args, res):
                if res is not None:
                    c["spectral.eigenvalues_found"] += len(res)
            return None, post
        if group == "quadrature.adaptive":
            intervals = self._intervals

            def pre(args):
                intervals.append(abs(float(args[2]) - float(args[1])))
                return args

            return pre, lambda args, res: intervals.pop()
        if group == "quadrature.panel":
            intervals = self._intervals

            def post(args, res):
                width = abs(float(args[2]) - float(args[1]))
                if intervals and width > 0.0:
                    depth = round(math.log2(intervals[-1] / width))
                    c["quadrature.max_depth"] = max(c["quadrature.max_depth"], depth)
            return None, post
        return None, None

    # -- results -----------------------------------------------------------

    def raw(self, propagator_module) -> dict:
        """Per-group aggregates and counters of this process."""
        rec = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 5)
        tid, parent, start, end, nest = rec.T
        dur = end - start
        child = np.zeros(len(rec), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        gid = np.array([GROUPS.index(t[2]) for t in TARGETS])[tid] if len(rec) else np.zeros(0, int)
        groups = {}
        for g, name in enumerate(GROUPS):
            sel = gid == g
            outer = sel & (nest == 0)
            groups[name] = {
                "calls": int(np.count_nonzero(sel)),
                "nested_calls": int(np.count_nonzero(sel & (nest > 0))),
                "max_nest": int(nest[sel].max()) if sel.any() else 0,
                "self_ns": int(self_ns[sel].sum()),
                "incl_ns": int(dur[outer].sum()),
            }
        counters = dict(self.counters)
        cache = getattr(propagator_module, "_cache", None)
        if cache is not None and hasattr(cache, "hits"):
            counters["propagator.cache_hits"] = cache.hits
            counters["propagator.cache_misses"] = cache.misses
        else:
            self.absent.append("propagator._cache")
        return {
            "groups": groups,
            "counters": counters,
            "absent": sorted(self.absent),
            "present_groups": sorted(self.present_groups),
            "spans": len(rec),
        }

    def dump(self, path, sample_id: str) -> None:
        rec = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 5)
        np.savez_compressed(
            path,
            sample=np.array(sample_id),
            names=np.array([f"{t[0]}.{t[1]}" for t in TARGETS]),
            target=rec[:, 0].astype(np.int32),
            parent=rec[:, 1],
            start_ns=rec[:, 2],
            end_ns=rec[:, 3],
        )


def merge_raw(parts: list[dict]) -> dict:
    """Sum the raw aggregates of the processes of one sample."""
    out = {"groups": {}, "counters": defaultdict(float), "absent": set(), "present_groups": set(), "spans": 0}
    for part in parts:
        for name, agg in part["groups"].items():
            acc = out["groups"].setdefault(name, dict.fromkeys(agg, 0))
            for key, val in agg.items():
                acc[key] = max(acc[key], val) if key == "max_nest" else acc[key] + val
        for key, val in part["counters"].items():
            if key == "quadrature.max_depth":
                out["counters"][key] = max(out["counters"][key], val)
            else:
                out["counters"][key] += val
        out["absent"].update(part["absent"])
        out["present_groups"].update(part["present_groups"])
        out["spans"] += part["spans"]
    return out


def _metric_table():
    """name -> (unit, groups that must be present, value function)."""

    def calls(g):
        return lambda r: r["groups"][g]["calls"]

    def self_s(*gs):
        return lambda r: sum(r["groups"][g]["self_ns"] for g in gs) * 1e-9

    def incl_s(g):
        return lambda r: r["groups"][g]["incl_ns"] * 1e-9

    def counter(key):
        return lambda r: r["counters"].get(key, 0)

    def module_self(mod):
        gs = [g for g in GROUPS if g.split(".")[0] == mod]
        return gs, self_s(*gs)

    def ratio(num, den):
        return lambda r: num(r) / den(r) if den(r) else 0.0

    hits, misses = counter("propagator.cache_hits"), counter("propagator.cache_misses")
    table = {
        "propagator.calls": ("count", ["propagator.propagate"], calls("propagator.propagate")),
        "propagator.self_s": ("s", ["propagator.propagate", "propagator.fundamental"],
                              self_s("propagator.propagate", "propagator.fundamental")),
        "propagator.dop853_segments": ("count", ["propagator.dop853"], calls("propagator.dop853")),
        "propagator.dop853_steps": ("count", ["propagator.dop853"], counter("propagator.dop853.steps")),
        "propagator.dop853_nfev": ("count", ["propagator.dop853"], counter("propagator.dop853.nfev")),
        "propagator.dop853_s": ("s", ["propagator.dop853"], self_s("propagator.dop853")),
        "propagator.closed_form_segments": ("count", ["propagator.closed_form"],
                                            counter("propagator.closed_form.calls")),
        "propagator.eval_calls": ("count", ["propagator.eval"], calls("propagator.eval")),
        "propagator.eval_points": ("count", ["propagator.eval"], counter("propagator.eval.points")),
        "propagator.eval_self_s": ("s", ["propagator.eval"], self_s("propagator.eval")),
        "propagator.cache_hits": ("count", ["propagator._cache"], hits),
        "propagator.cache_misses": ("count", ["propagator._cache"], misses),
        "propagator.cache_hit_ratio": ("ratio", ["propagator._cache"],
                                       ratio(hits, lambda r: hits(r) + misses(r))),
        "problem.rule_eval_calls": ("count", ["problem.rule"], counter("problem.rule.calls")),
        "problem.rule_eval_points": ("count", ["problem.rule"], counter("problem.rule.points")),
        "problem.delta_inner_calls": ("count", ["problem.delta_inner"], calls("problem.delta_inner")),
        "problem.delta_inner_self_s": ("s", ["problem.delta_inner"], self_s("problem.delta_inner")),
        "problem.load_s": ("s", ["problem.load"], incl_s("problem.load")),
        "quadrature.integrals": ("count", ["quadrature.integral"], calls("quadrature.integral")),
        "quadrature.panels": ("count", ["quadrature.panel"], calls("quadrature.panel")),
        "quadrature.max_depth": ("count", ["quadrature.panel"], counter("quadrature.max_depth")),
        "quadrature.self_s": ("s",) + module_self("quadrature"),
        "nevanlinna.eval_calls": ("count", ["nevanlinna.eval"], calls("nevanlinna.eval")),
        "nevanlinna.self_s": ("s",) + module_self("nevanlinna"),
        "spectral.scan_evals": ("count", ["spectral.scan_value"], calls("spectral.scan_value")),
        "spectral.scan_subdivisions": ("count", ["spectral.scan_segment"],
                                       lambda r: r["groups"]["spectral.scan_segment"]["nested_calls"]),
        "spectral.scan_max_depth": ("count", ["spectral.scan_segment"],
                                    lambda r: r["groups"]["spectral.scan_segment"]["max_nest"]),
        "spectral.brentq_calls": ("count", ["spectral.brentq"], calls("spectral.brentq")),
        "spectral.brentq_fevals": ("count", ["spectral.brentq"], counter("spectral.brentq.fevals")),
        "spectral.scan_yield": ("ratio", ["spectral.scan_value", "spectral.find_eigenvalues"],
                                ratio(counter("spectral.eigenvalues_found"), calls("spectral.scan_value"))),
        "spectral.pole_probes": ("count", ["spectral.pole_probe"], calls("spectral.pole_probe")),
        "spectral.winding_fallbacks": ("count", ["spectral.winding"], calls("spectral.winding")),
        "spectral.m_function_calls": ("count", ["spectral.m_function"], calls("spectral.m_function")),
        "spectral.m_function_self_s": ("s", ["spectral.m_function"], self_s("spectral.m_function")),
        "spectral.find_eigenvalues_s": ("s", ["spectral.find_eigenvalues"], incl_s("spectral.find_eigenvalues")),
        "spectral.point_mass_s": ("s", ["spectral.point_mass"], incl_s("spectral.point_mass")),
        "spectral.density_calls": ("count", ["spectral.density"], calls("spectral.density")),
        "spectral.density_s": ("s", ["spectral.density"], incl_s("spectral.density")),
        "spectral.build_s": ("s", ["spectral.build"], incl_s("spectral.build")),
        "spectral.self_s": ("s",) + module_self("spectral"),
        "transform.fourier_transform_s": ("s", ["transform.fourier_transform"],
                                          incl_s("transform.fourier_transform")),
        "transform.hat_calls": ("count", ["transform.hat"], calls("transform.hat")),
        "transform.inverse_point_calls": ("count", ["transform.inverse_point"], calls("transform.inverse_point")),
        "transform.inverse_point_s": ("s", ["transform.inverse_point"], incl_s("transform.inverse_point")),
        "transform.inverse_grid_s": ("s", ["transform.inverse_grid"], incl_s("transform.inverse_grid")),
        "transform.parseval_s": ("s", ["transform.parseval"], incl_s("transform.parseval")),
        "transform.self_s": ("s",) + module_self("transform"),
        "cli.main_s": ("s", ["cli.main"], incl_s("cli.main")),
        "cli.self_s": ("s",) + module_self("cli"),
        "cli.bytes_written": ("count", ["cli.main"], counter("cli.bytes_written")),
    }
    for mod in MODULES:
        gs = [g for g in GROUPS if g.split(".")[0] == mod]
        table[f"{mod}.errors"] = ("count", gs, counter(f"{mod}.errors"))
    return table


METRICS = _metric_table()


def metrics(raw: dict) -> dict[str, dict]:
    """Per-layer metrics of one sample; a metric whose inputs are all absent
    is reported with value 0 and "absent": true."""
    present = set(raw["present_groups"])
    if "propagator._cache" not in raw["absent"]:
        present.add("propagator._cache")
    out = {}
    for name, (unit, needs, fn) in METRICS.items():
        if needs and not any(g in present for g in needs):
            out[name] = {"value": 0, "unit": unit, "absent": True}
            continue
        value = fn(raw)
        out[name] = {"value": int(value) if unit == "count" else float(value), "unit": unit}
    return out
