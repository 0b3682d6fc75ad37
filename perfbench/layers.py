"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces every public function of the wallnorm layer
modules with a timing wrapper, in every namespace that holds it: the
defining module, modules that imported the name (``from .normball import
contains``) and module-level dicts such as the CLI's command table.  Each
wrapped call is one span; a span's self time is its duration minus the
durations of the wrapped calls made inside it.  ``uninstall`` puts the
original functions back, so untraced passes run the unmodified program.

Layers are the modules of ``src/wallnorm``; ``fixtures`` only makes inputs
and ``errors`` only defines exceptions, so neither is traced.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter

LAYERS = (
    "surface_map", "homology", "snf", "coorient", "normball", "simplex",
    "oracle", "eikonal", "birkhoff", "svg", "cli",
)

# Self-time metrics: metric -> functions whose self time it sums.  A module
# listed with "*" contributes every wrapped function not named elsewhere.
TIME_METRICS = {
    "surface_map.parse_s": ("surface_map.*",),
    "homology.basis_s": ("homology.*",),
    "snf.snf_s": ("snf.*",),
    "cli.self_s": ("cli.*",),
    "coorient.enumerate_s": ("coorient.*",),
    "normball.norm_s": ("normball.norm", "normball.norm_rational"),
    "normball.dual_ball_s": ("normball.*",),
    "simplex.lp_s": ("simplex.*",),
    "eikonal.extend_s": ("eikonal.extend_highest",),
    "eikonal.realize_s": ("eikonal.*",),
    "oracle.verify_s": ("oracle.verify_min_equals_max",),
    "oracle.multicurve_s": ("oracle.*",),
    "birkhoff.classify_s": ("birkhoff.*",),
    "svg.render_s": ("svg.*",),
}

# Call-count metrics: metric -> functions whose calls it counts.
CALL_METRICS = {
    "surface_map.parse_calls": ("surface_map.parse_wall_system",),
    "homology.basis_calls": ("homology.homology_basis",),
    "snf.calls": ("snf.smith_normal_form", "snf.int_det", "snf.unimodular_inverse"),
    "cli.requests": ("cli.main",),
    "coorient.enumerate_calls": ("coorient.enumerate_eulerian",),
    "coorient.class_of_calls": ("coorient.class_of",),
    "normball.norm_calls": ("normball.norm", "normball.norm_rational"),
    "normball.dual_ball_calls": ("normball.dual_ball",),
    "normball.contains_calls": ("normball.contains",),
    "simplex.lp_calls": ("simplex.solve_lp",),
    "eikonal.extend_calls": ("eikonal.extend_highest",),
}

# Work counters read off arguments and results; see the hooks below.
WORK_METRICS = (
    "coorient.items", "normball.class_points", "simplex.lp_columns",
    "eikonal.field_states", "eikonal.fallbacks", "birkhoff.points",
)
# Maxima over the run rather than sums.  oracle.cover_states is computed
# from the truncation reached, F * (2h + 1) ** rank, not measured.
PEAK_METRICS = ("oracle.truncation", "oracle.cover_states")


def _count(key, amount):
    def hook(counters, args, kwargs, result):
        counters[key] += amount(args, result)
    return hook


def _cover(counters, args, kwargs, result):
    """Record the truncation reached: one below the h this table is built at."""
    wmap, basis, _, h = args[:4]
    counters["oracle.truncation"] = max(counters["oracle.truncation"], h - 1)
    states = len(wmap.faces) * (2 * (h - 1) + 1) ** basis.rank
    counters["oracle.cover_states"] = max(counters["oracle.cover_states"], states)


HOOKS = {
    "coorient.iter_eulerian": _count("coorient.items", lambda a, r: 1),
    "normball.dual_ball": _count("normball.class_points", lambda a, r: len(r.points)),
    "simplex.solve_lp": _count("simplex.lp_columns", lambda a, r: len(a[2])),
    "eikonal.extend_highest": _count("eikonal.field_states", lambda a, r: len(r.values)),
    "eikonal.realize": _count(
        "eikonal.fallbacks", lambda a, r: int(r.method == "enumeration-fallback")),
    "birkhoff.classify": _count("birkhoff.points", lambda a, r: len(r.entries)),
}
# Both oracle entry points build their cover tables here, once at the
# truncation h and once at h + 1 for the stability check, so the largest h
# seen is one above the truncation reached.  Observed, not timed.
OBSERVERS = {"oracle._single_cycle_table": _cover}


class Tracer:
    """Spans and counters for one process; children of a fork inherit a copy.

    ``clock`` is the time source of the spans.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.modules = {name: importlib.import_module(f"wallnorm.{name}") for name in LAYERS}
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[float] = []
        self._patches: list[tuple[dict, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()

    # -- installing wrappers -------------------------------------------------

    def _targets(self):
        for name, mod in self.modules.items():
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                key = f"{name}.{attr}"
                if key in OBSERVERS:
                    yield fn, self._observer(fn, OBSERVERS[key])
                elif not attr.startswith("_"):
                    yield fn, self._wrap(key, fn, HOOKS.get(key))

    def install(self) -> None:
        if self._patches:
            return
        wrappers = {id(fn): wrapper for fn, wrapper in self._targets()}
        namespaces = [vars(m) for n, m in sys.modules.items() if n.split(".")[0] == "wallnorm"]
        namespaces += [v for ns in list(namespaces) for v in ns.values() if type(v) is dict]
        for ns in namespaces:
            for key, value in list(ns.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((ns, key, value))
                    ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            ns[key] = original
        self._patches.clear()

    def _wrap(self, key, fn, hook):
        stack, calls, self_s, counters = self._stack, self.calls, self.self_s, self.counters
        clock = self.clock

        def span(call):
            stack.append(0.0)
            start = clock()
            try:
                return call()
            finally:
                took = clock() - start
                self_s[key] += took - stack.pop()
                if stack:
                    stack[-1] += took

        def iterate(items, args, kwargs):
            """Re-yield a returned generator, one span and one hook call per item."""
            while True:
                try:
                    item = span(lambda: next(items))
                except StopIteration:
                    return
                if hook:
                    hook(counters, args, kwargs, item)
                yield item

        def wrapper(*args, **kwargs):
            calls[key] += 1
            result = span(lambda: fn(*args, **kwargs))
            if inspect.isgenerator(result):
                return iterate(result, args, kwargs)
            if hook:
                hook(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _observer(self, fn, hook):
        counters = self.counters

        def observer(*args, **kwargs):
            hook(counters, args, kwargs, None)
            return fn(*args, **kwargs)

        return observer

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters)}

    def merge(self, snap: dict) -> None:
        self.calls.update(snap["calls"])
        self.self_s.update(snap["self_s"])
        for key, value in snap["counters"].items():
            if key in PEAK_METRICS:
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value


def time_metric(key: str) -> str:
    """The self-time metric that the wrapped function ``module.name`` counts toward."""
    named = [m for m, patterns in TIME_METRICS.items() if key in patterns]
    wildcard = f"{key.split('.')[0]}.*"
    return named[0] if named else next(
        m for m, patterns in TIME_METRICS.items() if wildcard in patterns)


def layer_metrics(snap: dict, passes: int, setup: dict | None = None) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one pass.

    ``snap`` holds the traced passes, ``setup`` the traced set-up if the
    workload has one; sums are divided by the number of traced passes.
    """
    def value(part, key):
        total = snap[part].get(key, 0)
        if key not in PEAK_METRICS:
            total /= passes
        if setup is not None:
            other = setup[part].get(key, 0)
            total = max(total, other) if key in PEAK_METRICS else total + other
        return total

    out: dict[str, float] = {metric: 0.0 for metric in TIME_METRICS}
    for key in set(snap["self_s"]) | set((setup or {}).get("self_s", {})):
        out[time_metric(key)] += value("self_s", key)
    for metric, keys in CALL_METRICS.items():
        out[metric] = sum(value("calls", k) for k in keys)
    for metric in WORK_METRICS + PEAK_METRICS:
        out[metric] = value("counters", metric)
    return out
