"""Spans and work counters around survscreen's functions, installed from outside.

A traced function is named ``layer:qualname``; the layer is the survscreen
module that defines it.  Installing rebinds every attribute of every loaded
survscreen module that holds the function (the module-level names each
caller looks up at call time, e.g. ``survscreen.stabilized.fit_censoring_km``)
to a timing wrapper; methods are replaced on their class.  Nothing in the
package is edited, and ``uninstall`` restores every original binding.

A name that no longer exists is recorded in ``absent`` and skipped, so the
tracer keeps working when a later version deletes or renames a function.
Counters computed from call arguments are disabled (and reported absent) in
the same way when the arguments they read are gone.

Spans nest: each call knows its parent span, and a span's self time is its
duration minus the time covered by its child spans.
"""

import functools
import importlib
import inspect
import os
import sys
import time
import weakref

PACKAGE = "survscreen"
LAYERS = ("dataset", "censoring", "stabilized", "onestep", "residual_life", "simulate", "cli")
ROOT = "bench:op"

TARGETS = (
    "dataset:read_csv",
    "dataset:ingest",
    "censoring:fit_censoring_km",
    "censoring:survival_at",
    "censoring:_weighted_response",
    "stabilized:multi_ordering_test",
    "stabilized:stabilized_estimate",
    "stabilized:_select_from_prefix",
    "stabilized:FullSampleCache.__init__",
    "stabilized:FullSampleCache.entry",
    "onestep:bonferroni_test",
    "onestep:one_step",
    "onestep:make_bundle",
    "onestep:influence_values",
    "onestep:martingale_values",
    "residual_life:fit_residual_life_arrays",
    "simulate:monte_carlo_rejection",
    "simulate:_run_replicate",
    "simulate:generate_scenario",
    "simulate:calibrate_censoring_rate",
    "cli:main",
    "cli:cmd_screen",
)

# per-call durations are kept only where a distribution is reported
SAMPLED = ("stabilized:_select_from_prefix",)


class Stat:
    __slots__ = ("calls", "total", "self", "samples")

    def __init__(self, sampled):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.samples = [] if sampled else None


def _resolve(target):
    """(owner, attribute, function) for ``layer:qualname``; raises if gone."""
    layer, qualname = target.split(":")
    owner = importlib.import_module(f"{PACKAGE}.{layer}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class _ArgReader:
    """Reads named arguments of calls to ``fn`` by its current signature."""

    def __init__(self, fn):
        self.names = list(inspect.signature(fn).parameters)

    def __call__(self, args, kwargs, name):
        if name in kwargs:
            return kwargs[name]
        return args[self.names.index(name)]


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats = {t: Stat(t in SAMPLED) for t in targets}
        self.stats[ROOT] = Stat(False)
        self.edges = {}
        self.counters = {"csv_bytes": 0, "select_bytes": 0, "cache_distinct_k": 0}
        self.absent = []
        self._stack = [[None, 0.0]]
        self._bindings = []
        self._cache_keys = weakref.WeakKeyDictionary()

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for target in self.targets:
            try:
                owner, attr, fn = _resolve(target)
            except (ImportError, AttributeError):
                if target not in self.absent:
                    self.absent.append(target)
                continue
            wrapper = self._wrap(target, fn, self._hook(target, fn))
            if inspect.isclass(owner):
                self._rebind(owner, attr, fn, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, name, fn, wrapper)
        return self

    def _rebind(self, owner, name, fn, wrapper):
        self._bindings.append((owner, name, fn))
        setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, fn in reversed(self._bindings):
            setattr(owner, name, fn)
        self._bindings.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, name, fn, hook):
        stat = self.stats[name]
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self += elapsed - frame[1]
                if stat.samples is not None:
                    stat.samples.append(elapsed)
                key = (parent[0], name)
                edges[key] = edges.get(key, 0) + 1

        return wrapper

    def run(self, op):
        """Call ``op()`` inside the root span."""
        return self._wrap(ROOT, op, None)()

    # -- computed work counters ----------------------------------------------

    def _hook(self, target, fn):
        try:
            read = _ArgReader(fn)
        except (TypeError, ValueError):
            return None
        counters = self.counters

        if target == "dataset:read_csv":
            def count(args, kwargs):
                counters["csv_bytes"] += os.path.getsize(read(args, kwargs, "path"))
            keys = ("csv_bytes",)
        elif target == "stabilized:_select_from_prefix":
            def count(args, kwargs):
                u = read(args, kwargs, "U")
                counters["select_bytes"] += 8 * int(read(args, kwargs, "j")) * u.shape[1]
            keys = ("select_bytes",)
        elif target == "stabilized:FullSampleCache.entry":
            seen = self._cache_keys

            def count(args, kwargs):
                ks = seen.setdefault(read(args, kwargs, "self"), set())
                k = int(read(args, kwargs, "k"))
                if k not in ks:
                    ks.add(k)
                    counters["cache_distinct_k"] += 1
            keys = ("cache_distinct_k",)
        else:
            return None

        state = {"on": True}

        def hook(args, kwargs):
            if not state["on"]:
                return
            try:
                count(args, kwargs)
            except Exception:  # signature changed: drop the counter, keep the span
                state["on"] = False
                for key in keys:
                    counters[key] = None
                    self.absent.append(f"counter:{key}")

        return hook

    # -- export ---------------------------------------------------------------

    def export(self):
        return {
            "stats": {
                name: {"calls": s.calls, "total_s": s.total, "self_s": s.self,
                       "samples_s": s.samples}
                for name, s in self.stats.items()
            },
            "edges": [[parent, child, calls] for (parent, child), calls in sorted(
                self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
            "counters": dict(self.counters),
            "absent": sorted(set(self.absent)),
        }
