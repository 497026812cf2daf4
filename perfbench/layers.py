"""Per-layer timing for the traced run, installed from outside the program.

:class:`LayerTracer` wraps the public calls into each module — nothing under
``src/`` is edited — and accumulates through :mod:`repro.obs.metrics`, so
time spent inside fork-pool workers comes back through ``parallel_map``'s
counter-delta shipping.  Each wrapper records ``<name>.s`` (inclusive),
``<name>.self_s`` (minus the time of wrappers nested inside it, from a
per-thread stack of open wrappers) and ``<name>.calls``.

:func:`layer_metrics` turns one run's counter delta into the named
per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

from repro.obs import metrics

#: ``(metric name, unit, counter it reads)``; a counter missing from the
#: delta reads 0.  Derived ratios are added by :func:`layer_metrics`.
COUNTER_METRICS = [
    ("experiments.iter_method_events.s", "s", "experiments.iter_method_events.s"),
    ("attacks.attack_many.s", "s", "attacks.attack_many.s"),
    ("attacks.attack_many.calls", "count", "attacks.attack_many.calls"),
    ("attacks.victims", "count", "attacks.victims"),
    *[
        (f"attacks.{slug}.s", "s", f"attacks.{slug}.s")
        for slug in (
            "fga", "fga_t", "rna", "nettack", "ig_attack", "fga_te", "geattack"
        )
    ],
    *[
        (f"defense.{name}.{call}.s", "s", f"defense.{name}.{call}.s")
        for name in ("none", "jaccard", "svd", "explainer")
        for call in ("predict", "flag")
    ],
    ("defense.explainer.predict.calls", "count",
     "defense.explainer.predict.calls"),
    ("explain.gnn_explainer.s", "s", "explain.gnn_explainer.s"),
    ("explain.gnn_explainer.self_s", "s", "explain.gnn_explainer.self_s"),
    ("explain.gnn_explainer.calls", "count", "explain.gnn_explainer.calls"),
    ("autodiff.grad.s", "s", "autodiff.grad.s"),
    ("autodiff.grad.calls", "count", "autodiff.grad.calls"),
    ("autodiff.tensors", "count", "autodiff.tensors"),
    ("arena.store.get.s", "s", "arena.store.get.s"),
    ("arena.store.get.calls", "count", "arena.store.get.calls"),
    ("arena.store.put.s", "s", "arena.store.put.s"),
    ("arena.store.put.calls", "count", "arena.store.put.calls"),
    ("arena.store.read_hits", "count", "store.read_hits"),
    ("arena.store.read_misses", "count", "store.read_misses"),
    ("arena.store.fsyncs", "count", "store.fsyncs"),
    ("arena.store.bulk_flushes", "count", "store.bulk_flushes"),
    ("arena.lease.acquired", "count", "lease.acquired"),
    ("arena.lease.busy", "count", "lease.busy"),
    ("arena.cells_deferred", "count", "arena.cells_deferred"),
    ("graph.cache_hits", "count", "graph_cache.hits"),
    ("graph.cache_misses", "count", "graph_cache.misses"),
    ("parallel.map.s", "s", "parallel.map.s"),
    ("parallel.items", "count", "parallel.items"),
    ("service.submit.s", "s", "service.submit.s"),
    ("service.events", "count", "service.events"),
]

#: Metrics of set-up rather than of one run.
SETUP_METRICS = [
    ("experiments.prepare_case.s", "s", "experiments.prepare_case.s"),
    ("experiments.prepare_case.calls", "count", "experiments.prepare_case.calls"),
]


def attack_slug(name):
    """``"FGA-T&E"`` -> ``"fga_te"``: an attack's metric-name component."""
    return name.lower().replace("&", "").replace("-", "_")


def layer_metrics(delta):
    """Named per-layer values from one run's counter delta."""
    values = {
        name: (delta.get(counter, 0), unit)
        for name, unit, counter in COUNTER_METRICS
    }
    hits = delta.get("graph_cache.hits", 0)
    lookups = hits + delta.get("graph_cache.misses", 0)
    values["graph.cache_hit_ratio"] = (
        hits / lookups if lookups else 0.0, "ratio"
    )
    return values


class LayerTracer:
    """Installs and removes timing wrappers around the layer entry points."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    # -- accounting ----------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self):
        frame = [0.0]
        self._stack().append(frame)
        return frame, time.perf_counter()

    def _exit(self, name, frame, start, calls=1):
        elapsed = time.perf_counter() - start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        with self._lock:
            metrics.add(f"{name}.s", elapsed)
            metrics.add(f"{name}.self_s", elapsed - frame[0])
            if calls:
                metrics.incr(f"{name}.calls", calls)

    def count(self, name):
        with self._lock:
            metrics.incr(name)

    # -- wrappers ------------------------------------------------------------
    def timed(self, fn, name):
        """Wrap ``fn``; ``name`` may be a callable of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            frame, start = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(label, frame, start)

        return wrapper

    def timed_generator(self, fn, name, per_item=None):
        """Wrap a generator function: time is the time spent inside it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            generator = fn(*args, **kwargs)
            calls = 1
            while True:
                frame, start = tracer._enter()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    tracer._exit(name, frame, start, calls)
                    calls = 0
                if per_item is not None:
                    tracer.count(per_item)
                yield item

        return wrapper

    def counted(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------
    def _patch_attr(self, owner, attr, replacement):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, fn, replacement):
        """Rebind ``fn`` in every loaded module that imported it by name."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._patch_attr(module, attr, replacement)

    def install(self):
        """Wrap every layer entry point named in ``BENCHMARK.json``."""
        import repro.api.session as session_module
        import repro.experiments.pipeline as pipeline
        import repro.parallel as parallel
        from repro.arena.store import ResultStore
        from repro.attacks.base import Attack
        from repro.autodiff import tensor as tensor_module
        from repro.defense import DEFENSES
        from repro.explain.gnn_explainer import GNNExplainer
        from repro.service.client import ServiceClient

        self._patch_function(
            pipeline.prepare_case,
            self.timed(pipeline.prepare_case, "experiments.prepare_case"),
        )
        self._patch_function(
            session_module.iter_method_events,
            self.timed_generator(
                session_module.iter_method_events,
                "experiments.iter_method_events",
            ),
        )
        self._patch_function(
            parallel.parallel_map,
            self.timed(parallel.parallel_map, "parallel.map"),
        )
        self._patch_function(
            tensor_module.grad, self.timed(tensor_module.grad, "autodiff.grad")
        )
        self._patch_attr(
            tensor_module.Tensor,
            "__init__",
            self.counted(tensor_module.Tensor.__init__, "autodiff.tensors"),
        )

        self._patch_attr(
            Attack,
            "attack_many",
            self.timed(Attack.attack_many, "attacks.attack_many"),
        )

        def attack_label(attack, *args, **kwargs):
            self.count("attacks.victims")
            return f"attacks.{attack_slug(attack.name)}"

        self._patch_attr(
            Attack, "attack_one", self.timed(Attack.attack_one, attack_label)
        )
        for defense_name, defense_class in DEFENSES.items():
            for call in ("predict", "flag"):
                self._patch_attr(
                    defense_class,
                    call,
                    self.timed(
                        getattr(defense_class, call),
                        f"defense.{defense_name}.{call}",
                    ),
                )
        self._patch_attr(
            GNNExplainer,
            "explain_node",
            self.timed(GNNExplainer.explain_node, "explain.gnn_explainer"),
        )
        self._patch_attr(
            ResultStore, "get", self.timed(ResultStore.get, "arena.store.get")
        )
        self._patch_attr(
            ResultStore, "put", self.timed(ResultStore.put, "arena.store.put")
        )
        self._patch_attr(
            ServiceClient,
            "submit",
            self.timed(ServiceClient.submit, "service.submit"),
        )
        self._patch_attr(
            ServiceClient,
            "events",
            self.timed_generator(
                ServiceClient.events, "service.stream", per_item="service.events"
            ),
        )

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
