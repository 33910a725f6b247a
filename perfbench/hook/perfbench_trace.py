"""Layer tracing for the benchmark's traced runs, installed from outside the program.

Every public entry point named in :data:`TARGETS` is replaced by a wrapper
that records a span (name, start, end, parent span, thread) around the call.
Spans stay in memory and are written as one JSON file per process at exit,
into the directory named by ``PERFBENCH_TRACE_DIR``.

The wrappers arrive in two ways:

* :func:`install` patches modules that are already imported and registers an
  import hook that patches target modules the moment they finish executing,
  before any other module binds their names with ``from ... import``;
* ``sitecustomize.py`` next to this file calls :func:`install_from_env` at
  interpreter start-up, so processes the program spawns itself (``serve``,
  the sweep parent and its workers) are traced too.  Only the traced run
  puts this directory on ``PYTHONPATH``.

Timestamps come from ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux),
which every process on the host shares, so spans of different processes
line up on one time axis.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import inspect
import json
import os
import sys
import threading
import time

#: module -> list of (class name or None for a module function, attribute
#: names, span name, kind).  A class name of ``"*"`` wraps the attribute on
#: every class defined in the module.  Kinds:
#:   ``span``       an ordinary nested span;
#:   ``container``  recorded, but its callees stay top-level spans, so time
#:                  inside it that no layer claims still counts as untraced;
#:   ``async``      a coroutine function, recorded without a parent.
TARGETS = {
    "repro.spice.dc": [(None, ("dc_operating_point",), "spice.dc", "span")],
    "repro.spice.ac": [(None, ("ac_analysis",), "spice.ac", "span")],
    "repro.spice.noise": [(None, ("noise_analysis",), "spice.noise", "span")],
    "repro.spice.transient": [
        (None, ("transient_analysis",), "spice.transient", "span")
    ],
    "repro.spice.batch.template": [
        ("BatchTemplate", ("__init__", "subset"), "spice.batch.template", "span")
    ],
    "repro.spice.batch.dc": [
        (None, ("batch_dc_operating_point",), "spice.batch.dc", "span")
    ],
    "repro.spice.batch.ac": [(None, ("batch_ac_analysis",), "spice.batch.ac", "span")],
    "repro.spice.batch.noise": [
        (None, ("batch_noise_analysis",), "spice.batch.noise", "span")
    ],
    "repro.eval.base": [
        ("Evaluator", ("evaluate_requests",), "eval.evaluate", "span"),
        ("BoundEvaluator", ("evaluate_requests",), "eval.evaluate", "span"),
    ],
    "repro.eval.caching": [
        ("CachingEvaluator", ("evaluate_requests",), "eval.evaluate", "span")
    ],
    "repro.eval.config": [("EvaluatorConfig", ("build",), "eval.build", "span")],
    "repro.resilience.resilient": [
        ("ResilientEvaluator", ("evaluate_outcomes",), "resilience.evaluate", "span")
    ],
    "repro.env.fom": [("FoMConfig", ("compute",), "env.fom", "span")],
    "repro.env.environment": [
        (
            "SizingEnvironment",
            ("evaluate_sizings", "step_batch", "evaluate_normalized_batch"),
            "env.step",
            "span",
        )
    ],
    "repro.experiments.driver": [
        ("OptimizationDriver", ("run",), "experiments.loop", "span"),
        ("OptimizationDriver", ("save_checkpoint",), "store.checkpoint", "span"),
    ],
    "repro.experiments.runner": [
        (None, ("run_method",), "experiments.run", "container")
    ],
    "repro.optim.random_search": [("*", ("ask",), "optim.ask", "span"), ("*", ("tell",), "optim.tell", "span")],
    "repro.optim.evolution": [("*", ("ask",), "optim.ask", "span"), ("*", ("tell",), "optim.tell", "span")],
    "repro.optim.bayesian": [("*", ("ask",), "optim.ask", "span"), ("*", ("tell",), "optim.tell", "span")],
    "repro.optim.mace": [("*", ("ask",), "optim.ask", "span"), ("*", ("tell",), "optim.tell", "span")],
    "repro.rl.strategy": [
        ("GCNRLStrategy", ("ask",), "rl.ask", "span"),
        ("GCNRLStrategy", ("tell",), "rl.tell", "span"),
    ],
    # The agent's one network update (critic, then actor); private, but the
    # only place an update can be counted as it happens.
    "repro.rl.agent": [("GCNRLAgent", ("_update_networks",), "rl.update", "span")],
    "repro.store.memory": [("*", ("put",), "store.put", "span"), ("*", ("put_checkpoint",), "store.checkpoint_put", "span")],
    "repro.store.jsonl": [("*", ("put",), "store.put", "span"), ("*", ("put_checkpoint",), "store.checkpoint_put", "span")],
    "repro.store.sqlite": [("*", ("put",), "store.put", "span"), ("*", ("put_checkpoint",), "store.checkpoint_put", "span")],
    "repro.cluster.leases": [
        ("*", ("claim", "renew", "release"), "cluster.lease", "span")
    ],
    "repro.cluster.worker": [("CampaignWorker", ("run",), "cluster.worker", "container")],
    "repro.service.protocol": [
        (None, ("encode_frame", "decode_frame"), "service.codec", "span")
    ],
    "repro.service.coalescer": [("BatchCoalescer", ("submit",), "service.submit", "async")],
}

# The circuit modules: build, evaluate and the shared measurement stage of
# every topology class they define.
for _name in ("two_tia", "three_tia", "two_volt", "ldo"):
    TARGETS[f"repro.circuits.{_name}"] = [
        ("*", ("build_circuit",), "circuits.build", "span"),
        ("*", ("evaluate",), "circuits.evaluate", "span"),
        ("*", ("metrics_from_solutions",), "circuits.metrics", "span"),
    ]


def _value_of(span_name, args, result):
    """The count a span carries, read from what the call returned or took."""
    if span_name == "spice.dc":
        return getattr(result, "iterations", 0)
    if span_name == "spice.batch.dc":
        return sum(getattr(op, "iterations", 0) for op in result or ())
    if span_name == "store.checkpoint_put":
        return len(args[2]) if len(args) > 2 else 0
    if span_name == "cluster.lease":
        return 1 if result else 0
    return 0


class Tracer:
    """In-memory span recorder of one process."""

    def __init__(self):
        self.spans = []  # [id, parent, name, t0, t1, value, thread, extra]
        self.evaluators = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self):
        with self._lock:
            self._next_id += 1
            return self._next_id

    def wrap(self, function, span_name, kind):
        tracer = self

        if kind == "async":

            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                span_id = tracer._new_id()
                start = time.perf_counter()
                try:
                    return await function(*args, **kwargs)
                finally:
                    tracer.spans.append(
                        [span_id, 0, span_name, start, time.perf_counter(), 0,
                         threading.get_ident(), None]
                    )

            traced_async.__perfbench_wrapped__ = True
            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = tracer._new_id()
            parent = stack[-1] if stack else 0
            if kind == "span":
                stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                if kind == "span":
                    stack.pop()
                extra = None
                if span_name == "spice.batch.dc" and args:
                    extra = len(args[0])
                elif span_name == "eval.build" and result is not None:
                    tracer.evaluators.append(result)
                tracer.spans.append(
                    [span_id, parent, span_name, start, end,
                     _value_of(span_name, args, result),
                     threading.get_ident(), extra]
                )

        traced.__perfbench_wrapped__ = True
        return traced

    def evaluator_counts(self):
        """Summed counters of every evaluator the program built."""
        totals = {"num_batches": 0, "num_designs": 0, "cache_hits": 0, "scalar_fallbacks": 0}
        for evaluator in self.evaluators:
            stats = evaluator.stats.to_dict()
            for key in totals:
                totals[key] += stats.get(key, 0)
        return totals

    def dump(self, directory):
        payload = {
            "pid": os.getpid(),
            "argv": sys.argv,
            "spans": self.spans,
            "evaluators": self.evaluator_counts(),
        }
        path = os.path.join(directory, f"trace-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)


TRACER = Tracer()


def _patch_module(module):
    """Replace every target attribute of ``module`` by its traced wrapper."""
    replaced = []
    for class_name, attributes, span_name, kind in TARGETS.get(module.__name__, ()):
        if class_name is None:
            owners = [module]
        elif class_name == "*":
            owners = [
                value
                for value in vars(module).values()
                if inspect.isclass(value) and value.__module__ == module.__name__
            ]
        else:
            owners = [getattr(module, class_name)]
        for owner in owners:
            for attribute in attributes:
                original = vars(owner).get(attribute)
                if original is None or getattr(original, "__perfbench_wrapped__", False):
                    continue
                if isinstance(original, (staticmethod, classmethod)):
                    continue
                wrapped = TRACER.wrap(original, span_name, kind)
                setattr(owner, attribute, wrapped)
                if owner is module:
                    replaced.append((original, wrapped))
    return replaced


def _rebind(replaced):
    """Point names other loaded modules imported with ``from`` at the wrappers."""
    if not replaced:
        return
    lookup = {id(original): wrapped for original, wrapped in replaced}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            wrapped = lookup.get(id(value))
            if wrapped is not None:
                setattr(module, attribute, wrapped)


class _PatchingLoader(importlib.abc.Loader):
    def __init__(self, inner):
        self._inner = inner

    def create_module(self, spec):
        return self._inner.create_module(spec)

    def exec_module(self, module):
        self._inner.exec_module(module)
        _patch_module(module)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _PatchingFinder(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name not in TARGETS:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                if spec.loader is not None:
                    spec.loader = _PatchingLoader(spec.loader)
                return spec
        return None


_INSTALLED = False


def install(directory):
    """Trace this process from now on; write its spans to ``directory`` at exit."""
    global _INSTALLED
    if _INSTALLED:
        return
    _INSTALLED = True
    sys.meta_path.insert(0, _PatchingFinder())
    for name in TARGETS:
        module = sys.modules.get(name)
        if module is not None:
            _rebind(_patch_module(module))
    atexit.register(TRACER.dump, directory)


def install_from_env():
    directory = os.environ.get("PERFBENCH_TRACE_DIR")
    if directory:
        install(directory)
