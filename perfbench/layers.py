"""Per-layer metrics from the spans a traced round wrote.

A span is ``[id, parent, name, start, end, value, thread, extra]``; ``parent``
is 0 for a span no other traced layer encloses.  A layer's self time is its
span's duration minus the time its child spans cover.  Durations are summed
over every process of the round.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "experiments.import_s": "s",
    "process.cpu_s": "s",
    "process.cpu_per_wall": "ratio",
    "cluster.spawn_s": "s",
    "cluster.lease_ops": "count",
    "cluster.lease_s": "s",
    "cluster.worker_idle_s": "s",
    "store.record_puts": "count",
    "store.put_s": "s",
    "store.checkpoint_writes": "count",
    "store.checkpoint_bytes": "bytes",
    "store.checkpoint_s": "s",
    "experiments.steps": "count",
    "experiments.loop_self_s": "s",
    "optim.ask_s": "s",
    "optim.tell_s": "s",
    "rl.ask_s": "s",
    "rl.tell_s": "s",
    "rl.updates": "count",
    "env.fom_s": "s",
    "eval.batches": "count",
    "eval.designs_per_batch": "ratio",
    "eval.evaluate_s": "s",
    "eval.cache_hits": "count",
    "eval.scalar_fallbacks": "count",
    "circuits.build_s": "s",
    "circuits.metrics_s": "s",
    "spice.dc_s": "s",
    "spice.ac_s": "s",
    "spice.noise_s": "s",
    "spice.transient_s": "s",
    "spice.newton_iterations": "count",
    "spice.batch.template_s": "s",
    "spice.batch.dc_s": "s",
    "spice.batch.ac_s": "s",
    "spice.batch.noise_s": "s",
    "spice.batch.newton_iterations": "count",
    "spice.batch.designs_per_solve": "ratio",
    "resilience.evaluate_s": "s",
    "resilience.retries": "count",
    "service.queue_wait_s": "s",
    "service.codec_s": "s",
    "service.batches": "count",
    "service.coalescing_factor": "ratio",
    "service.peek_hits": "count",
    "service.inflight_hits": "count",
    "untraced_s": "s",
    "tracing_overhead_s": "s",
}

#: Self-time metrics: metric -> span names whose self time it sums.
SELF_TIME = {
    "spice.dc_s": ("spice.dc",),
    "spice.ac_s": ("spice.ac",),
    "spice.noise_s": ("spice.noise",),
    "spice.transient_s": ("spice.transient",),
    "spice.batch.template_s": ("spice.batch.template",),
    "spice.batch.dc_s": ("spice.batch.dc",),
    "spice.batch.ac_s": ("spice.batch.ac",),
    "spice.batch.noise_s": ("spice.batch.noise",),
    "circuits.build_s": ("circuits.build",),
    # The measurement stage: what circuit evaluation spends outside the
    # netlist build and the SPICE analyses.
    "circuits.metrics_s": ("circuits.evaluate", "circuits.metrics"),
    "env.fom_s": ("env.fom",),
    "experiments.loop_self_s": ("experiments.loop",),
}

#: Inclusive-time metrics: metric -> span names whose outermost spans it sums.
INCLUSIVE_TIME = {
    "eval.evaluate_s": ("eval.evaluate",),
    "resilience.evaluate_s": ("resilience.evaluate",),
    "optim.ask_s": ("optim.ask",),
    "optim.tell_s": ("optim.tell",),
    "rl.ask_s": ("rl.ask",),
    "rl.tell_s": ("rl.tell",),
    "store.put_s": ("store.put",),
    "store.checkpoint_s": ("store.checkpoint",),
    "cluster.lease_s": ("cluster.lease",),
    "service.codec_s": ("service.codec",),
}

#: Spans that only frame other work; they never count as covered time.
CONTAINERS = ("experiments.run", "cluster.worker")


def load_traces(directory: str) -> List[Dict]:
    traces = []
    for path in sorted(glob.glob(os.path.join(directory, "trace-*.json"))):
        with open(path, encoding="utf-8") as handle:
            traces.append(json.load(handle))
    return traces


def self_times(spans: Sequence[Sequence]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    covered: Dict[int, float] = {}
    for span in spans:
        parent = span[1]
        if parent:
            covered[parent] = covered.get(parent, 0.0) + (span[4] - span[3])
    return {span[0]: (span[4] - span[3]) - covered.get(span[0], 0.0) for span in spans}


def outermost(spans: Sequence[Sequence], names: Iterable[str]) -> List[Sequence]:
    """Spans named in ``names`` that no span of those names encloses."""
    names = set(names)
    by_id = {span[0]: span for span in spans}
    result = []
    for span in spans:
        if span[2] not in names:
            continue
        parent = by_id.get(span[1])
        while parent is not None and parent[2] not in names:
            parent = by_id.get(parent[1])
        if parent is None:
            result.append(span)
    return result


def union_length(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted((max(a, low), min(b, high)) for a, b in intervals if b > low and a < high)
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def queue_wait(spans: Sequence[Sequence]) -> Tuple[float, int]:
    """Summed request time outside the simulator batch each request rode in.

    A served request is one ``service.submit`` span; its batch is the last
    ``resilience.evaluate`` span that ran wholly inside it (none for designs
    answered from the cache or by another waiter's batch).
    """
    batches = sorted((s[3], s[4]) for s in spans if s[2] == "resilience.evaluate")
    total, count = 0.0, 0
    for span in spans:
        if span[2] != "service.submit":
            continue
        inside = [end - start for start, end in batches if start >= span[3] and end <= span[4]]
        total += (span[4] - span[3]) - (inside[-1] if inside else 0.0)
        count += 1
    return total, count


def layer_metrics(
    traces: Sequence[Mapping],
    window: Tuple[float, float],
    extra: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Every per-layer metric of one traced round (0 where a layer did not run).

    ``window`` is the round's (start of work, last operation answered);
    ``extra`` carries the values the workload measured itself (CPU, import
    time, counts from records or ``/stats``).
    """
    metrics = {name: 0.0 for name in LAYER_METRICS}
    spans = [span for trace in traces for span in trace["spans"]]
    # Span ids are unique within one process only.
    for trace in traces:
        own = self_times(trace["spans"])
        for metric, names in SELF_TIME.items():
            metrics[metric] += sum(own[s[0]] for s in trace["spans"] if s[2] in names)
        for metric, names in INCLUSIVE_TIME.items():
            metrics[metric] += sum(s[4] - s[3] for s in outermost(trace["spans"], names))

    for span in spans:
        name, value = span[2], span[5]
        if name == "cluster.lease":
            metrics["cluster.lease_ops"] += 1
        elif name == "store.put":
            metrics["store.record_puts"] += 1
        elif name == "store.checkpoint_put":
            metrics["store.checkpoint_writes"] += 1
            metrics["store.checkpoint_bytes"] += value
        elif name == "spice.dc":
            metrics["spice.newton_iterations"] += value
        elif name == "spice.batch.dc":
            metrics["spice.batch.newton_iterations"] += value
        elif name == "rl.update":
            metrics["rl.updates"] += 1
    solves = [s[7] for s in spans if s[2] == "spice.batch.dc" and s[7]]
    if solves:
        metrics["spice.batch.designs_per_solve"] = sum(solves) / len(solves)

    counts = {"num_batches": 0, "num_designs": 0, "cache_hits": 0, "scalar_fallbacks": 0}
    for trace in traces:
        for key in counts:
            counts[key] += trace.get("evaluators", {}).get(key, 0)
    metrics["eval.batches"] = counts["num_batches"]
    metrics["eval.cache_hits"] = counts["cache_hits"]
    metrics["eval.scalar_fallbacks"] = counts["scalar_fallbacks"]
    if counts["num_batches"]:
        metrics["eval.designs_per_batch"] = counts["num_designs"] / counts["num_batches"]

    # Cluster: each worker's first lease, and its loop time outside cells.
    for trace in traces:
        worker_spans = [s for s in trace["spans"] if s[2] == "cluster.worker"]
        cells = [s for s in trace["spans"] if s[2] == "experiments.run"]
        for worker in worker_spans:
            busy = sum(c[4] - c[3] for c in cells if c[3] >= worker[3] and c[4] <= worker[4])
            metrics["cluster.worker_idle_s"] += (worker[4] - worker[3]) - busy

    wait_total, submits = queue_wait(spans)
    if submits:
        metrics["service.queue_wait_s"] = wait_total / submits

    top = [(s[3], s[4]) for s in spans if s[1] == 0 and s[2] not in CONTAINERS]
    metrics["untraced_s"] = (window[1] - window[0]) - union_length(top, *window)

    for key, value in (extra or {}).items():
        metrics[key] = value
    return metrics


def first_claims(traces: Sequence[Mapping]) -> List[float]:
    """End time of each process's first successful lease claim."""
    firsts = []
    for trace in traces:
        claims = [s[4] for s in trace["spans"] if s[2] == "cluster.lease" and s[5]]
        if claims:
            firsts.append(min(claims))
    return firsts
