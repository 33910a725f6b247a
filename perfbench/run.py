"""Benchmark entry point: one workload, measured end to end or layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gcn_rl --seed 1 --seconds 25 --trace 0

``--trace 0`` runs untraced rounds and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and prints the per-layer
metrics, the untraced time and the tracing overhead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the host context.
The exit code is 0 only when every operation passed its checks.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
import time
from pathlib import Path

from layers import LAYER_METRICS
from measure import Tally, emit, host_context, latency_summary, median, steal_ticks, warn
from procs import ChildFailed
from workloads import WORKLOADS, Context, cold_import_s

#: A run never starts a round after this many seconds (runs end within 180 s).
LAST_ROUND_START_S = 110.0
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "designs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "best_fom_mean": "fom",
    "latency_p50_ms": "ms",
}


def latency_samples(rounds, pooled):
    """A run's latency samples.

    Pooled: every operation of every round.  Otherwise each operation's
    median over the run's rounds, which repeat the same operations, so the
    percentiles of a few hundred operations do not move with the number of
    rounds that fitted.
    """
    if pooled:
        return [x for r in rounds for x in r.latencies_ms]
    return [median(op) for op in zip(*(r.latencies_ms for r in rounds))]


def end_to_end(rounds, pooled):
    latency = latency_summary(latency_samples(rounds, pooled))
    values = {
        "setup_s": median([r.setup_s for r in rounds]),
        "wall_s": median([r.wall_s for r in rounds]),
        "designs_per_s": median([r.designs / r.wall_s for r in rounds]),
        "peak_rss_mb": median([r.peak_rss_mb for r in rounds]),
        "best_fom_mean": statistics.fmean([f for r in rounds for f in r.foms]),
        "latency_p50_ms": latency["p50"],
    }
    return values, latency


def per_layer(plain, traced, imports):
    values = {
        name: median([r.layers[name] for r in traced]) for name in LAYER_METRICS
    }
    values["experiments.import_s"] = median(imports)
    values["process.cpu_s"] = median([r.cpu_s for r in plain])
    values["process.cpu_per_wall"] = median([r.cpu_s / (r.setup_s + r.wall_s) for r in plain])
    values["tracing_overhead_s"] = median([r.wall_s for r in traced]) - median(
        [r.wall_s for r in plain]
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        warn(f"no program source at {root / 'src' / 'repro'}; run from the repository root")
        return 2
    sys.path.insert(0, str(root / "src"))

    begin = time.perf_counter()
    context = host_context()
    steal_start = steal_ticks()
    scratch = root / ".perfbench_tmp" / f"run-{args.workload}-{args.seed}-{int(begin * 1e6)}"
    ctx = Context(root, scratch, begin + RUN_LIMIT_S)
    workload = WORKLOADS[args.workload](args.seed)
    plain, traced, imports = [], [], []
    try:
        start = time.perf_counter()
        while True:
            trace_dir = ctx.fresh_dir("trace") if args.trace and len(plain) > len(traced) else None
            result = workload.round(ctx, trace_dir)
            if trace_dir is None:
                plain.append(result)
            else:
                traced.append(result)
                imports.append(cold_import_s(ctx))
            wanted = 1 if args.trace else workload.min_rounds
            enough = len(plain) >= wanted and (not args.trace or traced)
            now = time.perf_counter()
            # Start another round only if it would end less than half a
            # round past --seconds, so a run lasts about --seconds.
            half_round = (now - start) / (len(plain) + len(traced)) / 2
            if enough and (now - start + half_round >= args.seconds
                           or now - begin >= LAST_ROUND_START_S):
                break
        finish = getattr(workload, "finish", None)
        if finish is not None:
            finish(plain + traced)
    except ChildFailed as error:
        warn(f"{args.workload} failed: {error}")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run is using it, or it was never made

    tally = Tally()
    for result in plain + traced:
        for problems in result.operations:
            tally.operation(problems)
    for problem in tally.problems[:20]:
        warn(problem)

    if args.trace:
        values = per_layer(plain, traced, imports)
        units = LAYER_METRICS
        latency = None
    else:
        values, latency = end_to_end(plain, workload.pool_latencies)
        units = END_TO_END_UNITS
    steal_end = steal_ticks()
    context.update(
        workload=args.workload,
        seed=args.seed,
        inputs=workload.describe(),
        rounds={
            "untraced": [[round(r.setup_s, 4), round(r.wall_s, 4)] for r in plain],
            "traced": [[round(r.setup_s, 4), round(r.wall_s, 4)] for r in traced],
        },
        steal_ticks=None if steal_start is None else steal_end - steal_start,
        latency=None if latency is None else {
            key: latency[key] for key in ("p99", "samples", "beyond_p99", "p99_resolved")
        },
    )
    emit({"context": context})
    emit(
        {
            "correct": tally.correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": values[name], "unit": unit} for name, unit in units.items()
            },
        }
    )
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
