"""Run every workload k times and report each metric's median, quartiles and spread.

Usage (from the repository root)::

    python3 perfbench/repeat.py --runs 10 [--sets 2] [--first-seed 1]

Each set runs every workload of ``BENCHMARK.json`` ``--runs`` times, untraced
and for its ``run_seconds``, with a fresh seed per run, rotating the workload
order from one run to the next.  For each end-to-end
metric it prints the median, the quartiles and the spread
``(q3 - q1) / median`` against the metric's bound in ``BENCHMARK.json``.
With ``--sets 2`` it also shows whether the second set's median is worse
than the first's by more than the bound, and whether the share of failed
operations is the same in both sets.  Exits non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from measure import quartile_spread, worse_by

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float):
    """One run's result, or None (after printing its stderr) if it crashed."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr[-4000:])
        print(f"  {workload} seed={seed} exited with {completed.returncode}", flush=True)
    if not lines or not lines[-1].startswith('{"attempted"'):
        return None
    return json.loads(lines[-1])


def run_set(workloads, runs, first_seed, seconds):
    results = {name: [] for name in workloads}
    crashed = 0
    for index in range(runs):
        shift = index % len(workloads)
        for name in workloads[shift:] + workloads[:shift]:
            seed = first_seed + index
            result = run_once(name, seed, seconds)
            if result is None:
                crashed += 1
                continue
            results[name].append(result)
            values = " ".join(
                f"{metric}={entry['value']:.4g}" for metric, entry in result["metrics"].items()
            )
            print(f"  {name} seed={seed} attempted={result['attempted']} "
                  f"failed={result['failed']} {values}", flush=True)
    return results, crashed


def summarize(results, bounds):
    """Print the per-metric table of one set; return {workload: {metric: median}}."""
    ok = True
    medians = {}
    for name, runs in results.items():
        print(f"{name} ({len(runs)} runs)")
        medians[name] = {}
        for metric in runs[0]["metrics"]:
            values = [run["metrics"][metric]["value"] for run in runs]
            stats = quartile_spread(values)
            medians[name][metric] = stats["median"]
            bound = bounds[metric]["bound"]
            good = stats["spread"] <= bound
            ok &= good
            verdict = f"bound {bound:.3f} {'ok' if good else 'TOO WIDE'}"
            verdict += "  (<1/3)" if stats["spread"] < bound / 3 else ""
            print(f"  {metric:32s} median {stats['median']:12.6g}  q1 {stats['q1']:12.6g}"
                  f"  q3 {stats['q3']:12.6g}  spread {stats['spread']:7.4f}  {verdict}")
    return ok, medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    bounds = {m["name"]: m for m in config["end_to_end"]}

    ok = True
    sets = []
    for index in range(args.sets):
        first = args.first_seed + index * args.runs
        print(f"set {index + 1}: seeds {first}..{first + args.runs - 1}", flush=True)
        results, crashed = run_set(workloads, args.runs, first, seconds)
        good, medians = summarize(results, bounds)
        ok &= good and not crashed
        if crashed:
            print(f"{crashed} runs crashed without a result")
        shares = {name: (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for name, runs in results.items()}
        sets.append((medians, shares))

    if len(sets) == 2:
        print("set 2 against set 1")
        (first, first_shares), (second, second_shares) = sets
        for name in workloads:
            for metric, before in first[name].items():
                after = second[name][metric]
                change = worse_by(before, after, bounds[metric]["better"])
                good = change <= bounds[metric]["bound"]
                ok &= good
                verdict = "ok" if good else "WORSE BEYOND BOUND"
                print(f"  {name:7s} {metric:32s} {before:12.6g} -> {after:12.6g}"
                      f"  worse by {change:+.4f}  {verdict}")
            failed_a, attempted_a = first_shares[name]
            failed_b, attempted_b = second_shares[name]
            same = failed_a * attempted_b == failed_b * attempted_a
            ok &= same
            print(f"  {name:7s} failed share {failed_a}/{attempted_a} vs "
                  f"{failed_b}/{attempted_b}: {'same' if same else 'DIFFERENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
