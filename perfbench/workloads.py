"""The three workloads: what one round runs, measures and checks.

A round is one cold start of the program and a fixed amount of work:

* ``gcn_rl`` — one process runs GCN-RL on the paper's four circuits;
* ``sweep`` — a cold two-worker ``sweep`` of the black-box baselines;
* ``serve`` — a fresh ``serve`` process answering a fixed request sequence.

Every round of a run repeats the same inputs, which the ``--seed`` fixes, so a
run measures whole rounds of identical operations.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import shutil
import socket
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import layers
from measure import fom_of, same_number
from procs import Child, ChildFailed

HERE = Path(__file__).resolve().parent
HOOK_DIR = HERE / "hook"

#: Seconds one round may take before it counts as hung.
ROUND_LIMIT_S = 100.0


@dataclass
class Round:
    """What one round measured, and the problems its checks found."""

    setup_s: float
    wall_s: float
    designs: int
    latencies_ms: List[float]
    foms: List[float]
    peak_rss_mb: float
    cpu_s: float
    operations: List[List[str]]
    layers: Optional[Dict[str, float]] = None
    #: ``serve`` only: each request's served metrics, or an error message.
    answers: List = field(default_factory=list)


class Context:
    """Paths, environment and deadlines shared by a run's rounds."""

    def __init__(self, root: Path, scratch: Path, run_deadline: float):
        self.root = root
        self.src = root / "src"
        self.scratch = scratch
        self.run_deadline = run_deadline
        self._counter = 0

    def fresh_dir(self, prefix: str) -> Path:
        self._counter += 1
        path = self.scratch / f"{prefix}-{self._counter}"
        path.mkdir(parents=True)
        return path

    def env(self, trace_dir: Optional[Path]) -> dict:
        """The caller's environment, with the program on the path.

        A traced round also puts the start-up hook on the path and names the
        directory the hook writes spans to; nothing else changes.
        """
        env = dict(os.environ)
        entries = [str(self.src)]
        if trace_dir is not None:
            entries.insert(0, str(HOOK_DIR))
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        if env.get("PYTHONPATH"):
            entries.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(entries)
        return env

    def deadline(self) -> float:
        return min(time.perf_counter() + ROUND_LIMIT_S, self.run_deadline)

    def spawn(self, argv: Sequence[str], trace_dir: Optional[Path]) -> Child:
        stderr = self.fresh_dir("stderr") / "stderr.txt"
        return Child(argv, self.env(trace_dir), str(stderr))


def run_child(child: Child, body):
    """Run ``body(child)``; a failure becomes ``ChildFailed`` with its output tails.

    Besides the child's own exit or timeout, that covers a connection the
    child dropped or answered with garbage (``OSError``, ``ValueError``,
    ``KeyError``), and the load generator's time limit (``TimeoutError``).
    """
    try:
        return body(child)
    except (ChildFailed, OSError, ValueError, KeyError) as error:
        stdout_tail = "\n".join(line for _, line in child.lines[-20:])
        raise ChildFailed(
            f"{' '.join(child.argv[:4])}: {error}\n--- stdout tail ---\n{stdout_tail}"
            f"\n--- stderr tail ---\n{child.stderr_tail()}"
        ) from None
    finally:
        child.kill()


def record_problems(record: Dict, circuit: str, technology: str, budget: int) -> List[str]:
    """Properties every completed run of the method must have."""
    problems = []
    where = f"{record['method']}/{circuit}/{technology}/seed={record['seed']}"
    rewards = record["rewards"]
    if record["steps"] != budget or len(rewards) != budget:
        problems.append(f"{where}: used {len(rewards)} of a {budget}-design budget")
    if sum(record["step_evaluations"]) != len(rewards):
        problems.append(f"{where}: step evaluations do not add up to the rewards")
    if rewards and not same_number(record["best_reward"], max(rewards)):
        problems.append(f"{where}: best FoM {record['best_reward']} is not the best reward")
    curve = []
    running = float("-inf")
    for reward in rewards:
        running = max(running, reward)
        curve.append(running)
    if any(b < a for a, b in zip(curve, curve[1:])):
        problems.append(f"{where}: best-so-far curve decreases")
    fom = fom_of(circuit, technology, record["best_metrics"])
    if not same_number(fom, record["best_reward"]):
        problems.append(
            f"{where}: Equation 2 of the best metrics is {fom!r}, "
            f"the run reports {record['best_reward']!r}"
        )
    return problems


def check_against_first(workload, answers: Dict, operations: List[List[str]]) -> None:
    """Fixed seeds: every round must reproduce the first round's runs exactly.

    ``answers`` maps each operation's label to its rewards, in the order of
    ``operations``.
    """
    if workload.first_answers is None:
        workload.first_answers = answers
        return
    for problems, (label, rewards) in zip(operations, answers.items()):
        if rewards != workload.first_answers.get(label):
            problems.append(f"{label}: run differs from the first round")


def step_latencies_ms(stamps: Sequence[float]) -> List[float]:
    return [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]


def cold_import_s(ctx: Context) -> float:
    """Seconds a fresh interpreter takes to import the CLI module."""
    code = (
        "import time; start = time.perf_counter(); "
        "import repro.experiments.__main__; print(time.perf_counter() - start)"
    )
    child = ctx.spawn([sys.executable, "-c", code], None)

    def body(child):
        child.wait_exit(ctx.deadline())
        return float(child.lines[-1][1])

    return run_child(child, body)


# --- gcn_rl ---------------------------------------------------------------------------


class GcnRl:
    """GCN-RL through ``run_method`` on the four circuits at 180nm."""

    name = "gcn_rl"
    technology = "180nm"
    #: Design budget per circuit (the LDO's transient analyses make its
    #: steps about five times dearer).
    budgets = {"two_tia": 60, "three_tia": 40, "two_volt": 60, "ldo": 12}
    #: The method's seed; fixed so the reached FoM is comparable across runs.
    method_seed = 0
    min_rounds = 2
    pool_latencies = False

    def __init__(self, seed: int):
        order = sorted(self.budgets)
        random.Random(seed).shuffle(order)
        self.plan = [[c, self.technology, self.budgets[c], self.method_seed] for c in order]
        self.first_answers = None

    def describe(self) -> Dict:
        return {"plan": self.plan}

    def round(self, ctx: Context, trace_dir: Optional[Path]) -> Round:
        argv = [sys.executable, str(HERE / "gcn_rl_child.py"), json.dumps(self.plan)]
        child = ctx.spawn(argv, trace_dir)

        def body(child):
            deadline = ctx.deadline()
            _, ready = child.wait_line(lambda line: line.startswith("ready "), deadline)
            _, out = child.wait_line(lambda line: line.startswith("{"), deadline)
            child.wait_exit(deadline)
            return float(ready.split()[1]), json.loads(out)

        ready, data = run_child(child, body)
        operations, latencies, foms, steps = [], [], [], 0
        answers = {}
        for (circuit, technology, budget, _), run in zip(self.plan, data["runs"]):
            record = run["record"]
            problems = record_problems(record, circuit, technology, budget)
            answers[circuit] = record["rewards"]
            operations.append(problems)
            latencies.extend(step_latencies_ms(run["stamps"]))
            foms.append(record["best_reward"])
            steps += len(record["step_evaluations"])
        check_against_first(self, answers, operations)
        result = Round(
            setup_s=ready - child.spawn_time,
            wall_s=data["done"] - ready,
            designs=sum(p[2] for p in self.plan),
            latencies_ms=latencies,
            foms=foms,
            peak_rss_mb=child.peak_rss_mb,
            cpu_s=child.cpu_s,
            operations=operations,
        )
        if trace_dir is not None:
            result.layers = layers.layer_metrics(
                layers.load_traces(str(trace_dir)),
                (ready, data["done"]),
                {"experiments.steps": steps},
            )
        return result


# --- sweep ----------------------------------------------------------------------------

#: What each worker prints once it has opened the store and starts leasing.
JOINING = "joining sweep"
#: A worker's closing summary; the group is its evaluation count.
WORKER_DONE = re.compile(
    r"done: executed=\d+ skipped=\d+ stolen=\d+ resumed=\d+ paused=\d+ lost=\d+ "
    r"evaluations=(\d+)"
)


def worker_evaluations(stdout: str) -> List[int]:
    """The evaluation count of every worker summary in the sweep's output.

    The workers share the sweep's standard output.  Under
    ``PYTHONUNBUFFERED`` a ``print`` writes its text and its newline in two
    writes, so two workers' lines can land on one output line: the
    benchmark matches each summary where it is, never line by line.
    """
    return [int(match.group(1)) for match in WORKER_DONE.finditer(stdout)]


class Sweep:
    """A cold two-worker sweep of the black-box baselines into a fresh store."""

    name = "sweep"
    methods = ["random", "es", "bo", "mace"]
    circuits = ["two_tia", "three_tia", "two_volt"]
    technology = "180nm"
    seeds = 2
    steps = 20
    workers = 2
    min_rounds = 2
    pool_latencies = False

    def __init__(self, seed: int):
        rng = random.Random(seed)
        methods, circuits = list(self.methods), list(self.circuits)
        rng.shuffle(methods)
        rng.shuffle(circuits)
        # The seed orders the grid, which decides which worker runs which cell.
        self.spec = {
            "methods": methods,
            "circuits": circuits,
            "technologies": [self.technology],
            "seeds": self.seeds,
            "steps": self.steps,
        }
        self.cells = len(methods) * len(circuits) * self.seeds
        self.first_answers = None

    def describe(self) -> Dict:
        return {"spec": self.spec}

    def round(self, ctx: Context, trace_dir: Optional[Path]) -> Round:
        store_dir = ctx.fresh_dir("store")
        argv = [
            sys.executable, "-m", "repro.experiments", "sweep",
            "--workers", str(self.workers),
            "--eval-backend", "vectorized",
            "--store-backend", "sqlite",
            "--store-dir", str(store_dir),
            "--spec", json.dumps(self.spec),
        ]
        child = ctx.spawn(argv, trace_dir)

        def body(child):
            deadline = ctx.deadline()
            joined = 0

            def joining(line):
                nonlocal joined
                # Two workers' lines can share one output line (see worker_evaluations).
                joined += line.count(JOINING)
                return joined >= self.workers

            stamp, _ = child.wait_line(joining, deadline)
            child.wait_exit(deadline)
            return stamp

        try:
            ready = run_child(child, body)
            records = self._read_store(store_dir)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        done = worker_evaluations("\n".join(line for _, line in child.lines))
        operations, latencies, foms, steps = self._check(records, done)
        result = Round(
            setup_s=ready - child.spawn_time,
            wall_s=child.exit_time - ready,
            designs=self.cells * self.steps,
            latencies_ms=latencies,
            foms=foms,
            peak_rss_mb=child.peak_rss_mb,
            cpu_s=child.cpu_s,
            operations=operations,
        )
        if trace_dir is not None:
            traces = layers.load_traces(str(trace_dir))
            claims = layers.first_claims(traces)
            spawn = (max(claims) - child.spawn_time) if len(claims) == self.workers else 0.0
            result.layers = layers.layer_metrics(
                traces,
                (ready, child.exit_time),
                {"cluster.spawn_s": spawn, "experiments.steps": steps},
            )
        return result

    @staticmethod
    def _read_store(store_dir: Path) -> List[Dict]:
        from repro.store import open_run_store

        store = open_run_store("sqlite", str(store_dir))
        try:
            return [stored.record.to_dict() for stored in store.items()]
        finally:
            store.close()

    def _check(self, records, done):
        expected = {
            (m, c, self.technology, s)
            for m in self.spec["methods"]
            for c in self.spec["circuits"]
            for s in range(self.seeds)
        }
        grid_problems = []
        found = [(r["method"], r["circuit"], r["technology"], r["seed"]) for r in records]
        if len(found) != len(set(found)) or set(found) != expected:
            grid_problems.append(
                f"store holds {len(found)} runs, not exactly the {len(expected)} grid cells"
            )
        evaluations = sum(done)
        if len(done) != self.workers or evaluations != self.cells * self.steps:
            grid_problems.append(
                f"workers report {evaluations} evaluations for a grid budget of "
                f"{self.cells * self.steps}"
            )
        by_cell = {key: r for key, r in zip(found, records)}
        operations, latencies, foms, steps = [], [], [], 0
        answers = {}
        for key in sorted(expected):
            record = by_cell.get(key)
            answers[key] = None if record is None else record["rewards"]
            if record is None:
                operations.append([f"{key}: missing from the store"] + grid_problems)
                continue
            operations.append(record_problems(record, key[1], key[2], self.steps) + grid_problems)
            # One sample per ask/tell step, each at its cell's average step
            # time: one sample per cell would put the median of 24 cells (six
            # per method) on the edge between two methods' step times.
            cell_steps = len(record["step_evaluations"])
            latencies.extend([record["wall_time_s"] / cell_steps * 1e3] * cell_steps)
            foms.append(record["best_reward"])
            steps += len(record["step_evaluations"])
        check_against_first(self, answers, operations)
        return operations, latencies, foms, steps


# --- serve ----------------------------------------------------------------------------


class Serve:
    """A closed loop of small evaluate requests against a fresh ``serve``."""

    name = "serve"
    circuits = ["two_tia", "three_tia", "two_volt"]
    technologies = ["180nm", "130nm"]
    #: Fresh one-design requests per (circuit, node) bucket.
    designs_per_bucket = 94
    #: Seed of the fixed design pool, so every run serves the same designs.
    pool_seed = 0
    connections = 2
    #: Rounds until a run holds at least 1000 requests, so ten lie beyond p99.
    min_rounds = 2
    pool_latencies = True

    def __init__(self, seed: int):
        import numpy as np

        from repro.circuits.library import get_circuit

        # The designs are a fixed pool; the seed decides the order the
        # requests arrive in and which requests repeat.
        rng = random.Random(seed)
        fresh = []
        buckets = [(c, t) for c in self.circuits for t in self.technologies]
        for index, (circuit, technology) in enumerate(buckets):
            design = get_circuit(circuit, technology)
            pool_rng = np.random.default_rng([self.pool_seed, index])
            for _ in range(self.designs_per_bucket):
                fresh.append((circuit, technology, [design.random_sizing(pool_rng)]))
        rng.shuffle(fresh)
        # One request in four repeats an earlier request verbatim.
        total = len(fresh) * 4 // 3
        repeats = set(rng.sample(range(1, total), total - len(fresh)))
        self.requests = []
        stream = iter(fresh)
        placed = []
        for index in range(total):
            if index in repeats:
                self.requests.append(rng.choice(placed))
            else:
                placed.append(next(stream))
                self.requests.append(placed[-1])
        self.first_seen = {}
        for index, request in enumerate(self.requests):
            self.first_seen.setdefault(id(request), index)
        self.local_designs_per_s = None

    def describe(self) -> Dict:
        return {
            "requests": len(self.requests),
            "designs": sum(len(r[2]) for r in self.requests),
            "repeats": sum(1 for i, r in enumerate(self.requests) if self.first_seen[id(r)] != i),
            "local_evaluator_designs_per_s": self.local_designs_per_s,
        }

    def round(self, ctx: Context, trace_dir: Optional[Path]) -> Round:
        child = ctx.spawn(
            [sys.executable, "-m", "repro.experiments", "serve", "--port", "0"], trace_dir
        )

        def body(child):
            deadline = ctx.deadline()
            ready, banner = child.wait_line(lambda line: "listening on" in line, deadline)
            port = int(re.search(r"listening on \S+:(\d+)", banner).group(1))
            answers, latencies, done = asyncio.run(
                asyncio.wait_for(self._load(port), deadline - time.perf_counter())
            )
            stats = _http_get(port, "/stats") if trace_dir is not None else None
            child.interrupt()
            return ready, answers, latencies, done, stats

        ready, answers, latencies, done, stats = run_child(child, body)
        operations = [[] if isinstance(a, list) else [f"request {i}: {a}"] for i, a in enumerate(answers)]
        for index, request in enumerate(self.requests):
            first = self.first_seen[id(request)]
            if first != index and answers[index] != answers[first]:
                operations[index].append(f"request {index}: repeat differs from request {first}")
        result = Round(
            setup_s=ready - child.spawn_time,
            wall_s=done - ready,
            designs=sum(len(r[2]) for r in self.requests),
            latencies_ms=latencies,
            foms=self._best_foms(answers),
            peak_rss_mb=child.peak_rss_mb,
            cpu_s=child.cpu_s,
            operations=operations,
            answers=answers,
        )
        if trace_dir is not None:
            coalescer = stats["coalescer"]
            result.layers = layers.layer_metrics(
                layers.load_traces(str(trace_dir)),
                (ready, done),
                {
                    "service.batches": coalescer["batches_issued"],
                    "service.coalescing_factor": coalescer["coalescing_factor"],
                    "service.peek_hits": coalescer["peek_hits"],
                    "service.inflight_hits": coalescer["inflight_hits"],
                    "resilience.retries": stats["resilience"]["retries"],
                },
            )
        return result

    async def _load(self, port: int):
        """Closed loop: each connection sends its next request once answered."""
        answers: List = [None] * len(self.requests)
        latencies: List[float] = [0.0] * len(self.requests)

        async def connection(offset: int) -> None:
            reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
            try:
                for index in range(offset, len(self.requests), self.connections):
                    circuit, technology, sizings = self.requests[index]
                    frame = {"type": "evaluate", "id": index, "circuit": circuit,
                             "technology": technology, "sizings": sizings}
                    data = (json.dumps(frame) + "\n").encode()
                    start = time.perf_counter()
                    writer.write(data)
                    await writer.drain()
                    line = await reader.readline()
                    latencies[index] = (time.perf_counter() - start) * 1e3
                    reply = json.loads(line)
                    if reply.get("type") != "result" or reply.get("id") != index:
                        answers[index] = f"error reply {reply.get('error', reply.get('type'))!r}"
                    else:
                        answers[index] = [r["metrics"] for r in reply["results"]]
            finally:
                writer.close()
                await writer.wait_closed()

        await asyncio.gather(*(connection(i) for i in range(self.connections)))
        return answers, latencies, time.perf_counter()

    def _best_foms(self, answers) -> List[float]:
        """Per circuit, the best Equation-2 FoM among the answered 180nm designs."""
        best: Dict[str, float] = {}
        for (circuit, technology, _), answer in zip(self.requests, answers):
            if technology != "180nm" or not isinstance(answer, list):
                continue
            for metrics in answer:
                best[circuit] = max(best.get(circuit, float("-inf")), fom_of(circuit, technology, metrics))
        return [best[c] for c in sorted(best)]

    def finish(self, rounds: Sequence[Round]) -> None:
        """Check every served design against a direct ``LocalEvaluator`` run.

        The rounds repeat one request sequence, so the reference is computed
        once, after the measured rounds.
        """
        start = time.perf_counter()
        expected = self._reference()
        # The raw serial-engine rate on the same designs, for comparison
        # with the served rate.
        self.local_designs_per_s = (
            sum(len(r[2]) for i, r in enumerate(self.requests) if self.first_seen[id(r)] == i)
            / (time.perf_counter() - start)
        )
        for round_ in rounds:
            for index, request in enumerate(self.requests):
                got = round_.answers[index]
                want = expected[self.first_seen[id(request)]]
                if isinstance(got, list) and _canonical(got) != want:
                    round_.operations[index].append(
                        f"request {index}: served metrics differ from LocalEvaluator"
                    )

    def _reference(self) -> Dict[int, str]:
        from repro.circuits.library import get_circuit
        from repro.eval.local import LocalEvaluator

        groups: Dict = {}
        for index, (circuit, technology, sizings) in enumerate(self.requests):
            if self.first_seen[id(self.requests[index])] == index:
                groups.setdefault((circuit, technology), []).append(index)
        expected = {}
        for (circuit, technology), indices in groups.items():
            evaluator = LocalEvaluator(get_circuit(circuit, technology))
            sizings = [s for i in indices for s in self.requests[i][2]]
            results = iter(evaluator.evaluate_batch(sizings))
            for i in indices:
                expected[i] = _canonical([next(results).metrics for _ in self.requests[i][2]])
        return expected


def _canonical(metrics_list) -> str:
    return json.dumps(metrics_list, sort_keys=True)


def _http_get(port: int, path: str) -> Dict:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    body = b"".join(chunks).split(b"\r\n\r\n", 1)[1]
    return json.loads(body)


WORKLOADS = {"gcn_rl": GcnRl, "sweep": Sweep, "serve": Serve}
