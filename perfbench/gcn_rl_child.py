"""One cold process of the ``gcn_rl`` workload.

Usage: ``python gcn_rl_child.py '<json plan>'`` where the plan is a list of
``[circuit, technology, steps, seed]``.  Runs GCN-RL through the public
``run_method`` with default settings and evaluator, and prints:

* ``ready <t>`` once the program is imported (the end of set-up);
* one JSON line with every run's record, its driver-step timestamps and the
  time the last run finished.

Times are ``time.perf_counter`` readings, which share the parent's clock.
"""

import json
import sys
import time


def main() -> None:
    plan = json.loads(sys.argv[1])
    from repro.experiments.runner import run_method

    print(f"ready {time.perf_counter()!r}", flush=True)
    runs = []
    for circuit, technology, steps, seed in plan:
        stamps = [time.perf_counter()]
        record = run_method(
            "gcn_rl",
            circuit,
            technology=technology,
            steps=steps,
            seed=seed,
            callbacks=[lambda step: stamps.append(time.perf_counter())],
        )
        runs.append({"record": record.to_dict(), "stamps": stamps})
    done = time.perf_counter()
    print(json.dumps({"done": done, "runs": runs}), flush=True)


if __name__ == "__main__":
    main()
