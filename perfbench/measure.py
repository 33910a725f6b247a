"""Statistics, Equation 2, failure counting and host context for the benchmark.

Everything here is stdlib only and independent of the ``repro`` package, so
the benchmark's checks do not trust the code they check.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

#: Samples that must lie beyond a percentile for it to describe a tail.
TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], p: float) -> float:
    """Percentile ``p`` (0-100) with linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def latency_summary(samples_ms: Sequence[float]) -> Dict:
    """Median and 99th percentile of a latency sample, with its sample counts.

    ``p99_resolved`` holds when at least ten samples lie beyond the 99th
    percentile (1000 samples or more); below that the p99 reads the few
    slowest operations rather than a tail.
    """
    p99 = percentile(samples_ms, 99.0)
    beyond = sum(1 for x in samples_ms if x > p99)
    return {
        "p50": median(samples_ms),
        "p99": p99,
        "samples": len(samples_ms),
        "beyond_p99": beyond,
        "p99_resolved": beyond >= TAIL_SAMPLES,
    }


def quartile_spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and (q3 - q1) / |median|, as the acceptance rule takes them."""
    values = list(values)
    mid = median(values)
    if len(values) < 2:
        return {"median": mid, "q1": mid, "q3": mid, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(mid) if mid else float("inf")
    return {"median": mid, "q1": q1, "q3": q3, "spread": spread}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


# --- Equation 2 -----------------------------------------------------------------------

#: Published FoM weights: +1 for a larger-is-better metric, -1 otherwise, in
#: the order the paper's tables list the metrics.
WEIGHTS = {
    "two_tia": {"bandwidth": 1.0, "gain": 1.0, "power": -1.0, "noise": -1.0,
                "peaking": -1.0, "gbw": 1.0},
    "three_tia": {"bandwidth": 1.0, "gain": 1.0, "power": -1.0, "gbw": 1.0},
    "two_volt": {"bandwidth": 1.0, "cpm": 1.0, "dpm": 1.0, "power": -1.0,
                 "noise": -1.0, "gain": 1.0, "gbw": 1.0},
    "ldo": {"tl_plus": -1.0, "tl_minus": -1.0, "load_regulation": -1.0,
            "tv_plus": -1.0, "tv_minus": -1.0, "psrr": 1.0, "power": -1.0},
}

#: Hard specification limits: (metric, "min" | "max", value).
SPEC_LIMITS = {
    "two_tia": [("gain", "min", 1e2), ("power", "max", 5e-2)],
    "three_tia": [("gain", "min", 5e1), ("power", "max", 5e-2)],
    "two_volt": [("gain", "min", 1e1), ("power", "max", 2e-2)],
    "ldo": [("psrr", "min", 0.0), ("power", "max", 5e-2)],
}

#: FoM of a design that fails simulation or violates the spec.
VIOLATION_FOM = -1.0

CALIBRATION_DIR = Path("src") / "repro" / "env" / "calibration"


def load_calibration(circuit: str, technology: str, root: Path = Path(".")) -> Dict:
    """The ``{"minimum": ..., "maximum": ...}`` ranges shipped with the program."""
    path = root / CALIBRATION_DIR / f"{circuit}_{technology}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def equation2(
    metrics: Mapping[str, float],
    weights: Mapping[str, float],
    calibration: Mapping[str, Mapping[str, float]],
    spec_limits: Sequence = (),
) -> float:
    """``sum_i w_i * clip((m_i - min_i) / (max_i - min_i), 0, 1)``, or -1 on violation."""
    if metrics.get("simulation_failed", 0.0):
        return VIOLATION_FOM
    for name, kind, bound in spec_limits:
        if name in metrics:
            value = metrics[name]
            if (kind == "min" and value < bound) or (kind == "max" and value > bound):
                return VIOLATION_FOM
    total = 0.0
    for name, weight in weights.items():
        if name not in metrics:
            continue
        value = float(metrics[name])
        if not math.isfinite(value):
            return VIOLATION_FOM
        low = calibration["minimum"].get(name, 0.0)
        high = calibration["maximum"].get(name, 1.0)
        span = high - low
        normalized = 0.0 if span <= 0 else min(max((value - low) / span, 0.0), 1.0)
        total += weight * normalized
    return total


def fom_of(circuit: str, technology: str, metrics: Mapping[str, float]) -> float:
    return equation2(
        metrics,
        WEIGHTS[circuit],
        load_calibration(circuit, technology),
        SPEC_LIMITS[circuit],
    )


def same_number(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


# --- failure counting -----------------------------------------------------------------


class Tally:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def operation(self, problems: Sequence[str]) -> None:
        """Count one operation; it failed if any check reported a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @property
    def correct(self) -> bool:
        return self.failed == 0


# --- host context ---------------------------------------------------------------------

THREAD_VARIABLES = ("OPENBLAS_", "OMP_", "MKL_", "BLIS_", "VECLIB_", "NUMEXPR_", "REPRO_")


def steal_ticks() -> Optional[int]:
    """Aggregate CPU steal ticks from ``/proc/stat`` (None where unavailable)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def host_context() -> Dict:
    """What a reader needs to tell a noisy host from a slow program."""
    try:
        load = os.getloadavg()[0]
    except OSError:
        load = None
    context = {
        "nproc": os.cpu_count(),
        "loadavg_1m": load,
        "python": platform.python_version(),
        "thread_env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith(THREAD_VARIABLES)
        },
    }
    try:
        import numpy

        context["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        context["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception as error:  # numpy missing or an older config API
        context["blas"] = f"unknown ({type(error).__name__})"
    return context


def emit(payload: Mapping) -> None:
    print(json.dumps(payload, sort_keys=True), flush=True)


def warn(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
