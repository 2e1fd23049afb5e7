"""Shared machinery for the benchmark: host calibration, the closed-loop
timer, percentiles, memory and the result line.

Nothing here knows about a particular workload.  A workload module
supplies set-up, the timed op, a check that runs outside the timed
region, and (for the traced run) a function that turns one traced op
into per-layer numbers.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Sequence

#: Iterations of the host calibration loop: 13-25 ms of pure Python on
#: the 2-core reference VM, depending on the host phase.
CALIB_ITERATIONS = 300_000
CALIB_REPEATS = 5


def calibration_loop_ms() -> float:
    """Median wall time of a fixed pure-Python loop, in ms.

    Recorded before and after every run so that a disagreement between
    two sets of runs can be traced to a slow host phase.  It is a host
    diagnostic only and never normalises a program metric.
    """
    samples = []
    for _ in range(CALIB_REPEATS):
        started = time.perf_counter()
        total = 0
        for index in range(CALIB_ITERATIONS):
            total += index & 7
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of ``samples``."""
    data = sorted(samples)
    if not data:
        raise ValueError("no samples")
    position = (len(data) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set size (VmHWM) of another live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def median_setup(build: Callable[[], Any], repeats: int) -> tuple:
    """Run ``build`` ``repeats`` times; return (median seconds, last result).

    Each build starts from a collected heap with the previous result
    released, so peak memory reflects one set-up, not ``repeats`` of
    them.  After the last build the surviving heap is frozen
    (:func:`gc.freeze`): the inputs built in set-up live for the whole
    run, and without freezing every full collection re-scans them,
    which on the 200-trace graph population costs ~0.6 s and lands on a
    random tenth of the ops.
    """
    durations = []
    result = None
    for _ in range(repeats):
        result = None
        gc.collect()
        started = time.perf_counter()
        result = build()
        durations.append(time.perf_counter() - started)
    gc.collect()
    gc.freeze()
    return statistics.median(durations), result


class OpLog:
    """Durations and outcomes of the ops of one timed phase."""

    def __init__(self) -> None:
        self.op_s: List[float] = []
        self.read_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)


def run_closed_loop(
    seconds: float,
    op: Callable[[int], Any],
    on_error: Callable[[int, BaseException], None],
) -> None:
    """Call ``op(index)`` back to back until ``seconds`` have elapsed.

    ``op`` does its own timing of the region it owns; an exception from
    it is reported through ``on_error`` and the loop goes on.
    """
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        try:
            op(index)
        except Exception as error:  # noqa: BLE001 — a raising op is a failed op
            on_error(index, error)
        index += 1


def end_to_end_metrics(
    log: OpLog, setup_s: float, peak_rss_mb: float
) -> Dict[str, Dict[str, Any]]:
    """The untraced run's metrics.

    Latency is reported at p90 only.  On the 2-core reference VM the
    host alternates, every few seconds, between a fast phase and one
    ~1.5-1.9x slower, so offline per-op times are bimodal and the p50 of
    a 20 s run jumps between the modes (spread over 10 runs: up to 46%;
    a mean-based ops/s: up to 23%).  On serve-fig8 the low percentiles
    swing with how the two clients' requests interleave (p10 spread
    ~30%).  p90 sits in the slow mode and held to 6-13% everywhere.
    """
    return {
        "op_p90_ms": {"value": percentile(log.op_s, 90) * 1000.0, "unit": "ms"},
        "read_p90_ms": {"value": percentile(log.read_s, 90) * 1000.0, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


#: Every per-layer metric, printed by every workload (0 where absent).
PER_LAYER_UNITS = {
    "core.columnar.from_weighted_ms": "ms",
    "core.smc.preflight_ms": "ms",
    "core.smc.translate_ms": "ms",
    "core.corr_translator.forward_ms": "ms",
    "core.corr_translator.backward_ms": "ms",
    "core.smc.particle_overhead_ms": "ms",
    "core.smc.weights_ms": "ms",
    "core.smc.resample_ms": "ms",
    "core.smc.columnar_share": "ratio",
    "core.smc.choices_reused": "count",
    "core.smc.choices_fresh": "count",
    "core.weighted.estimate_ms": "ms",
    "hmm.models_ms": "ms",
    "hmm.ffbs_ms": "ms",
    "graph.propagate_ms": "ms",
    "graph.statements_visited": "count",
    "graph.statements_skipped": "count",
    "graph.run_initial_ms": "ms",
    "service.server_edit_ms": "ms",
    "service.server_posterior_ms": "ms",
    "service.client_wire_ms": "ms",
    "service.server_cpu_frac": "ratio",
    "service.rejections": "count",
    "service.timeouts": "count",
    "service.degraded_reads": "count",
    "observability.overhead_frac": "ratio",
    "bench.layer_coverage": "ratio",
    "host.calib_ms": "ms",
}


def layer_metrics(
    per_op: List[Dict[str, float]], whole_run: Dict[str, float]
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric: the median over traced ops of each value in
    ``per_op`` (0 where a layer is absent), overridden by ``whole_run``
    values measured once per run."""
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [row[name] for row in per_op if name in row]
        metrics[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
    for name, value in whole_run.items():
        metrics[name] = {"value": value, "unit": PER_LAYER_UNITS[name]}
    return metrics


def overhead(instrumented: Sequence[float], plain: Sequence[float]) -> float:
    """Mean of ``instrumented`` over mean of ``plain``, minus 1 (0 without data)."""
    if not instrumented or not plain:
        return 0.0
    return statistics.fmean(instrumented) / statistics.fmean(plain) - 1.0


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, Any]) -> None:
    """Print the result object as the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            },
            allow_nan=False,
        ),
        flush=True,
    )


def note(message: str) -> None:
    """Diagnostics go to standard error, so the result stays the last line."""
    print(message, file=sys.stderr, flush=True)


def wait_until(predicate: Callable[[], bool], timeout_s: float, poll_s: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return predicate()
