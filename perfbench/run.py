#!/usr/bin/env python3
"""Benchmark of the incremental-inference system, one op kind per workload.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fig8-columnar --seed 1 --seconds 20 --trace 0

Workloads (each times exactly one kind of op, closed loop):

* ``fig8-columnar`` — columnarize 160 exact posterior traces of the
  Figure 8 regression P, translate them to the robust Q with
  ``collection="columnar"``, estimate the slope;
* ``fig9-hmm`` — FFBS-materialize 100 traces of the first-order HMM for
  one 5-letter word, translate them to the second-order HMM (the
  columnar request spills to the object path), read the marginals;
* ``fig10-gmm`` — translate 200 dependency-graph traces of the
  Listing 5 GMM (n=316, K=10) across the sigma 2.0 -> 3.0 edit;
* ``serve-fig8`` — a ``repro serve`` process with 2 thread shards and
  an fsynced store, driven by 2 client threads running the
  ``fig8-session`` edit scripts with a posterior read after every two
  edits.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same loop with every other op traced and prints the per-layer metrics.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; diagnostics go to
standard error.  ``setup_s`` is the time to import the program plus
the median of three complete set-ups (inputs, population or server, one
warm-up op).
"""

import argparse
import os
import statistics
import sys
import time

import harness

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

OFFLINE = ("fig8-columnar", "fig9-hmm", "fig10-gmm")
SERVED = ("serve-fig8",)
SETUP_REPEATS = 3

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=OFFLINE + SERVED)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def run_offline(args, import_s: float) -> tuple:
    """Time one offline workload; return (log, metrics)."""
    from repro.observability import Tracer

    import offline

    factory = offline.WORKLOADS[args.workload]
    build_s, workload = harness.median_setup(
        lambda: factory(args.seed).build(), SETUP_REPEATS
    )
    setup_s = import_s + build_s
    workload.prepare_check()

    log = harness.OpLog()
    outputs = []
    rows = []
    traced_s, untraced_s = [], []

    def op(index: int) -> None:
        log.attempted += 1
        tracer = Tracer() if args.trace and index % 2 == 0 else None
        output = workload.op(index, tracer)
        outputs.append(output)
        if tracer is not None:
            (root,) = tracer.roots
            rows.append(offline.layer_values(root, output.get("mode", "object")))
            traced_s.append(output["op_s"])
            return
        untraced_s.append(output["op_s"])
        log.op_s.append(output["op_s"])
        log.read_s.append(output["read_s"])

    def on_error(index: int, error: BaseException) -> None:
        log.fail(f"op {index}: {error!r}")

    harness.run_closed_loop(args.seconds, op, on_error)
    for output in outputs:
        reason = workload.check(output)
        if reason is not None:
            log.fail(reason)

    if not args.trace:
        return log, harness.end_to_end_metrics(log, setup_s, harness.peak_rss_mb_self())
    extra = {
        "observability.overhead_frac": harness.overhead(traced_s, untraced_s),
        "core.smc.columnar_share": statistics.fmean(
            row["core.smc.columnar_share"] for row in rows
        ),
    }
    if hasattr(workload, "run_initial_s"):
        extra["graph.run_initial_ms"] = statistics.median(workload.run_initial_s) * 1000.0
    return log, harness.layer_metrics(rows, extra)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        harness.note("error: --seconds must be positive and --seed non-negative")
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        harness.note(f"error: no program source at {SRC}; run from a source checkout")
        return 2
    sys.path.insert(0, SRC)

    calib_before = harness.calibration_loop_ms()
    import_started = time.perf_counter()
    if args.workload in SERVED:
        import served as module
    else:
        import offline as module  # noqa: F401 — imported here to time it
    import_s = time.perf_counter() - import_started
    if args.workload in SERVED:
        log, metrics = module.run(args, import_s, SETUP_REPEATS)
    else:
        log, metrics = run_offline(args, import_s)
    calib_ms = statistics.median([calib_before, harness.calibration_loop_ms()])
    if args.trace:
        metrics["host.calib_ms"] = {"value": calib_ms, "unit": "ms"}
    harness.note(
        f"{args.workload} seed={args.seed}: {log.attempted} ops, {log.failed} failed, "
        f"host.calib_ms={calib_ms:.2f}"
    )
    for reason in log.errors:
        harness.note(f"  failed: {reason}")
    harness.emit(log.failed == 0, log.attempted, log.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
