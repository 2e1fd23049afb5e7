"""Smoke test of the benchmark: every workload runs a few ops and prints
every metric named in BENCHMARK.json with its unit, and the checkers
count failed ops when handed a wrong reference.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import offline  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)

WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run_cli(workload, trace, seed=3):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    result = _run_cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in named}
    for metric in named:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in named)


def test_missing_program_source_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "harness.py", "offline.py", "served.py"):
        (bench / name).write_text(open(os.path.join(BENCH, name)).read())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig8-columnar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def _run_in_process(monkeypatch, capsys, workload):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    assert run.main(["--workload", workload, "--seed", "2", "--seconds", "0.5", "--trace", "0"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload, name, wrong",
    [
        ("fig8-columnar", "fig8_reference_slope", lambda *args: (0.5, 0.03)),
        ("fig9-hmm", "fig9_reference_marginals",
         lambda params, word: np.full((len(word), 26), 1.0 / 26)),
        ("fig9-hmm", "fig9_reference_log_weights",
         lambda p, q, states, word: np.zeros(len(states))),
        ("fig10-gmm", "fig10_reference_weight", lambda setup, trace: 1.0),
    ],
)
def test_wrong_reference_counts_failed_ops(monkeypatch, capsys, workload, name, wrong):
    monkeypatch.setattr(offline, name, wrong)
    result = _run_in_process(monkeypatch, capsys, workload)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_served_checks_reject_wrong_acks():
    session = served.Session(0, "base", ["edit"])
    session.acked = 3
    good_ack = {"session": "bench-s0", "num_edits": 4, "num_particles": served.PARTICLES,
                "ess": 12.5, "resampled": True, "faults": 0}
    assert served.check_edit(good_ack, session) is None
    for wrong in ({"num_edits": 3}, {"num_particles": 59}, {"faults": 1}, {"ess": float("nan")}):
        assert served.check_edit({**good_ack, **wrong}, session) is not None

    good_read = {"session": "bench-s0", "num_edits": 3, "num_particles": served.PARTICLES,
                 "ess": 60.0, "degraded": False,
                 "values": [{"value": 1.9, "probability": 0.6}, {"value": 2.1, "probability": 0.4}]}
    assert served.check_posterior(good_read, session) is None
    wrong_values = [
        [],
        [{"value": 1.9, "probability": 0.4}, {"value": 2.1, "probability": 0.6}],
        [{"value": 1.9, "probability": 0.9}, {"value": 2.1, "probability": 0.4}],
        [{"value": float("inf"), "probability": 1.0}],
    ]
    for values in wrong_values:
        assert served.check_posterior({**good_read, "values": values}, session) is not None
    assert served.check_posterior({**good_read, "num_edits": 2}, session) is not None
