"""The served workload: ``repro serve`` driven by the public client.

``serve-fig8`` starts a ``repro serve`` process (2 thread shards, store
on local disk so every ack is fsynced, 60 particles per session) and
drives it closed-loop from 2 client threads on 2 connections.  Each
client owns 2 sessions created in set-up from the ``fig8-session``
scripts of :data:`repro.service.loadgen.WORKLOADS` and works through
them round-robin: two ``edit`` requests on a session, then one
``posterior`` read of it.  ``run_loadgen`` is not the driver because its
summary has neither p90 nor phases.

The traced run reads the server's own ``stats`` op at the start and end
of the timed phase.  It also scrapes ``stats`` during every other one of
8 equal windows of the phase, so ``observability.overhead_frac`` is the cost a
monitoring scrape adds to edits.
"""

from __future__ import annotations

import ctypes
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.loadgen import WORKLOADS

import harness

CLIENTS = 2
SESSIONS_PER_CLIENT = 2
SHARDS = 2
PARTICLES = 60
EDITS_PER_READ = 2
#: Edits generated per session script; a run uses far fewer.
SCRIPT_EDITS = 1000
START_TIMEOUT_S = 60.0
_PR_SET_PDEATHSIG = 1
STOP_TIMEOUT_S = 20.0
#: The traced run's timed phase is cut into this many windows; a
#: monitor scrapes ``stats`` four times per window in every other one.
SCRAPE_WINDOWS = 8


class ServerProcess:
    """One ``repro serve`` child process with its own store directory."""

    def __init__(self, src: str, work_dir: str):
        self.work_dir = work_dir
        os.makedirs(work_dir)
        port_file = os.path.join(work_dir, "port")
        env = dict(os.environ)
        env["PYTHONPATH"] = src
        self._log = open(os.path.join(work_dir, "serve.log"), "wb")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--store-dir", os.path.join(work_dir, "store"),
                "--port-file", port_file,
                "--num-shards", str(SHARDS),
                "-n", str(PARTICLES),
            ],
            env=env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            preexec_fn=_die_with_parent,
        )
        ready = harness.wait_until(
            lambda: self.process.poll() is not None or _read_port(port_file) is not None,
            START_TIMEOUT_S,
        )
        self.port = _read_port(port_file)
        if not ready or self.port is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start; see {work_dir}/serve.log")

    @property
    def pid(self) -> int:
        return self.process.pid

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # utime and stime are fields 14 and 15 of stat(5).
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def _die_with_parent() -> None:
    """Have the kernel SIGTERM the server if the benchmark dies first."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)


def _read_port(path: str) -> Optional[int]:
    try:
        with open(path) as handle:
            text = handle.read().strip()
    except FileNotFoundError:
        return None
    return int(text) if text else None


class Session:
    """One served session and its position in its edit script."""

    def __init__(self, index: int, base: str, edits: List[str]):
        self.index = index
        self.session_id = f"bench-s{index}"
        self.base = base
        self.edits = edits
        self.acked = 0


def _scripts(seed: int) -> List[List[Session]]:
    """Per client, its sessions; programs come from the fig8-session scripts.

    The ids ``bench-s0`` .. ``bench-s3`` all hash to shard 0, so each
    request queues behind the other client's.  (Giving each client its
    own shard was tried: p90 read latency then swung 2-10 ms between
    runs with how the two shard threads shared the interpreter lock.)
    """
    generator = WORKLOADS["fig8-session"]
    clients = []
    for client in range(CLIENTS):
        sessions = []
        for slot in range(SESSIONS_PER_CLIENT):
            index = client * SESSIONS_PER_CLIENT + slot
            rng = random.Random(f"{seed}:fig8-session:{index}")
            base, ops = generator(index, SCRIPT_EDITS, rng)
            sessions.append(Session(index, base, [program for _op, program in ops]))
        clients.append(sessions)
    return clients


def check_edit(ack: Any, session: Session) -> Optional[str]:
    if not isinstance(ack, dict) or ack.get("session") != session.session_id:
        return f"malformed edit ack {ack!r}"
    if ack.get("num_edits") != session.acked + 1:
        return f"{session.session_id}: ack says {ack.get('num_edits')} edits, sent {session.acked + 1}"
    if ack.get("num_particles") != PARTICLES or ack.get("faults") != 0:
        return f"{session.session_id}: bad edit ack {ack!r}"
    if not (isinstance(ack.get("ess"), float) and 0.0 < ack["ess"] <= PARTICLES + 1e-9):
        return f"{session.session_id}: bad ess in {ack!r}"
    return None


def check_posterior(read: Any, session: Session) -> Optional[str]:
    if not isinstance(read, dict) or read.get("session") != session.session_id:
        return f"malformed posterior {read!r}"
    if read.get("num_edits") != session.acked or read.get("num_particles") != PARTICLES:
        return f"{session.session_id}: stale or resized posterior {read!r}"
    values = read.get("values")
    if not isinstance(values, list) or not values:
        return f"{session.session_id}: empty posterior"
    probabilities = [entry.get("probability") for entry in values]
    if not all(isinstance(p, float) and 0.0 < p <= 1.0 + 1e-9 for p in probabilities):
        return f"{session.session_id}: bad probabilities {probabilities}"
    if probabilities != sorted(probabilities, reverse=True) or sum(probabilities) > 1.0 + 1e-9:
        return f"{session.session_id}: probabilities not a ranked sub-distribution"
    if not all(isinstance(e.get("value"), float) and math.isfinite(e["value"]) for e in values):
        return f"{session.session_id}: non-finite posterior value"
    return None


class Deployment:
    """A started server, its clients and their sessions."""

    def __init__(self, src: str, work_dir: str, seed: int):
        self.server = ServerProcess(src, work_dir)
        self.clients = [
            ServiceClient("127.0.0.1", self.server.port, tenant=f"bench-{index}")
            for index in range(CLIENTS)
        ]
        self.sessions = _scripts(seed)
        try:
            for client, sessions in zip(self.clients, self.sessions):
                for session in sessions:
                    client.create(
                        session.session_id,
                        session.base,
                        num_particles=PARTICLES,
                        seed=seed * 1000 + session.index,
                    )
                # Warm-up: one edit per client.
                first = sessions[0]
                reason = check_edit(client.edit(first.session_id, first.edits[0]), first)
                if reason is not None:
                    raise RuntimeError(f"warm-up edit failed: {reason}")
                first.acked = 1
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.stop()


class Recorder:
    """Thread-safe op log of the timed phase."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.log = harness.OpLog()
        #: (start time, seconds) of each acked edit, for the scrape split.
        self.edits: List[Tuple[float, float]] = []

    def record(self, kind: str, started: float, seconds: float, reason: Optional[str]) -> None:
        with self.lock:
            self.log.attempted += 1
            if reason is not None:
                self.log.fail(reason)
                return
            if kind == "edit":
                self.log.op_s.append(seconds)
                self.edits.append((started, seconds))
            else:
                self.log.read_s.append(seconds)


def _drive(client: ServiceClient, sessions: List[Session], deadline: float, recorder: Recorder) -> None:
    try:
        _drive_loop(client, sessions, deadline, recorder)
    except Exception as error:  # noqa: BLE001 — a crashed client counts as a failed op
        recorder.record("edit", time.perf_counter(), 0.0, f"client {client.tenant} crashed: {error!r}")


def _drive_loop(
    client: ServiceClient, sessions: List[Session], deadline: float, recorder: Recorder
) -> None:
    turn = 0
    while True:
        session = sessions[turn % len(sessions)]
        turn += 1
        for kind in ["edit"] * EDITS_PER_READ + ["posterior"]:
            if time.perf_counter() >= deadline:
                return
            started = time.perf_counter()
            try:
                if kind == "edit":
                    program = session.edits[session.acked % len(session.edits)]
                    response = client.edit(session.session_id, program)
                else:
                    response = client.posterior(session.session_id)
            except ServiceError as error:
                recorder.record(kind, started, 0.0, f"{kind} {session.session_id}: {error!r}")
                continue
            seconds = time.perf_counter() - started
            if kind == "edit":
                reason = check_edit(response, session)
                session.acked += 1
            else:
                reason = check_posterior(response, session)
            recorder.record(kind, started, seconds, reason)


def _scraped(at: float, started: float, window_s: float) -> bool:
    return int((at - started) / window_s) % 2 == 1


def _scrape(port: int, started: float, deadline: float) -> None:
    """Poll ``stats`` during odd windows of the timed phase."""
    window_s = (deadline - started) / SCRAPE_WINDOWS
    with ServiceClient("127.0.0.1", port, tenant="bench-monitor") as monitor:
        while time.perf_counter() < deadline:
            if _scraped(time.perf_counter(), started, window_s):
                monitor.stats()
            time.sleep(window_s / 4)


def _metric(snapshot: Dict[str, Any], name: str, field: str) -> float:
    return float(snapshot.get(name, {}).get(field) or 0.0)


def _delta(before: Dict[str, Any], after: Dict[str, Any], name: str, field: str = "value") -> float:
    return _metric(after, name, field) - _metric(before, name, field)


def layer_values(
    before: Dict[str, Any], after: Dict[str, Any], recorder: Recorder, cpu_s: float,
    wall_s: float, started: float,
) -> Dict[str, float]:
    edits = _delta(before, after, "service.latency.edit", "count")
    reads = _delta(before, after, "service.latency.posterior", "count")
    edit_sum = _delta(before, after, "service.latency.edit", "sum")
    read_sum = _delta(before, after, "service.latency.posterior", "sum")
    client_sum = sum(recorder.log.op_s) + sum(recorder.log.read_s)
    requests = len(recorder.log.op_s) + len(recorder.log.read_s)
    window_s = wall_s / SCRAPE_WINDOWS
    scraped = [s for t, s in recorder.edits if _scraped(t, started, window_s)]
    quiet = [s for t, s in recorder.edits if not _scraped(t, started, window_s)]
    rejections = sum(
        _delta(before, after, name) for name in after if name.startswith("service.rejections.")
    )
    return {
        "service.server_edit_ms": 1000.0 * edit_sum / edits if edits else 0.0,
        "service.server_posterior_ms": 1000.0 * read_sum / reads if reads else 0.0,
        "service.client_wire_ms": 1000.0 * (client_sum - edit_sum - read_sum) / requests,
        "service.server_cpu_frac": cpu_s / wall_s,
        "service.rejections": rejections,
        "service.timeouts": _delta(before, after, "service.timeouts")
        + _delta(before, after, "service.timeouts.queued"),
        "service.degraded_reads": _delta(before, after, "service.degraded_reads"),
        "observability.overhead_frac": harness.overhead(scraped, quiet),
        # Client time = server time + wire time, by construction.
        "bench.layer_coverage": 1.0,
    }


def run(args, import_s: float, repeats: int) -> tuple:
    """Time the served workload; return (log, metrics)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    work_root = os.path.join(root, ".perfbench_work", f"serve-{os.getpid()}")
    deployments: List[Deployment] = []
    try:
        def build() -> Deployment:
            for earlier in deployments:
                earlier.close()
            deployment = Deployment(
                src, os.path.join(work_root, str(len(deployments))), args.seed
            )
            deployments.append(deployment)
            return deployment

        build_s, deployment = harness.median_setup(build, repeats)
        setup_s = import_s + build_s
        return _timed_phase(args, deployment, setup_s)
    finally:
        for deployment in deployments:
            deployment.close()
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass


def _timed_phase(args, deployment: Deployment, setup_s: float) -> tuple:
    server = deployment.server
    recorder = Recorder()
    with ServiceClient("127.0.0.1", server.port, tenant="bench-monitor") as monitor:
        before = monitor.stats()["metrics"]
    cpu_before = server.cpu_seconds()
    started = time.perf_counter()
    deadline = started + args.seconds
    threads = [
        threading.Thread(target=_drive, args=(client, sessions, deadline, recorder))
        for client, sessions in zip(deployment.clients, deployment.sessions)
    ]
    if args.trace:
        threads.append(threading.Thread(target=_scrape, args=(server.port, started, deadline)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started
    cpu_s = server.cpu_seconds() - cpu_before
    with ServiceClient("127.0.0.1", server.port, tenant="bench-monitor") as monitor:
        after = monitor.stats()["metrics"]
    log = recorder.log
    if not args.trace:
        return log, harness.end_to_end_metrics(log, setup_s, harness.peak_rss_mb_pid(server.pid))
    return log, harness.layer_metrics(
        [], layer_values(before, after, recorder, cpu_s, wall_s, started)
    )
