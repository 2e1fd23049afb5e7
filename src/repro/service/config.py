"""Service limits and degradation knobs (:class:`ServiceConfig`).

Like :class:`repro.core.config.InferenceConfig`, the service config is a
frozen, eagerly validated dataclass: a typo'd quota fails at
construction, not under load, and one config can be shared across the
event loop and every shard worker thread.

The fields fall into four groups:

* **topology** — ``host``/``port``, ``num_shards`` (sessions hash to a
  shard; each shard is one worker thread, so requests on one session
  are naturally serialized), ``shard_processes``/``replicate`` (promote
  shards to worker *processes* behind the router — see
  :mod:`repro.service.shard`);
* **admission** — ``max_sessions_per_tenant``, ``max_inflight_per_tenant``
  (``0`` disables the respective class of work — ``repro lint`` flags it);
* **backpressure / degradation** — ``queue_depth`` (bounded per-shard
  queue; ``0`` means unbounded, which ``repro lint`` flags),
  ``shed_threshold`` + ``shed_protect_priority`` (the shedding rung of
  the ladder), ``wedged_after_s`` (when posterior reads go degraded);
* **deadlines / durability** — ``default_deadline_s``/``max_deadline_s``,
  ``store_dir`` (checkpoints + LRU spill), ``checkpoint_keep``,
  ``expected_step_latency_s`` (the observed median step latency the
  deadline lint rule compares against).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Keyword-only configuration for :class:`repro.service.InferenceService`.

    Parameters
    ----------
    host / port:
        Listen address.  ``port=0`` binds an ephemeral port (the bound
        port is reported by :meth:`InferenceService.serve` and ``repro
        serve --port-file``).
    num_shards:
        Worker shards.  A session's requests always land on
        ``hash(session_id) % num_shards``, so per-session ordering needs
        no extra locking.  With ``shard_processes > 0`` this is the
        router-side lane count and is forced equal to
        ``shard_processes``.
    shard_processes:
        ``0`` (the default) keeps the single-process service: shards are
        worker *threads* sharing one interpreter.  ``N >= 1`` promotes
        shards to worker **processes**: the router process keeps the
        asyncio front end, admission control, quotas, and deadlines, and
        forwards requests over the codec wire format to ``N`` shard
        processes, each running its own
        :class:`~repro.store.session.SessionManager`.  Sessions are
        spread over the processes by a rendezvous-hashed placement map
        (:mod:`repro.service.placement`), so throughput scales with
        cores instead of being GIL-capped.
    replicate:
        Process mode only: after every acknowledged mutation the router
        refreshes a warm in-memory replica of the session on its peer
        shard process (the placement map's second choice), so degraded
        reads during a failover are served from memory instead of disk.
        Durability never depends on this — every ack is already fsynced
        to the shared store first — but ``repro lint`` flags
        ``replicate`` without a ``store_dir`` as an error because there
        is then no commit snapshot to replicate.
    shard_start_timeout_s:
        How long the router waits for a spawned shard process to bind
        its socket and answer the ``hello`` handshake.
    queue_depth:
        Bound of each shard's pending-request queue.  A full queue
        rejects with :class:`~repro.errors.OverloadedError` and a
        ``retry_after_s`` drain estimate — never unbounded buffering.
        ``0`` means unbounded (allowed so the lint rule has something to
        flag; don't run production that way).
    max_sessions_per_tenant / max_inflight_per_tenant:
        Per-tenant admission quotas, rejected with structured
        :class:`~repro.errors.QuotaExceededError`.  ``0`` is legal but
        useless — ``repro lint`` flags it.
    default_deadline_s / max_deadline_s:
        Deadline applied when a request carries none, and the ceiling
        clamped onto client-supplied deadlines.
    expected_step_latency_s:
        The operator's observed median edit-step latency, used by the
        ``service-deadline-too-short`` lint rule (a default deadline
        below it times out the typical request by construction).
    shed_threshold:
        Queue-occupancy fraction at which the degradation ladder starts
        shedding: beyond it, only tenants with priority >=
        ``shed_protect_priority`` are admitted.
    shed_protect_priority:
        Priority rank that survives shedding (priorities come from
        ``tenant_priorities``; higher = more important).
    tenant_priorities / default_priority:
        Static tenant -> priority map for the shedding rung.
    wedged_after_s:
        When a shard's in-flight request has been running longer than
        this, ``posterior`` reads are served *degraded* from the last
        commit snapshot instead of queueing behind the wedge.
    store_dir:
        Durability root: commit checkpoints under
        ``<store_dir>/checkpoints/<session>/``, LRU spill files under
        ``<store_dir>/lru/``.  ``None`` = fully in-memory (no crash
        recovery; fine for tests).
    checkpoint_keep:
        Commit snapshots retained per session (>= 2 keeps a fallback if
        the newest is torn by a crash).
    session_capacity:
        Live sessions held in memory before LRU spill (requires
        ``store_dir``).
    num_particles:
        Default particle count for ``create_session`` requests that
        don't specify one.
    max_frame_bytes:
        Hard cap on accepted request frames (poison protection).
    """

    host: str = "127.0.0.1"
    port: int = 0
    num_shards: int = 2
    shard_processes: int = 0
    replicate: bool = False
    shard_start_timeout_s: float = 30.0
    queue_depth: int = 16
    max_sessions_per_tenant: int = 8
    max_inflight_per_tenant: int = 4
    default_deadline_s: float = 30.0
    max_deadline_s: float = 120.0
    expected_step_latency_s: Optional[float] = None
    shed_threshold: float = 0.75
    shed_protect_priority: int = 2
    tenant_priorities: Mapping[str, int] = field(default_factory=dict)
    default_priority: int = 1
    wedged_after_s: float = 2.0
    store_dir: Optional[str] = None
    checkpoint_keep: int = 2
    session_capacity: int = 64
    num_particles: int = 100
    max_frame_bytes: int = 16 * 1024 * 1024

    def __post_init__(self) -> None:
        if int(self.num_shards) < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards!r}")
        object.__setattr__(self, "num_shards", int(self.num_shards))
        if int(self.shard_processes) < 0:
            raise ValueError(
                f"shard_processes must be >= 0 (0 = in-process threads), "
                f"got {self.shard_processes!r}"
            )
        object.__setattr__(self, "shard_processes", int(self.shard_processes))
        if self.shard_processes > 0:
            # In process mode the router-side lane count mirrors the
            # process count; keeping them equal means every queue,
            # backpressure, and telemetry knob applies per process.
            object.__setattr__(self, "num_shards", self.shard_processes)
        object.__setattr__(self, "replicate", bool(self.replicate))
        timeout = float(self.shard_start_timeout_s)
        if math.isnan(timeout) or timeout <= 0:
            raise ValueError(
                "shard_start_timeout_s must be a positive number, got "
                f"{self.shard_start_timeout_s!r}"
            )
        object.__setattr__(self, "shard_start_timeout_s", timeout)
        if int(self.queue_depth) < 0:
            raise ValueError(
                f"queue_depth must be >= 0 (0 = unbounded), got {self.queue_depth!r}"
            )
        object.__setattr__(self, "queue_depth", int(self.queue_depth))
        for name in ("max_sessions_per_tenant", "max_inflight_per_tenant"):
            value = int(getattr(self, name))
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
            object.__setattr__(self, name, value)
        for name in ("default_deadline_s", "max_deadline_s", "wedged_after_s"):
            value = float(getattr(self, name))
            if math.isnan(value) or value <= 0:
                raise ValueError(f"{name} must be a positive number, got {value!r}")
            object.__setattr__(self, name, value)
        if self.default_deadline_s > self.max_deadline_s:
            raise ValueError(
                f"default_deadline_s={self.default_deadline_s} exceeds "
                f"max_deadline_s={self.max_deadline_s}"
            )
        if not 0.0 < float(self.shed_threshold) <= 1.0:
            raise ValueError(
                f"shed_threshold must be in (0, 1], got {self.shed_threshold!r}"
            )
        object.__setattr__(self, "shed_threshold", float(self.shed_threshold))
        if self.expected_step_latency_s is not None:
            value = float(self.expected_step_latency_s)
            if math.isnan(value) or value <= 0:
                raise ValueError(
                    "expected_step_latency_s must be a positive number or None, "
                    f"got {self.expected_step_latency_s!r}"
                )
            object.__setattr__(self, "expected_step_latency_s", value)
        # Freeze the priority map so the config stays safely shareable.
        object.__setattr__(
            self, "tenant_priorities", dict(self.tenant_priorities or {})
        )
        for name in ("checkpoint_keep", "session_capacity", "num_particles",
                     "max_frame_bytes"):
            value = int(getattr(self, name))
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
            object.__setattr__(self, name, value)
        if self.store_dir is not None and not isinstance(self.store_dir, str):
            raise TypeError(
                f"store_dir must be a path string or None, got {self.store_dir!r}"
            )

    def replace(self, **changes: Any) -> "ServiceConfig":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    def priority_of(self, tenant: str) -> int:
        return int(self.tenant_priorities.get(tenant, self.default_priority))

    def clamp_deadline(self, deadline_s: Optional[float]) -> float:
        """Resolve a client deadline: default when absent, ceiling always."""
        if deadline_s is None:
            return self.default_deadline_s
        value = float(deadline_s)
        if math.isnan(value) or value <= 0:
            from ..errors import BadRequestError

            raise BadRequestError(
                f"deadline_s must be a positive number, got {deadline_s!r}"
            )
        return min(value, self.max_deadline_s)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able view (what ``stats`` responses report)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
