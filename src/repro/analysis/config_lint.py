"""Configuration and pipeline lint (pass 3).

An :class:`~repro.core.config.InferenceConfig` validates its own field
values eagerly, but some defects only exist in *combination* — with each
other or with the translator the config will run against:

* a checkpoint cadence without a checkpoint directory silently
  checkpoints nothing;
* a ``regenerate`` fault policy without any from-scratch sampler fails
  on the *first* particle fault, possibly hours in.

This pass catches those combinations statically, before any particle
work starts.  It is pure inspection: no model is executed.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, List, Optional

from ..core.config import FaultPolicy, InferenceConfig
from .diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..service.config import ServiceConfig

__all__ = ["lint_config", "lint_service_config"]

PASS_NAME = "config"
SERVICE_PASS_NAME = "service-config"


def lint_config(
    config: InferenceConfig, translator: Optional[Any] = None
) -> List[Diagnostic]:
    """Lint one config, optionally against the translator it will drive.

    Returns findings only — construction-time invariants (unknown
    schemes, negative checkpoint cadences, ...) are already enforced by
    ``InferenceConfig.__post_init__`` and cannot reach this function.
    """
    diagnostics: List[Diagnostic] = []

    def finding(severity: str, message: str, code: str) -> None:
        diagnostics.append(
            Diagnostic(severity, message, code=code, pass_name=PASS_NAME)
        )

    policy = FaultPolicy.coerce(config.fault_policy)

    # -- checkpointing ------------------------------------------------------
    if config.checkpoint_every != 1 and config.checkpoint_dir is None:
        finding(
            "warning",
            f"checkpoint_every={config.checkpoint_every} has no effect "
            "because checkpoint_dir is None; no checkpoints will be "
            "written",
            "config-checkpoint-cadence",
        )

    # -- resampling ---------------------------------------------------------
    if config.resample == "never" and config.ess_threshold != 0.5:
        finding(
            "warning",
            f"ess_threshold={config.ess_threshold} has no effect because "
            "resample is 'never'; set resample='adaptive' for "
            "ESS-triggered resampling",
            "config-ess-ignored",
        )

    # -- fault policy -------------------------------------------------------
    if policy.mode == "regenerate":
        has_fallback = policy.regenerate_fn is not None or (
            translator is not None and hasattr(translator, "regenerate")
        )
        if not has_fallback:
            finding(
                "error",
                "fault_policy 'regenerate' needs a from-scratch sampler, "
                "but regenerate_fn is None and the translator has no "
                "regenerate method; the first particle fault will fail "
                "the run",
                "config-no-regenerate",
            )
    if policy.mode == "drop" and config.resample == "never":
        finding(
            "warning",
            "fault_policy 'drop' gives failed particles -inf weight, but "
            "resample='never' keeps the dead particles in the collection "
            "for every subsequent step; consider resample='adaptive'",
            "config-drop-accumulates",
        )

    # -- ablations ----------------------------------------------------------
    if not config.use_weights:
        finding(
            "info",
            "use_weights=False discards translator weight increments (the "
            "paper's 'no weights' ablation); the collection converges to "
            "the wrong posterior",
            "config-no-weights",
        )
    return diagnostics


def lint_service_config(config: "ServiceConfig") -> List[Diagnostic]:
    """Lint a :class:`~repro.service.config.ServiceConfig` for field
    *combinations* that admit traffic the server cannot actually serve.

    ``ServiceConfig.__post_init__`` already rejects nonsense values
    (negative deadlines, zero shards); this pass flags the legal-but-
    self-defeating ones an operator typically discovers under load.
    """
    diagnostics: List[Diagnostic] = []

    def finding(severity: str, message: str, code: str) -> None:
        diagnostics.append(
            Diagnostic(severity, message, code=code, pass_name=SERVICE_PASS_NAME)
        )

    # -- deadlines ----------------------------------------------------------
    if (
        config.expected_step_latency_s is not None
        and config.default_deadline_s < config.expected_step_latency_s
    ):
        finding(
            "error",
            f"default_deadline_s={config.default_deadline_s} is below the "
            f"observed median step latency "
            f"({config.expected_step_latency_s}s): the typical request "
            "times out by construction; raise the deadline or shrink the "
            "workload (fewer particles, smaller edits)",
            "service-deadline-too-short",
        )

    # -- quotas -------------------------------------------------------------
    if config.max_sessions_per_tenant == 0:
        finding(
            "warning",
            "max_sessions_per_tenant=0 rejects every create with "
            "quota_exceeded: no tenant can ever open a session",
            "service-zero-quota",
        )
    if config.max_inflight_per_tenant == 0:
        finding(
            "warning",
            "max_inflight_per_tenant=0 rejects every mutating request with "
            "quota_exceeded: sessions can be created but never used",
            "service-zero-quota",
        )

    # -- backpressure -------------------------------------------------------
    if config.queue_depth == 0:
        finding(
            "warning",
            "queue_depth=0 makes the per-shard queue unbounded: overload "
            "buffers requests without limit instead of rejecting with "
            "retry-after, and the shedding rung never engages; set a "
            "finite depth",
            "service-unbounded-queue",
        )
    elif config.default_priority >= config.shed_protect_priority:
        finding(
            "warning",
            f"default_priority={config.default_priority} >= "
            f"shed_protect_priority={config.shed_protect_priority}: every "
            "unlisted tenant is shed-protected, so the shedding rung of "
            "the degradation ladder never sheds anyone",
            "service-shed-noop",
        )

    # -- durability ---------------------------------------------------------
    if config.store_dir is None:
        finding(
            "info",
            "store_dir=None runs the service fully in-memory: no crash "
            "recovery, and posterior reads cannot degrade to a snapshot "
            "when a worker wedges",
            "service-no-durability",
        )
    elif config.checkpoint_keep < 2:
        finding(
            "warning",
            f"checkpoint_keep={config.checkpoint_keep} retains a single "
            "commit snapshot per session: a crash mid-write can tear the "
            "only copy and lose the session; keep at least 2",
            "service-checkpoint-keep",
        )

    # -- scale-out ----------------------------------------------------------
    cpus = os.cpu_count() or 1
    if config.shard_processes > cpus:
        finding(
            "warning",
            f"shard_processes={config.shard_processes} exceeds the "
            f"{cpus} CPU(s) on this host: shard worker processes will "
            "time-slice one another and the scaling series goes *down*, "
            "not up; cap shard_processes at the core count",
            "service-shards-exceed-cpus",
        )
    if config.replicate and config.store_dir is None:
        finding(
            "error",
            "replicate=True without store_dir: replica refresh replays "
            "commit snapshots from the durable store, so with no "
            "checkpoint directory there is nothing to replicate *from* "
            "and a shard-process kill loses every session it owned; set "
            "store_dir (failover recovers from fsynced checkpoints)",
            "service-replication-without-checkpoint-dir",
        )
    return diagnostics
