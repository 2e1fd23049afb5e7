"""Sequential Monte Carlo with trace translators (Section 4.2).

:func:`infer` is Algorithm 2 of the paper: translate every trace of the
input collection with the trace translator, update the weights, resample
if requested (or when the effective sample size drops below a
threshold), and optionally rejuvenate each trace with an MCMC kernel
whose invariant distribution is the target posterior.

:func:`infer_sequence` iterates Algorithm 2 across a sequence of
programs, which is how the paper proposes to follow an iterative
model-editing session while retaining the guarantee of Lemma 2.

Configuration
-------------

Both entry points take a keyword-only :class:`InferenceConfig` bundling
the resampling policy, ESS threshold, resampling scheme, weight
ablation, fault policy, RNG seed, and the observability sinks (span
tracer, metrics registry, profiling hooks)::

    step = infer(translator, traces, rng,
                 config=InferenceConfig(resample="adaptive",
                                        fault_policy="drop"))

One translate loop
------------------

The translate phase treats particles independently (Lemma 2), and the
step runs it as one inline loop in which every particle draws from the
shared step RNG.  Particle executors and log-prob memoization do not
beat this loop on the cheap densities of this repository's workloads
(measurements in ``docs/performance.md``); the vectorized alternative is
the columnar runtime (``InferenceConfig(collection="columnar")``).

Observability
-------------

With a real tracer attached, each step records the span tree
``smc.step`` → {``smc.translate`` → ``translate.particle``*,
``smc.resample``, ``smc.mcmc``}; the ``SMCStats`` timing fields read
directly from the phase spans (with the default null tracer the spans
still measure wall time but record nothing).  Hooks fire at the step's
structural boundaries and the metrics registry tallies particles,
faults, resamples, and per-step ESS.  All instrumentation is RNG-free:
enabling it never changes the sampled traces or weights.

Fault isolation
---------------

The paper assumes every translation succeeds; in practice translations
fail in structured ways (see :mod:`repro.errors`).  A
:class:`FaultPolicy` decides what one failed particle does to the
collection:

* ``fail_fast`` (default) — re-raise immediately, preserving the
  pre-policy behaviour exactly;
* ``drop`` — assign the particle ``-inf`` weight (it contributes
  nothing to estimates and disappears at the next resampling);
* ``regenerate`` — retry the translation up to ``max_retries`` times,
  then replace the particle with a fresh importance sample of the
  target posterior drawn from the prior (``translator.regenerate`` or
  ``FaultPolicy.regenerate_fn``).  The regenerated particle's weight is
  its importance weight, so the collection remains a mixture of two
  properly weighted populations and self-normalized estimates
  (Equation 5) stay consistent — Lemma 2's guarantee degrades to plain
  importance sampling for the affected particle instead of failing.

Independent of the policy, a collection-level degeneracy guard rejects
``NaN``/``+inf`` weights and total weight collapse *before* they reach
resampling, raising :class:`~repro.errors.NumericalError` or
:class:`~repro.errors.DegeneracyError` with the offending step context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import RECOVERABLE_ERRORS, DegeneracyError, NumericalError
from .config import FaultPolicy, InferenceConfig, RegenerateFn
from .mcmc import Kernel
from .translator import TraceTranslator, validate_result
from .weighted import WeightedCollection, log_sum_exp_array

__all__ = [
    "SMCStep",
    "infer",
    "infer_sequence",
    "translate_particle",
    "SMCStats",
    "FaultPolicy",
    "InferenceConfig",
]

NEG_INF = float("-inf")


@dataclass
class SMCStats:
    """Diagnostics from one Algorithm-2 step.

    The timing fields are read from the tracer's phase spans
    (``smc.translate`` / ``smc.mcmc``); with the null tracer the spans
    still measure wall time, so the fields are populated either way.
    The fault counters are all zero under ``fail_fast`` (any fault
    raises instead of being counted).  ``failed`` counts translation
    *attempts* that raised a recoverable error or produced an invalid
    weight, so ``failed >= dropped + regenerated`` whenever retries are
    enabled; ``retried`` counts the re-attempts among them.

    ``spill_code`` is the :class:`~repro.core.columnar.ColumnarSpill`
    reason code when a columnar-configured step fell back to the object
    path, and ``None`` when nothing spilled (including every step of an
    object-configured run).
    """

    num_traces: int
    ess_before_resample: float
    ess_after: float
    resampled: bool
    log_mean_weight_increment: float
    translate_seconds: float
    mcmc_seconds: float
    failed: int = 0
    retried: int = 0
    dropped: int = 0
    regenerated: int = 0
    mcmc_failed: int = 0
    #: Which runtime executed the step: ``"object"`` (one Trace per
    #: particle) or ``"columnar"`` (address-major arrays, see
    #: :mod:`repro.core.columnar`).  A columnar-configured step that
    #: spilled reports ``"object"`` — the field records what actually
    #: ran, not what was requested.
    collection_mode: str = "object"
    spill_code: Optional[str] = None

    @property
    def total_faults(self) -> int:
        return self.failed + self.mcmc_failed

    def __str__(self) -> str:
        resampled = "yes" if self.resampled else "no"
        text = (
            f"SMC step: M={self.num_traces} ess={self.ess_before_resample:.1f}"
            f" resampled={resampled} logZ-increment={self.log_mean_weight_increment:+.3f}"
            f" translate={self.translate_seconds:.3f}s mcmc={self.mcmc_seconds:.3f}s"
        )
        if self.total_faults:
            text += (
                f" faults[failed={self.failed} retried={self.retried}"
                f" dropped={self.dropped} regenerated={self.regenerated}"
                f" mcmc_failed={self.mcmc_failed}]"
            )
        return text


@dataclass
class SMCStep:
    """Result of one Algorithm-2 step: the new collection plus stats.

    ``collection`` is a :class:`~repro.core.weighted.WeightedCollection`
    under the default object runtime and a
    :class:`~repro.core.columnar.ColumnarCollection` when the step ran
    columnar (``InferenceConfig(collection="columnar")``); both expose
    the same estimation/diagnostics surface (``estimate``,
    ``effective_sample_size``, ``log_mean_weight``, ...).
    """

    collection: Any
    stats: SMCStats


def _resolve_regenerate(policy: FaultPolicy, translator: TraceTranslator) -> Optional[RegenerateFn]:
    if policy.mode != "regenerate":
        return None
    if policy.regenerate_fn is not None:
        return policy.regenerate_fn
    regenerate = getattr(translator, "regenerate", None)
    if regenerate is None:
        raise ValueError(
            f"fault policy 'regenerate' needs a from-scratch sampler, but "
            f"{type(translator).__name__} has no regenerate(rng) method; "
            "pass FaultPolicy(mode='regenerate', regenerate_fn=...) instead"
        )
    return regenerate


def _degeneracy_guard(log_weights: Sequence[float], context: str) -> None:
    """Reject NaN / +inf weights and total collapse before resampling."""
    weights = np.asarray(log_weights, dtype=float)
    if np.isnan(weights).any():
        raise NumericalError(
            f"NaN particle weights {context} at indices "
            f"{np.flatnonzero(np.isnan(weights)).tolist()}"
        )
    if np.isposinf(weights).any():
        raise NumericalError(
            f"+inf particle weights {context} at indices "
            f"{np.flatnonzero(np.isposinf(weights)).tolist()}"
        )
    # Collapse is detected through the same vectorized log-sum-exp kernel
    # the normalizers use, so the guard and the estimators agree exactly
    # on what "zero total mass" means.
    if log_sum_exp_array(weights) == NEG_INF:
        raise DegeneracyError(
            f"every particle weight collapsed to zero {context}; the collection "
            "carries no information (consider the 'regenerate' fault policy, "
            "more particles, or a better correspondence)",
            num_particles=len(weights),
        )


#: Per-particle fault-counter deltas: (failed, retried, dropped, regenerated).
CounterDeltas = Tuple[int, int, int, int]


def translate_particle(
    translator: TraceTranslator,
    item: Any,
    rng: np.random.Generator,
    policy: FaultPolicy,
    regenerate_fn: Optional[RegenerateFn],
) -> Tuple[str, Any, float, CounterDeltas]:
    """Translate one particle under the fault policy.

    Returns ``(outcome, trace, value, counter_deltas)`` where outcome is
    ``"ok"`` (``value`` is the log-weight increment), ``"dropped"``
    (``value`` is ``-inf``), or ``"regenerated"`` (``value`` is the
    particle's new *absolute* log weight, not an increment), and
    ``counter_deltas`` is this particle's ``(failed, retried, dropped,
    regenerated)`` contribution to the step's fault counters.
    """
    if policy.mode == "fail_fast":
        result = validate_result(translator.translate(rng, item))
        return "ok", result.trace, result.log_weight, (0, 0, 0, 0)

    failed = retried = 0
    attempts_left = policy.max_retries if policy.mode == "regenerate" else 0
    first_attempt = True
    while True:
        try:
            if not first_attempt:
                retried += 1
            result = validate_result(translator.translate(rng, item))
            return "ok", result.trace, result.log_weight, (failed, retried, 0, 0)
        except RECOVERABLE_ERRORS:
            failed += 1
            first_attempt = False
            if attempts_left > 0:
                attempts_left -= 1
                continue
            break

    if policy.mode == "drop":
        return "dropped", item, NEG_INF, (failed, retried, 1, 0)

    assert regenerate_fn is not None  # resolved up front for this mode
    try:
        trace, log_weight = regenerate_fn(rng)
    except RECOVERABLE_ERRORS:
        # Even the fallback failed: degrade to dropping so one particle
        # still cannot take down the collection.
        return "dropped", item, NEG_INF, (failed + 1, retried, 1, 0)
    return "regenerated", trace, float(log_weight), (failed, retried, 0, 1)


#: Span counter names per translation outcome, precomputed to keep the
#: per-particle tracing path free of string formatting.
_OUTCOME_COUNTERS = {
    "ok": "outcome.ok",
    "dropped": "outcome.dropped",
    "regenerated": "outcome.regenerated",
}


@dataclass
class _FaultCounters:
    failed: int = 0
    retried: int = 0
    dropped: int = 0
    regenerated: int = 0
    mcmc_failed: int = 0

    def merge(self, deltas: CounterDeltas) -> None:
        failed, retried, dropped, regenerated = deltas
        self.failed += failed
        self.retried += retried
        self.dropped += dropped
        self.regenerated += regenerated


def _resolve_rng(
    caller: str, rng: Optional[np.random.Generator], config: InferenceConfig
) -> np.random.Generator:
    if rng is not None:
        return rng
    if config.seed is not None:
        return config.rng()
    raise TypeError(f"{caller}() needs an rng (or an InferenceConfig with a seed)")


def _resolve_config_checkpoints(config: InferenceConfig) -> Any:
    """Build the CheckpointManager for ``config.checkpoint_dir`` (or None).

    Lazy: the default unconfigured path must not import (or pay for)
    :mod:`repro.store`.
    """
    if config.checkpoint_dir is None:
        return None
    from ..store import CheckpointManager

    return CheckpointManager(config.checkpoint_dir, every=config.checkpoint_every)


def _run_preflight(
    translators: Sequence[TraceTranslator],
    config: InferenceConfig,
) -> None:
    """The opt-in static pre-flight (``config.validate``).

    Lazy like the checkpoint resolver: ``validate="off"`` (the
    default) never imports :mod:`repro.analysis`, and the check runs
    once per ``infer``/``infer_sequence`` call — never per particle or
    per step.
    """
    if config.validate == "off":
        return
    from ..analysis.preflight import apply_validation_mode, preflight_inference

    apply_validation_mode(config.validate, preflight_inference(translators, config))


def _infer_step(
    translator: TraceTranslator,
    traces: WeightedCollection,
    rng: np.random.Generator,
    mcmc_kernel: Optional[Kernel],
    config: InferenceConfig,
    step_index: Optional[int] = None,
) -> SMCStep:
    """One Algorithm-2 step under an already-validated config."""
    spill_code: Optional[str] = None
    if config.collection == "columnar":
        from .columnar import ColumnarSpill, columnar_infer_step

        try:
            return columnar_infer_step(
                translator, traces, rng, mcmc_kernel, config, step_index=step_index
            )
        except ColumnarSpill as spill:
            # Spill: this step cannot be represented columnar — fall
            # through to the object path.  Spill checks that can fire on
            # a representable population run before any randomness is
            # consumed, so the replay below is byte-identical to a pure
            # object-mode run of the same step.
            spill_code = spill.code
            if config.metrics.enabled:
                config.metrics.counter(f"smc.columnar.spills.{spill_code}").inc()
    if not isinstance(traces, WeightedCollection):
        # Columnar input reaching the object path (spill, or a config
        # switch mid-sequence): materialize object traces once.
        traces = traces.to_weighted()
    policy: FaultPolicy = config.fault_policy  # coerced by InferenceConfig
    regenerate_fn = _resolve_regenerate(policy, translator)
    counters = _FaultCounters()
    tracer, metrics, hooks = config.tracer, config.metrics, config.hooks
    trace_enabled = tracer.enabled

    if trace_enabled or metrics.enabled:
        bind = getattr(translator, "bind_observability", None)
        if bind is not None:
            bind(tracer, metrics)

    hooks.on_step_start(step_index, len(traces))
    with tracer.span("smc.step") as step_span:
        new_items: List[Any] = []
        outcomes: List[str] = []
        #: Per-particle value: the log-weight increment for "ok", -inf for
        #: "dropped", the new absolute log weight for "regenerated".
        values: List[float] = []
        open_span = tracer.span  # hoisted: one bound-method lookup, not N
        on_particle = hooks.on_particle
        with tracer.span("smc.translate") as translate_span:
            # Every particle draws from the shared step RNG.
            for index, item in enumerate(traces.items):
                if trace_enabled:
                    with open_span("translate.particle") as particle_span:
                        outcome, trace, value, deltas = translate_particle(
                            translator, item, rng, policy, regenerate_fn
                        )
                        particle_span.count(_OUTCOME_COUNTERS[outcome])
                else:
                    outcome, trace, value, deltas = translate_particle(
                        translator, item, rng, policy, regenerate_fn
                    )
                counters.merge(deltas)
                on_particle(index, outcome)
                outcomes.append(outcome)
                new_items.append(trace)
                values.append(value)

        # Vectorized weight assembly: one numpy pass instead of a Python
        # branch per particle.  "ok" carries the old weight forward (plus
        # the increment unless ablated); "dropped" lands on -inf and
        # "regenerated" on its absolute importance weight — both of which
        # arrive pre-encoded in `values`.
        value_array = np.asarray(values, dtype=float)
        old_log_weights = np.asarray(traces.log_weights, dtype=float)
        ok_mask = np.fromiter(
            (outcome == "ok" for outcome in outcomes), dtype=bool, count=len(outcomes)
        )
        regenerated_mask = np.fromiter(
            (outcome == "regenerated" for outcome in outcomes),
            dtype=bool,
            count=len(outcomes),
        )
        carried = (
            old_log_weights + value_array if config.use_weights else old_log_weights
        )
        new_log_weights = np.where(ok_mask, carried, value_array)
        collection: WeightedCollection = WeightedCollection(
            new_items,
            new_log_weights.tolist(),
            metadata=None if traces.metadata is None else list(traces.metadata),
        )

        # Incremental evidence estimate, entirely in log space:
        # logsumexp_j(log W_j + d_j) with W the input's normalized weights
        # (estimates Z_Q / Z_P; chains across steps into the standard SMC
        # marginal-likelihood estimator).  Regenerated particles are
        # excluded — they have no translation increment — while dropped
        # particles contribute exactly zero mass via d = -inf.  Log space
        # keeps particles whose linear weight underflows exp() in the sum.
        input_log_norm = traces.log_normalized_weights()
        log_mean_increment = float(
            log_sum_exp_array((input_log_norm + value_array)[~regenerated_mask])
        )

        _degeneracy_guard(collection.log_weights, "after translation")
        ess_before = collection.effective_sample_size()
        should_resample = config.resample == "always" or (
            config.resample == "adaptive"
            and ess_before < config.ess_threshold * len(collection)
        )
        hooks.on_resample(ess_before, should_resample)
        if should_resample:
            with tracer.span("smc.resample"):
                collection = collection.resample(rng, scheme=config.resampling_scheme)

        with tracer.span("smc.mcmc") as mcmc_span:
            if mcmc_kernel is not None:
                if policy.contains_faults:
                    rejuvenated: List[Any] = []
                    for item, log_weight in zip(collection.items, collection.log_weights):
                        if log_weight == NEG_INF:
                            rejuvenated.append(item)  # dead particle; don't waste MCMC on it
                            continue
                        try:
                            rejuvenated.append(mcmc_kernel(rng, item))
                        except RECOVERABLE_ERRORS:
                            counters.mcmc_failed += 1
                            rejuvenated.append(item)  # keep the pre-kernel trace
                    collection = WeightedCollection(
                        rejuvenated,
                        list(collection.log_weights),
                        metadata=collection.metadata,
                    )
                else:
                    collection = collection.map(lambda trace: mcmc_kernel(rng, trace))

        if trace_enabled:
            step_span.count("particles", len(traces))
            step_span.count("faults", counters.failed + counters.mcmc_failed)

    if metrics.enabled:
        metrics.counter("smc.steps").inc()
        metrics.counter("smc.particles_translated").inc(len(traces))
        metrics.counter("smc.particles_dropped").inc(counters.dropped)
        metrics.counter("smc.particles_regenerated").inc(counters.regenerated)
        metrics.counter("smc.faults.failed").inc(counters.failed)
        metrics.counter("smc.faults.retried").inc(counters.retried)
        metrics.counter("smc.faults.mcmc_failed").inc(counters.mcmc_failed)
        if should_resample:
            metrics.counter("smc.resamples").inc()
        metrics.histogram("smc.ess_before_resample").observe(ess_before)
        metrics.histogram("smc.translate_seconds").observe(translate_span.duration)

    stats = SMCStats(
        num_traces=len(collection),
        ess_before_resample=ess_before,
        ess_after=collection.effective_sample_size(),
        resampled=should_resample,
        log_mean_weight_increment=log_mean_increment,
        translate_seconds=translate_span.duration,
        mcmc_seconds=mcmc_span.duration,
        failed=counters.failed,
        retried=counters.retried,
        dropped=counters.dropped,
        regenerated=counters.regenerated,
        mcmc_failed=counters.mcmc_failed,
        spill_code=spill_code,
    )
    hooks.on_step_end(stats)
    return SMCStep(collection, stats)


def infer(
    translator: TraceTranslator,
    traces: WeightedCollection,
    rng: Optional[np.random.Generator] = None,
    mcmc_kernel: Optional[Kernel] = None,
    *,
    config: Optional[InferenceConfig] = None,
) -> SMCStep:
    """One step of SMC for probabilistic programs (Algorithm 2).

    Parameters
    ----------
    translator:
        The trace translator ``R = (P, Q, k, l)``.
    traces:
        Weighted collection ``{(t_j, w_j)}`` approximating the posterior
        of ``P``.
    rng:
        The inference random source; may be omitted when ``config.seed``
        is set.
    mcmc_kernel:
        Optional rejuvenation kernel for ``Q`` (must leave the posterior
        of ``Q`` invariant); applied once per trace after translation.
        Under a containing fault policy, zero-weight particles are
        skipped and a kernel failure keeps the pre-kernel trace.
    config:
        Keyword-only :class:`InferenceConfig` carrying everything else:
        resampling policy/threshold/scheme, the weight ablation, the
        fault policy, the seed, and the observability sinks.
    """
    if config is None:
        config = InferenceConfig()
    rng = _resolve_rng("infer", rng, config)
    _run_preflight([translator], config)
    return _infer_step(translator, traces, rng, mcmc_kernel, config)


def infer_sequence(
    translators: Sequence[TraceTranslator],
    initial: WeightedCollection,
    rng: Optional[np.random.Generator] = None,
    mcmc_kernels: Optional[Sequence[Optional[Kernel]]] = None,
    *,
    config: Optional[InferenceConfig] = None,
    step_offset: int = 0,
    correspondence: Optional[str] = None,
) -> List[SMCStep]:
    """Iterate Algorithm 2 across a sequence of programs.

    ``translators[k]`` must translate from the target of
    ``translators[k-1]`` (programs are modified iteratively, Section 4.2
    "Multiple Steps and resample").  Returns the per-step results; the
    final collection is ``steps[-1].collection``.

    With ``correspondence="derive"``, pass *models* (the program after
    each edit) instead of translators: the adjacent correspondences are
    derived automatically via
    :func:`repro.derive.derive_sequence_translators`, so no hand-written
    address map is needed.

    Configuration follows :func:`infer` (one keyword-only
    :class:`InferenceConfig`, shared by every step) except that the
    default resampling policy is ``"adaptive"``.  The hooks' ``on_step_start``
    receives the step index, and a
    :class:`~repro.errors.DegeneracyError` raised mid-sequence is
    annotated with the index of the offending step.

    Checkpointing
    -------------

    With ``config.checkpoint_dir`` set, the collection and the RNG
    generator state are snapshotted through
    :class:`repro.store.CheckpointManager` after every
    ``config.checkpoint_every``-th step (and always after the final
    one).  ``step_offset`` shifts the global step indices — pass the
    resumed checkpoint's ``step + 1`` together with the *remaining*
    translators, and the continued run reports, checkpoints, and draws
    randomness exactly as the uninterrupted run would: because the
    generator state is captured at the step boundary, kill-and-resume
    reproduces the uninterrupted final collection byte for byte.
    """
    if correspondence is not None:
        if correspondence != "derive":
            raise ValueError(
                f"correspondence must be None or 'derive', got {correspondence!r}"
            )
        # Deferred: core must stay importable without the derive
        # subsystem (which itself imports core).
        from ..derive import derive_sequence_translators

        translators = derive_sequence_translators(translators)
    if config is None:
        config = InferenceConfig(resample="adaptive")
    rng = _resolve_rng("infer_sequence", rng, config)
    _run_preflight(list(translators), config)
    if mcmc_kernels is None:
        mcmc_kernels = [None] * len(translators)
    if len(mcmc_kernels) != len(translators):
        raise ValueError("one (possibly None) MCMC kernel per translator is required")
    if step_offset < 0:
        raise ValueError(f"step_offset must be >= 0, got {step_offset}")
    checkpoints = _resolve_config_checkpoints(config)

    steps: List[SMCStep] = []
    collection = initial
    for local_index, (translator, kernel) in enumerate(zip(translators, mcmc_kernels)):
        step_index = step_offset + local_index
        try:
            step = _infer_step(
                translator, collection, rng, kernel, config, step_index=step_index
            )
        except DegeneracyError as error:
            if error.step is None:
                error.step = step_index
            raise
        steps.append(step)
        collection = step.collection
        if checkpoints is not None:
            # The generator state is captured *after* the step, so a
            # resume replays the remaining steps with exactly the draws
            # the uninterrupted run would have made.
            checkpoints.maybe_save(
                step_index,
                collection,
                rng=rng,
                extra={"stats": step.stats},
                force=local_index == len(translators) - 1,
            )
    return steps
