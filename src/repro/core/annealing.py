"""Sequential-observation SMC as a special case of trace translation.

Related work (Section 8) notes that previous SMC-for-PPL systems handle
one specific kind of incrementality: *sequential observation of data*.
The paper's framework strictly generalizes it, and this module makes
that concrete: a sequence of programs that differ only by additional
observations (and possibly additional latent structure, as in particle
filtering for state-space models) is translated with the *full identity*
correspondence, and Algorithm 2 reduces exactly to a classic particle
filter — the weight increment for each step is the likelihood of the
newly observed data.

Entry points:

* :func:`observation_schedule` — build the program sequence
  ``P_0, P_1, ...`` from a base model, per-step arguments, and per-step
  observation batches;
* :func:`sequential_observations` — run the whole filter and return the
  per-step results (reusing :func:`repro.core.smc.infer_sequence`).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from .config import InferenceConfig
from .correspondence import Correspondence
from .corr_translator import CorrespondenceTranslator
from .model import ChoiceMapLike, Model
from .smc import SMCStep, infer_sequence
from .weighted import WeightedCollection

__all__ = [
    "full_identity_correspondence",
    "observation_schedule",
    "sequential_observations",
    "interpolated_schedule",
    "annealed_importance_sampling",
]


def _every_address(_address: Any) -> bool:
    return True


def full_identity_correspondence() -> Correspondence:
    """Identity over *all* addresses: reuse every latent that persists."""
    return Correspondence.identity_by_predicate(_every_address)


def observation_schedule(
    base: Model,
    batches: Sequence[ChoiceMapLike],
    args_per_step: Optional[Sequence[Tuple[Any, ...]]] = None,
) -> List[Model]:
    """Programs ``P_0..P_T`` with cumulatively more observations.

    ``P_k`` conditions on batches ``0..k``; if ``args_per_step`` is
    given, ``P_k`` additionally uses ``args_per_step[k]`` (e.g. the
    number of time steps of a state-space model, so new latents appear
    along with their observations).
    """
    if args_per_step is not None and len(args_per_step) != len(batches):
        raise ValueError("args_per_step must match the number of batches")
    models: List[Model] = []
    current = base
    for index, batch in enumerate(batches):
        if args_per_step is not None:
            current = current.with_args(*args_per_step[index])
        current = current.condition(batch)
        models.append(current)
    return models


def sequential_observations(
    models: Sequence[Model],
    num_particles: int,
    rng: np.random.Generator,
    mcmc_kernels: Optional[Sequence] = None,
    *,
    config: Optional[InferenceConfig] = None,
) -> Tuple[WeightedCollection, List[SMCStep]]:
    """Run a particle filter over an observation schedule.

    Initializes particles from ``models[0]`` (latents from the prior,
    weights equal to the first batch's likelihood), then runs one
    Algorithm-2 step per subsequent program with the full identity
    correspondence.  Returns the final weighted collection and the
    per-step diagnostics.

    ``config`` defaults to the classic particle-filter setting
    (adaptive systematic resampling at half the particle count).
    """
    if config is None:
        config = InferenceConfig(resample="adaptive", resampling_scheme="systematic")
    if num_particles < 1:
        raise ValueError("need at least one particle")
    if not models:
        raise ValueError("need at least one model in the schedule")

    traces, log_weights = [], []
    for _ in range(num_particles):
        trace, log_weight = models[0].generate(rng)
        traces.append(trace)
        log_weights.append(log_weight)
    collection = WeightedCollection(traces, log_weights)
    if len(models) == 1:
        return collection, []

    correspondence = full_identity_correspondence()
    translators = [
        CorrespondenceTranslator(models[i], models[i + 1], correspondence)
        for i in range(len(models) - 1)
    ]
    steps = infer_sequence(
        translators, collection, rng, mcmc_kernels=mcmc_kernels, config=config
    )
    return steps[-1].collection, steps


def interpolated_schedule(
    make_model: Callable[[float], Model], num_steps: int
) -> List[Model]:
    """Models along a tempering path ``make_model(0) .. make_model(1)``.

    ``make_model(t)`` must return the program at inverse temperature
    ``t`` (e.g. with observation strength or a prior parameter
    interpolated); all latents should keep their addresses so the full
    identity correspondence reuses them.
    """
    if num_steps < 2:
        raise ValueError("a tempering path needs at least two steps")
    return [make_model(i / (num_steps - 1)) for i in range(num_steps)]


def annealed_importance_sampling(
    make_model: Callable[[float], Model],
    num_steps: int,
    num_particles: int,
    rng: np.random.Generator,
    mcmc_kernel_for: Optional[Callable[[Model], Any]] = None,
    *,
    config: Optional[InferenceConfig] = None,
    step_offset: int = 0,
    initial_collection: Optional[WeightedCollection] = None,
    initial_log_ratio: float = 0.0,
) -> Tuple[WeightedCollection, float]:
    """Annealed importance sampling [Neal 2001] via trace translation.

    Related work (Section 8) observes that solving a sequence of
    incrementally modified inference problems "is often used
    instrumentally in statistics as a means of solving the final
    inference problem more efficiently", citing AIS.  This function
    realizes that use: particles start at ``make_model(0)`` (typically
    the prior or a tractable surrogate) and are translated along the
    interpolation path to ``make_model(1)``, optionally rejuvenated at
    each rung with ``mcmc_kernel_for(model_k)``.

    Returns the final weighted collection and the log of the estimated
    normalizing-constant ratio ``log(Z_1 / Z_0)``.

    When the config sets ``checkpoint_dir``, every rung's collection and
    the RNG state at the rung boundary are snapshotted through
    :class:`~repro.store.CheckpointManager` (cadence
    ``checkpoint_every``; the final rung is always saved).  Each
    checkpoint's ``extra`` carries the running ``log_ratio``, so a
    killed run resumes byte-identically::

        ck = CheckpointManager(directory).load_latest()
        annealed_importance_sampling(
            make_model, num_steps, num_particles, ck.rng,
            step_offset=ck.step + 1,
            initial_collection=ck.collection,
            initial_log_ratio=ck.extra["log_ratio"],
        )

    ``step_offset`` counts completed rungs: rung ``k`` translates
    ``models[k]`` to ``models[k + 1]``.
    """
    from .smc import _resolve_config_checkpoints, infer

    if config is None:
        config = InferenceConfig(resample="adaptive", resampling_scheme="systematic")
    if step_offset < 0:
        raise ValueError(f"step_offset must be >= 0, got {step_offset}")
    models = interpolated_schedule(make_model, num_steps)
    if step_offset >= len(models):
        raise ValueError(
            f"step_offset {step_offset} leaves no rungs in a {num_steps}-step path"
        )
    if initial_collection is not None:
        collection = initial_collection
    elif step_offset != 0:
        raise ValueError("resuming with step_offset requires initial_collection")
    else:
        traces, log_weights = [], []
        for _ in range(num_particles):
            trace, log_weight = models[0].generate(rng)
            traces.append(trace)
            log_weights.append(log_weight)
        collection = WeightedCollection(traces, log_weights)

    checkpoints = _resolve_config_checkpoints(config)
    correspondence = full_identity_correspondence()
    log_ratio = float(initial_log_ratio)
    remaining = list(zip(models, models[1:]))[step_offset:]
    for local_index, (previous, current) in enumerate(remaining):
        step_index = step_offset + local_index
        translator = CorrespondenceTranslator(previous, current, correspondence)
        kernel = mcmc_kernel_for(current) if mcmc_kernel_for is not None else None
        step = infer(translator, collection, rng, mcmc_kernel=kernel, config=config)
        log_ratio += step.stats.log_mean_weight_increment
        collection = step.collection
        if checkpoints is not None:
            checkpoints.maybe_save(
                step_index,
                collection,
                rng=rng,
                extra={"log_ratio": log_ratio, "stats": step.stats},
                force=local_index == len(remaining) - 1,
            )
    return collection, log_ratio
