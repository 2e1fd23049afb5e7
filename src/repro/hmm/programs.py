"""The HMM probabilistic programs of Listings 3-4, and experiment glue.

Hidden states live at addresses ``("hidden", i)`` and observations at
``("y", i)``, mirroring ``addr_hidden(i)`` / ``addr_y(i)`` in the paper.
Conditioning on a typed word constrains the ``("y", i)`` addresses
(observations are external constraints in the lightweight design,
Section 7.1).  The incremental-inference correspondence places each
hidden state in correspondence across the two programs —
:func:`hidden_state_correspondence` — exactly as in Section 7.3 ("we
placed each hidden state in correspondence ... there are no other
latent random choices in either P or Q").
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..core import Correspondence, Model, Trace, WeightedCollection
from ..distributions import LogCategorical
from .forward import ffbs_sample
from .model import FirstOrderParams, SecondOrderParams

__all__ = [
    "first_order_model",
    "second_order_model",
    "hidden_state_correspondence",
    "exact_first_order_trace",
    "hidden_sequence",
    "ground_truth_posterior_probability",
    "log_ground_truth_probability",
]


def _first_order_fn(t, params: FirstOrderParams, num_steps: int) -> List[int]:
    """Listing 3: first-order hidden Markov model."""
    states: List[int] = []
    if num_steps >= 1:
        states.append(t.sample(LogCategorical(params.log_initial), ("hidden", 0)))
    for i in range(1, num_steps):
        states.append(
            t.sample(LogCategorical(params.log_transition[states[i - 1]]), ("hidden", i))
        )
    for i in range(num_steps):
        t.sample(LogCategorical(params.log_observation[states[i]]), ("y", i))
    return states


def _second_order_fn(t, params: SecondOrderParams, num_steps: int) -> List[int]:
    """Listing 4: second-order hidden Markov model."""
    states: List[int] = []
    if num_steps >= 1:
        states.append(t.sample(LogCategorical(params.log_initial), ("hidden", 0)))
    if num_steps >= 2:
        states.append(
            t.sample(
                LogCategorical(params.log_first_transition[states[0]]), ("hidden", 1)
            )
        )
    for i in range(2, num_steps):
        states.append(
            t.sample(
                LogCategorical(params.log_transition[states[i - 2], states[i - 1]]),
                ("hidden", i),
            )
        )
    for i in range(num_steps):
        t.sample(LogCategorical(params.log_observation[states[i]]), ("y", i))
    return states


def _observation_map(observations: Sequence[int]):
    return {("y", i): int(obs) for i, obs in enumerate(observations)}


def first_order_model(
    params: FirstOrderParams, observations: Optional[Sequence[int]] = None
) -> Model:
    """The conditioned first-order program ``P``."""
    num_steps = len(observations) if observations is not None else 0
    model = Model(_first_order_fn, args=(params, num_steps), name="first_order_hmm")
    if observations is not None:
        model = model.condition(_observation_map(observations))
    return model


def second_order_model(
    params: SecondOrderParams, observations: Optional[Sequence[int]] = None
) -> Model:
    """The conditioned second-order program ``Q``."""
    num_steps = len(observations) if observations is not None else 0
    model = Model(_second_order_fn, args=(params, num_steps), name="second_order_hmm")
    if observations is not None:
        model = model.condition(_observation_map(observations))
    return model


def _is_hidden_address(address) -> bool:
    return address[0] == "hidden"


def hidden_state_correspondence() -> Correspondence:
    """Identity correspondence over all ``("hidden", i)`` addresses."""
    return Correspondence.identity_by_predicate(_is_hidden_address)


def exact_first_order_trace(
    params: FirstOrderParams,
    observations: Sequence[int],
    rng: np.random.Generator,
    model: Optional[Model] = None,
) -> Trace:
    """One exact posterior trace of ``P`` via FFBS (Section 7.3's
    dynamic-programming exact sampler), materialized as a model trace."""
    states = ffbs_sample(params, observations, rng)
    if model is None:
        model = first_order_model(params, observations)
    return model.score({("hidden", i): s for i, s in enumerate(states)})


def hidden_sequence(trace: Trace) -> List[int]:
    """Extract the hidden state sequence from a trace."""
    states = []
    i = 0
    while ("hidden", i) in trace:
        states.append(trace[("hidden", i)])
        i += 1
    return states


def ground_truth_posterior_probability(
    collection: WeightedCollection, truth: Sequence[int]
) -> float:
    """Average per-character posterior probability of the ground truth.

    The Figure 9 accuracy metric: for each character position, the
    weighted fraction of traces whose hidden state equals the ground
    truth, averaged over positions.
    """
    truth = list(truth)
    if not truth:
        raise ValueError("ground truth sequence must be non-empty")
    per_character = [
        collection.estimate_probability(
            lambda trace, i=i: trace[("hidden", i)] == truth[i]
        )
        for i in range(len(truth))
    ]
    return float(np.mean(per_character))


def log_ground_truth_probability(
    collection: WeightedCollection, truth: Sequence[int], floor: float = 1e-6
) -> float:
    """Log of the average ground-truth posterior probability (Figure 9's
    y-axis).  Probabilities are floored to keep the log finite when no
    sampled trace matches a character."""
    return math.log(max(ground_truth_posterior_probability(collection, truth), floor))
