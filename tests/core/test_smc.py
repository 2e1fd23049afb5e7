"""Tests for Algorithm 2 (SMC with trace translators) and program sequences."""

import numpy as np
import pytest

from repro import (
    Correspondence,
    CorrespondenceTranslator,
    InferenceConfig,
    Model,
    WeightedCollection,
    exact_choice_marginal,
    exact_posterior_sampler,
    infer,
    infer_sequence,
)
from repro.core.mcmc import gibbs_sweep
from repro.distributions import Flip


def make_flip_model(p_x, p_obs_given_x1, p_obs_given_x0):
    def fn(t):
        x = t.sample(Flip(p_x), "x")
        t.observe(Flip(p_obs_given_x1 if x else p_obs_given_x0), 1, "o")
        return x

    return Model(fn, name=f"flip({p_x})")


@pytest.fixture
def source_model():
    return make_flip_model(0.5, 0.9, 0.2)


@pytest.fixture
def target_model():
    return make_flip_model(0.4, 0.85, 0.25)


@pytest.fixture
def translator(source_model, target_model):
    return CorrespondenceTranslator(
        source_model, target_model, Correspondence.identity(["x"])
    )


def posterior_input(model, rng, size):
    sampler = exact_posterior_sampler(model)
    return WeightedCollection.uniform([sampler(rng) for _ in range(size)])


class TestInfer:
    def test_estimate_matches_target_posterior(self, translator, source_model, target_model, rng):
        collection = posterior_input(source_model, rng, 8000)
        step = infer(translator, collection, rng)
        truth = exact_choice_marginal(target_model, "x")[1]
        estimate = step.collection.estimate_probability(lambda u: u["x"] == 1)
        assert estimate == pytest.approx(truth, abs=0.02)

    def test_no_weights_converges_to_source_posterior(
        self, translator, source_model, rng
    ):
        """The paper's "Incremental (no weights)" ablation converges to η
        (here: P's posterior pushed through reuse), not Q's posterior."""
        collection = posterior_input(source_model, rng, 8000)
        step = infer(translator, collection, rng, config=InferenceConfig(use_weights=False))
        truth_p = exact_choice_marginal(source_model, "x")[1]
        estimate = step.collection.estimate_probability(lambda u: u["x"] == 1)
        assert estimate == pytest.approx(truth_p, abs=0.02)

    def test_resample_always(self, translator, source_model, rng):
        collection = posterior_input(source_model, rng, 500)
        step = infer(translator, collection, rng, config=InferenceConfig(resample="always"))
        assert step.stats.resampled
        assert all(w == 0.0 for w in step.collection.log_weights)

    def test_resample_adaptive_triggers_on_low_ess(self, source_model, rng):
        # An extreme prior change degrades the ESS, triggering adaptive resampling.
        target = make_flip_model(0.01, 0.9, 0.2)
        translator = CorrespondenceTranslator(
            source_model, target, Correspondence.identity(["x"])
        )
        collection = posterior_input(source_model, rng, 400)
        step = infer(
            translator,
            collection,
            rng,
            config=InferenceConfig(resample="adaptive", ess_threshold=0.9),
        )
        assert step.stats.resampled

    def test_invalid_resample_policy(self, translator, source_model, rng):
        collection = posterior_input(source_model, rng, 10)
        with pytest.raises(ValueError):
            infer(translator, collection, rng, config=InferenceConfig(resample="sometimes"))

    def test_mcmc_rejuvenation_improves_no_correspondence(self, source_model, target_model, rng):
        """With an empty correspondence and Gibbs rejuvenation, the output
        still matches the target posterior (MCMC leaves it invariant)."""
        translator = CorrespondenceTranslator(
            source_model, target_model, Correspondence.empty()
        )
        collection = posterior_input(source_model, rng, 4000)
        kernel = gibbs_sweep(target_model, ["x"])
        step = infer(
            translator,
            collection,
            rng,
            mcmc_kernel=kernel,
            config=InferenceConfig(resample="always"),
        )
        truth = exact_choice_marginal(target_model, "x")[1]
        estimate = step.collection.estimate_probability(lambda u: u["x"] == 1)
        assert estimate == pytest.approx(truth, abs=0.02)

    def test_stats_fields(self, translator, source_model, rng):
        collection = posterior_input(source_model, rng, 100)
        step = infer(translator, collection, rng)
        stats = step.stats
        assert stats.num_traces == 100
        assert 1.0 <= stats.ess_before_resample <= 100.0
        assert stats.translate_seconds >= 0.0
        assert "SMC step" in str(stats)


class TestInferSequence:
    def test_three_step_sequence(self, rng):
        """Iterate Algorithm 2 across a drifting sequence of programs."""
        params = [(0.5, 0.9, 0.2), (0.45, 0.85, 0.25), (0.4, 0.8, 0.3), (0.35, 0.8, 0.3)]
        models = [make_flip_model(*p) for p in params]
        translators = [
            CorrespondenceTranslator(models[i], models[i + 1], Correspondence.identity(["x"]))
            for i in range(len(models) - 1)
        ]
        initial = posterior_input(models[0], rng, 6000)
        steps = infer_sequence(
            translators, initial, rng, config=InferenceConfig(resample="adaptive")
        )
        assert len(steps) == 3
        final = steps[-1].collection
        truth = exact_choice_marginal(models[-1], "x")[1]
        estimate = final.estimate_probability(lambda u: u["x"] == 1)
        assert estimate == pytest.approx(truth, abs=0.03)

    def test_kernel_count_mismatch_raises(self, translator, source_model, rng):
        initial = posterior_input(source_model, rng, 10)
        with pytest.raises(ValueError):
            infer_sequence([translator], initial, rng, mcmc_kernels=[None, None])
