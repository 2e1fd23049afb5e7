"""Edge-case tests for SMC statistics and the evidence increment."""

import math

import numpy as np
import pytest

from repro import (
    Correspondence,
    CorrespondenceTranslator,
    InferenceConfig,
    Model,
    WeightedCollection,
    infer,
    log_normalizer,
)
from repro.distributions import Flip


def make_model(p_obs):
    def fn(t):
        x = t.sample(Flip(0.5), "x")
        t.observe(Flip(p_obs if x else 1 - p_obs), 1, "o")
        return x

    return Model(fn)


@pytest.fixture
def translator():
    return CorrespondenceTranslator(
        make_model(0.7), make_model(0.8), Correspondence.identity(["x"])
    )


class TestEvidenceIncrement:
    def test_weighted_input_uses_normalized_weights(self, translator, rng):
        """The increment is Σ_j W_j ŵ_j over the input's normalized
        weights; with a degenerate input it equals the surviving
        particle's own weight estimate."""
        source = translator.source
        trace1 = source.score({"x": 1})
        trace0 = source.score({"x": 0})
        collection = WeightedCollection([trace1, trace0], [0.0, -300.0])
        step = infer(translator, collection, rng)
        # The x=1 particle dominates: its increment is
        # P̃r_Q(x=1) / P̃r_P(x=1) = (0.5·0.8)/(0.5·0.7).
        assert step.stats.log_mean_weight_increment == pytest.approx(
            math.log(0.8 / 0.7)
        )

    def test_uniform_input_recovers_z_ratio_statistically(self, translator, rng):
        from repro import exact_posterior_sampler

        sampler = exact_posterior_sampler(translator.source)
        estimates = []
        for _ in range(50):
            collection = WeightedCollection.uniform([sampler(rng) for _ in range(200)])
            step = infer(translator, collection, rng)
            estimates.append(step.stats.log_mean_weight_increment)
        truth = log_normalizer(translator.target) - log_normalizer(translator.source)
        assert np.mean(estimates) == pytest.approx(truth, abs=0.01)

    def test_no_weights_still_reports_increment(self, translator, rng):
        source = translator.source
        collection = WeightedCollection.uniform([source.score({"x": 1})] * 5)
        step = infer(translator, collection, rng, config=InferenceConfig(use_weights=False))
        # Output weights unchanged, but the diagnostic is still computed.
        assert all(w == 0.0 for w in step.collection.log_weights)
        assert math.isfinite(step.stats.log_mean_weight_increment)


class TestStatsShape:
    def test_timing_fields_nonnegative(self, translator, rng):
        source = translator.source
        collection = WeightedCollection.uniform([source.score({"x": 1})] * 10)
        step = infer(translator, collection, rng)
        assert step.stats.translate_seconds >= 0.0
        assert step.stats.mcmc_seconds >= 0.0
        assert step.stats.ess_after == pytest.approx(
            step.collection.effective_sample_size()
        )

    def test_resampled_flag_consistency(self, translator, rng):
        source = translator.source
        collection = WeightedCollection.uniform([source.score({"x": 1})] * 10)
        never = infer(translator, collection, rng, config=InferenceConfig(resample="never"))
        always = infer(translator, collection, rng, config=InferenceConfig(resample="always"))
        assert not never.stats.resampled
        assert always.stats.resampled
