"""Tests for the regression substrate (Section 7.2)."""

import math

import numpy as np
import pytest
from scipy import stats

from repro import CorrespondenceTranslator, InferenceConfig, WeightedCollection, infer
from repro.core.mcmc import chain, cycle, random_walk_mh_site
from repro.distributions import Normal, TwoNormals
from repro.regression import (
    ADDR_INTERCEPT,
    ADDR_OUTLIER_LOG_VAR,
    ADDR_SLOPE,
    NoOutlierModelParams,
    OutlierModelParams,
    addr_y,
    coefficient_correspondence,
    conjugate_posterior,
    exact_regression_trace,
    hospital_like_dataset,
    no_outlier_model,
    outlier_model,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def data(rng):
    return hospital_like_dataset(rng, num_points=80)


@pytest.fixture
def p_params():
    return NoOutlierModelParams(prior_std=10.0, std=0.5)


@pytest.fixture
def q_params():
    return OutlierModelParams(prior_std=10.0, prob_outlier=0.1, inlier_std=0.5)


class TestDataset:
    def test_default_size_is_305(self, rng):
        assert hospital_like_dataset(rng).num_points == 305

    def test_outlier_fraction(self, rng):
        data = hospital_like_dataset(rng, num_points=5000, outlier_fraction=0.1)
        assert data.num_outliers / data.num_points == pytest.approx(0.1, abs=0.02)

    def test_linear_signal_recoverable(self, rng):
        data = hospital_like_dataset(rng, num_points=2000, outlier_fraction=0.0)
        slope, _intercept, _r, _p, _err = stats.linregress(data.xs, data.ys)
        assert slope == pytest.approx(data.true_slope, abs=0.05)

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            hospital_like_dataset(rng, num_points=1)
        with pytest.raises(ValueError):
            hospital_like_dataset(rng, outlier_fraction=1.5)


class TestConjugatePosterior:
    def test_matches_ridge_formula(self, data, p_params):
        posterior = conjugate_posterior(p_params, data.xs, data.ys)
        design = np.column_stack([np.ones_like(data.xs), data.xs])
        precision = design.T @ design / p_params.std**2 + np.eye(2) / p_params.prior_std**2
        expected_mean = np.linalg.solve(precision, design.T @ data.ys / p_params.std**2)
        assert posterior.mean == pytest.approx(expected_mean)

    def test_posterior_concentrates_with_data(self, rng, p_params):
        small = hospital_like_dataset(rng, num_points=10, outlier_fraction=0.0)
        large = hospital_like_dataset(rng, num_points=1000, outlier_fraction=0.0)
        var_small = conjugate_posterior(p_params, small.xs, small.ys).covariance[1, 1]
        var_large = conjugate_posterior(p_params, large.xs, large.ys).covariance[1, 1]
        assert var_large < var_small

    def test_samples_match_moments(self, data, p_params, rng):
        posterior = conjugate_posterior(p_params, data.xs, data.ys)
        draws = np.array([posterior.sample(rng) for _ in range(4000)])
        assert draws.mean(axis=0) == pytest.approx(posterior.mean, abs=0.02)

    def test_exact_trace_is_properly_scored(self, data, p_params, rng):
        posterior = conjugate_posterior(p_params, data.xs, data.ys)
        model = no_outlier_model(p_params, data.xs, data.ys)
        trace = exact_regression_trace(posterior, rng, model)
        slope, intercept = trace[ADDR_SLOPE], trace[ADDR_INTERCEPT]
        expected = Normal(0, 10).log_prob(slope) + Normal(0, 10).log_prob(intercept)
        for i, (x, y) in enumerate(zip(data.xs, data.ys)):
            expected += Normal(intercept + slope * x, p_params.std).log_prob(y)
        assert trace.log_prob == pytest.approx(expected)

    def test_shape_mismatch(self, p_params):
        with pytest.raises(ValueError):
            conjugate_posterior(p_params, [1.0, 2.0], [1.0])


class TestPrograms:
    def test_p_trace_structure(self, data, p_params, rng):
        model = no_outlier_model(p_params, data.xs, data.ys)
        trace = model.simulate(rng)
        assert set(trace.addresses()) == {ADDR_SLOPE, ADDR_INTERCEPT}
        assert len(trace.observation_addresses()) == data.num_points

    def test_q_trace_structure(self, data, q_params, rng):
        model = outlier_model(q_params, data.xs, data.ys)
        trace = model.simulate(rng)
        assert set(trace.addresses()) == {
            ADDR_SLOPE,
            ADDR_INTERCEPT,
            ADDR_OUTLIER_LOG_VAR,
        }

    def test_q_likelihood_is_mixture(self, data, q_params):
        model = outlier_model(q_params, data.xs, data.ys)
        trace = model.score(
            {ADDR_SLOPE: -0.8, ADDR_INTERCEPT: 1.0, ADDR_OUTLIER_LOG_VAR: 2.0}
        )
        observation = trace.get_observation(addr_y(0))
        assert isinstance(observation.dist, TwoNormals)
        assert observation.dist.outlier_std == pytest.approx(math.sqrt(math.exp(2.0)))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NoOutlierModelParams(prior_std=-1.0)
        with pytest.raises(ValueError):
            OutlierModelParams(prob_outlier=2.0)


class TestIncrementalRegression:
    """The Section 7.2 experiment in miniature."""

    def test_translation_matches_gold_standard(self, data, p_params, q_params, rng):
        posterior = conjugate_posterior(p_params, data.xs, data.ys)
        p = no_outlier_model(p_params, data.xs, data.ys)
        q = outlier_model(q_params, data.xs, data.ys)
        traces = [exact_regression_trace(posterior, rng, p) for _ in range(1500)]
        translator = CorrespondenceTranslator(p, q, coefficient_correspondence())
        step = infer(translator, WeightedCollection.uniform(traces), rng)
        estimate = step.collection.estimate(lambda u: u[ADDR_SLOPE])

        kernel = cycle(
            [
                random_walk_mh_site(q, ADDR_SLOPE, 0.03),
                random_walk_mh_site(q, ADDR_INTERCEPT, 0.03),
                random_walk_mh_site(q, ADDR_OUTLIER_LOG_VAR, 0.3),
            ]
        )
        initial = q.score(
            {
                ADDR_SLOPE: posterior.slope_mean,
                ADDR_INTERCEPT: posterior.intercept_mean,
                ADDR_OUTLIER_LOG_VAR: q_params.outlier_log_var_mu,
            }
        )
        states = chain(q, kernel, rng, initial=initial, iterations=6000, burn_in=2000)
        gold = np.mean([t[ADDR_SLOPE] for t in states])
        # Pure translation (no rejuvenation) carries importance-sampling
        # noise; the paper reports mean error ~0.03 on its dataset.
        assert estimate == pytest.approx(gold, abs=0.1)

    def test_translation_with_rejuvenation_is_tighter(self, data, p_params, q_params, rng):
        """Resampling plus a random-walk rejuvenation kernel (the optional
        MCMC step of Algorithm 2) sharpens the estimate."""
        posterior = conjugate_posterior(p_params, data.xs, data.ys)
        p = no_outlier_model(p_params, data.xs, data.ys)
        q = outlier_model(q_params, data.xs, data.ys)
        traces = [exact_regression_trace(posterior, rng, p) for _ in range(300)]
        translator = CorrespondenceTranslator(p, q, coefficient_correspondence())
        from repro.core.mcmc import repeat

        kernel = repeat(
            cycle(
                [
                    random_walk_mh_site(q, ADDR_SLOPE, 0.03),
                    random_walk_mh_site(q, ADDR_INTERCEPT, 0.03),
                    random_walk_mh_site(q, ADDR_OUTLIER_LOG_VAR, 0.3),
                ]
            ),
            10,
        )
        step = infer(
            translator,
            WeightedCollection.uniform(traces),
            rng,
            mcmc_kernel=kernel,
            config=InferenceConfig(resample="always"),
        )
        estimate = step.collection.estimate(lambda u: u[ADDR_SLOPE])

        initial = q.score(
            {
                ADDR_SLOPE: posterior.slope_mean,
                ADDR_INTERCEPT: posterior.intercept_mean,
                ADDR_OUTLIER_LOG_VAR: q_params.outlier_log_var_mu,
            }
        )
        gold_kernel = cycle(
            [
                random_walk_mh_site(q, ADDR_SLOPE, 0.03),
                random_walk_mh_site(q, ADDR_INTERCEPT, 0.03),
                random_walk_mh_site(q, ADDR_OUTLIER_LOG_VAR, 0.3),
            ]
        )
        states = chain(q, gold_kernel, rng, initial=initial, iterations=6000, burn_in=2000)
        gold = np.mean([t[ADDR_SLOPE] for t in states])
        assert estimate == pytest.approx(gold, abs=0.05)

    def test_outlier_log_var_follows_prior_unweighted(self, data, p_params, q_params, rng):
        """The new choice is sampled from its prior by the forward kernel."""
        posterior = conjugate_posterior(p_params, data.xs, data.ys)
        p = no_outlier_model(p_params, data.xs, data.ys)
        q = outlier_model(q_params, data.xs, data.ys)
        translator = CorrespondenceTranslator(p, q, coefficient_correspondence())
        values = []
        for _ in range(600):
            trace = exact_regression_trace(posterior, rng, p)
            values.append(translator.translate(rng, trace).trace[ADDR_OUTLIER_LOG_VAR])
        assert np.mean(values) == pytest.approx(q_params.outlier_log_var_mu, abs=0.15)

    def test_coefficients_are_reused(self, data, p_params, q_params, rng):
        posterior = conjugate_posterior(p_params, data.xs, data.ys)
        p = no_outlier_model(p_params, data.xs, data.ys)
        q = outlier_model(q_params, data.xs, data.ys)
        translator = CorrespondenceTranslator(p, q, coefficient_correspondence())
        trace = exact_regression_trace(posterior, rng, p)
        result = translator.translate(rng, trace)
        assert result.trace[ADDR_SLOPE] == trace[ADDR_SLOPE]
        assert result.trace[ADDR_INTERCEPT] == trace[ADDR_INTERCEPT]
