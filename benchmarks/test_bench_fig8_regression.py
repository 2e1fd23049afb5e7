"""Figure 8 benchmark: robust regression, incremental vs MCMC.

Each benchmark measures the runtime of producing one posterior-mean
estimate of the robust model's slope, the quantity plotted on Figure 8's
x-axis; the paired accuracy numbers are produced by
``python -m repro.experiments.fig8`` and recorded in EXPERIMENTS.md.
"""

import numpy as np
import pytest

from repro import CorrespondenceTranslator, InferenceConfig, WeightedCollection, infer
from repro.core.mcmc import chain, cycle, independent_mh_site
from repro.regression import (
    ADDR_INTERCEPT,
    ADDR_OUTLIER_LOG_VAR,
    ADDR_SLOPE,
    NoOutlierModelParams,
    OutlierModelParams,
    coefficient_correspondence,
    conjugate_posterior,
    exact_regression_trace,
    hospital_like_dataset,
    no_outlier_model,
    outlier_model,
)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(2018)
    data = hospital_like_dataset(rng, num_points=305)
    p_params = NoOutlierModelParams(prior_std=10.0, std=0.5)
    q_params = OutlierModelParams(prior_std=10.0, prob_outlier=0.1, inlier_std=0.5)
    p_model = no_outlier_model(p_params, data.xs, data.ys)
    q_model = outlier_model(q_params, data.xs, data.ys)
    posterior = conjugate_posterior(p_params, data.xs, data.ys)
    translator = CorrespondenceTranslator(p_model, q_model, coefficient_correspondence())
    return p_model, q_model, posterior, translator


@pytest.mark.parametrize("num_traces", [10, 30, 100])
def test_incremental_estimate(benchmark, setup, rng, num_traces):
    p_model, _q_model, posterior, translator = setup

    def estimate():
        traces = [
            exact_regression_trace(posterior, rng, p_model) for _ in range(num_traces)
        ]
        step = infer(translator, WeightedCollection.uniform(traces), rng)
        return step.collection.estimate(lambda u: u[ADDR_SLOPE])

    slope = benchmark(estimate)
    assert -2.0 < slope < 0.5


@pytest.mark.parametrize("num_traces", [30])
def test_incremental_estimate_no_weights(benchmark, setup, rng, num_traces):
    p_model, _q_model, posterior, translator = setup

    def estimate():
        traces = [
            exact_regression_trace(posterior, rng, p_model) for _ in range(num_traces)
        ]
        step = infer(
            translator,
            WeightedCollection.uniform(traces),
            rng,
            config=InferenceConfig(use_weights=False),
        )
        return step.collection.estimate(lambda u: u[ADDR_SLOPE])

    benchmark(estimate)


@pytest.mark.parametrize("iterations", [30, 100])
def test_mcmc_estimate(benchmark, setup, rng, iterations):
    _p_model, q_model, _posterior, _translator = setup
    kernel = cycle(
        [
            independent_mh_site(q_model, ADDR_SLOPE),
            independent_mh_site(q_model, ADDR_INTERCEPT),
            independent_mh_site(q_model, ADDR_OUTLIER_LOG_VAR),
        ]
    )

    def estimate():
        states = chain(q_model, kernel, rng, iterations=iterations, burn_in=iterations // 4)
        return float(np.mean([t[ADDR_SLOPE] for t in states]))

    benchmark(estimate)


def test_exact_conjugate_sampling(benchmark, setup, rng):
    p_model, _q, posterior, _t = setup
    benchmark(exact_regression_trace, posterior, rng, p_model)
