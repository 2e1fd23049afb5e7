"""SMC hot-path benchmarks: the object step vs the columnar runtime.

Measures the per-figure median latency of one Algorithm-2 translate
step (the SMC hot path) under ``collection='columnar'`` vs
``collection='object'`` across particle counts (100 to 10k) on the
Figure 8 workload, plus the object step on the Figure 9 HMM, and
records every measurement through the ``smc_bench`` fixture so the
session writes ``BENCH_smc.json`` (see ``conftest.py``).  Two guards
ride along: the columnar step must beat the object step by at least 3x
at 1000 particles (the win that justifies the batched Distribution
API), and its estimates must equal the object step's bitwise.

Run with ``pytest benchmarks/test_bench_smc.py -q`` (benchmarks are not
collected by the default ``testpaths``).
"""

import time

import numpy as np
import pytest

from repro import CorrespondenceTranslator, WeightedCollection, infer
from repro.core import InferenceConfig
from repro.hmm import (
    encode,
    exact_first_order_trace,
    first_order_model,
    generate_corpus,
    hidden_state_correspondence,
    second_order_model,
    train_first_order,
    train_second_order,
)
from repro.regression import (
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

REPETITIONS = 5


@pytest.fixture(scope="module")
def fig8_setup():
    rng = np.random.default_rng(2018)
    data = hospital_like_dataset(rng, num_points=305)
    p_params = NoOutlierModelParams(prior_std=10.0, std=0.5)
    q_params = OutlierModelParams(prior_std=10.0, prob_outlier=0.1, inlier_std=0.5)
    p_model = no_outlier_model(p_params, data.xs, data.ys)
    q_model = outlier_model(q_params, data.xs, data.ys)
    posterior = conjugate_posterior(p_params, data.xs, data.ys)
    return p_model, q_model, posterior


@pytest.fixture(scope="module")
def fig9_setup():
    rng = np.random.default_rng(2018)
    corpus = generate_corpus(rng, num_train_words=1500, num_test_words=3)
    p_params = train_first_order(corpus.train)
    q_params = train_second_order(corpus.train)
    return p_params, q_params, corpus


def _median_step_latency(run_step, repetitions=REPETITIONS):
    times = []
    result = None
    for _ in range(repetitions):
        start = time.perf_counter()
        result = run_step()
        times.append(time.perf_counter() - start)
    return float(np.median(times)), result


#: Particle counts for the columnar scaling series.  The object path is
#: measured at the two smaller sizes only: its per-particle replay takes
#: ~40s/step at 10k, which would dominate the whole benchmark session
#: for a point the 1000-particle gate already establishes.
COLUMNAR_SCALING = [100, 1000, 10_000]
OBJECT_SCALING_CAP = 1000

#: Required columnar speedup over the object path at 1000 particles.
COLUMNAR_SPEEDUP_FLOOR = 3.0


@pytest.fixture(scope="module")
def fig8_populations(fig8_setup):
    """One exact-posterior population per particle count, built once so
    the timed region is the translate step alone (generation at 10k costs
    more than the columnar step itself)."""
    p_model, _q_model, posterior = fig8_setup
    rng = np.random.default_rng(7)
    populations = {}
    for num_particles in COLUMNAR_SCALING:
        traces = [
            exact_regression_trace(posterior, rng, p_model)
            for _ in range(num_particles)
        ]
        populations[num_particles] = WeightedCollection.uniform(traces)
    return populations


def _fig8_collection_step(setup, populations, mode, num_particles):
    p_model, q_model, _posterior = setup
    translator = CorrespondenceTranslator(
        p_model, q_model, coefficient_correspondence()
    )
    config = InferenceConfig(collection=mode)
    population = populations[num_particles]

    def run_step():
        step = infer(
            translator, population.copy(), np.random.default_rng(7), config=config
        )
        assert step.stats.collection_mode == mode
        return step.collection.estimate(lambda u: u[ADDR_SLOPE])

    return run_step


@pytest.mark.parametrize("num_particles", COLUMNAR_SCALING)
def test_fig8_columnar_particle_scaling(
    fig8_setup, fig8_populations, smc_bench, num_particles
):
    repetitions = 3 if num_particles >= 10_000 else REPETITIONS
    for mode in ("columnar", "object"):
        if mode == "object" and num_particles > OBJECT_SCALING_CAP:
            continue
        run_step = _fig8_collection_step(
            fig8_setup, fig8_populations, mode, num_particles
        )
        median, estimate = _median_step_latency(run_step, repetitions=repetitions)
        smc_bench(
            {
                "figure": "fig8",
                "series": f"collection={mode}",
                "num_particles": num_particles,
                "median_step_latency_s": median,
            }
        )
        assert -2.0 < estimate < 0.5


def test_fig8_columnar_speedup_gate(fig8_setup, fig8_populations, smc_bench):
    """CI gate: the columnar step must beat the object step >= 3x at 1000
    particles on the paper's Figure 8 workload."""
    medians = {}
    for mode in ("object", "columnar"):
        run_step = _fig8_collection_step(fig8_setup, fig8_populations, mode, 1000)
        medians[mode], _ = _median_step_latency(run_step)
    speedup = medians["object"] / medians["columnar"]
    smc_bench(
        {
            "figure": "fig8",
            "series": "columnar-speedup-gate",
            "num_particles": 1000,
            "median_step_latency_s": medians["columnar"],
            "object_median_step_latency_s": medians["object"],
            "speedup": speedup,
        }
    )
    assert speedup >= COLUMNAR_SPEEDUP_FLOOR, (
        f"columnar step is only {speedup:.2f}x faster than the object step "
        f"at 1000 particles (floor: {COLUMNAR_SPEEDUP_FLOOR}x): "
        f"{medians}"
    )


def test_fig8_columnar_estimates_match_object_bitwise(
    fig8_setup, fig8_populations
):
    """The speed win may never change the numbers: fig8's edit has one
    fresh address, so the inline columnar step is bitwise reproducible."""
    estimates = {}
    for mode in ("object", "columnar"):
        run_step = _fig8_collection_step(fig8_setup, fig8_populations, mode, 100)
        estimates[mode] = run_step()
    assert estimates["object"] == estimates["columnar"]


def test_fig9_object_step_latency(fig9_setup, smc_bench):
    p_params, q_params, corpus = fig9_setup
    typed, _truth = corpus.test[0]
    observations = encode(typed)
    p_model = first_order_model(p_params, observations)
    q_model = second_order_model(q_params, observations)
    translator = CorrespondenceTranslator(
        p_model, q_model, hidden_state_correspondence()
    )
    config = InferenceConfig()

    def run_step():
        rng = np.random.default_rng(11)
        traces = [
            exact_first_order_trace(p_params, observations, rng, p_model)
            for _ in range(30)
        ]
        return infer(translator, WeightedCollection.uniform(traces), rng, config=config)

    median, _ = _median_step_latency(run_step)
    smc_bench(
        {
            "figure": "fig9",
            "series": "collection=object",
            "num_particles": 30,
            "median_step_latency_s": median,
        }
    )
