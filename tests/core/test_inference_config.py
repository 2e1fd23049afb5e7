"""InferenceConfig API: validation, the one signature, and the null-instrumentation identity.

``InferenceConfig`` is the only way to configure a step: the retired
per-parameter keywords raise ``TypeError``.  Attaching real
observability sinks never touches the RNG stream, so estimates and
``SMCStats`` are byte-identical with tracing on or off.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro import (
    Correspondence,
    CorrespondenceTranslator,
    FaultPolicy,
    InferenceConfig,
    Model,
    WeightedCollection,
    infer,
    infer_sequence,
)
from repro.distributions import Flip
from repro.observability import (
    NULL_HOOKS,
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    RecordingHooks,
    Tracer,
)


def original_fn(t):
    burglary = t.sample(Flip(0.02), "burglary")
    alarm = t.sample(Flip(0.9 if burglary else 0.01), "alarm")
    t.observe(Flip(0.8 if alarm else 0.05), 1, "mary_wakes")
    return burglary


def refined_fn(t):
    burglary = t.sample(Flip(0.02), "burglary")
    earthquake = t.sample(Flip(0.005), "earthquake")
    p_alarm = 0.95 if earthquake else (0.9 if burglary else 0.01)
    alarm = t.sample(Flip(p_alarm), "alarm")
    p_wakes = (0.9 if earthquake else 0.8) if alarm else 0.05
    t.observe(Flip(p_wakes), 1, "mary_wakes")
    return burglary


@pytest.fixture
def translator():
    return CorrespondenceTranslator(
        Model(original_fn, name="original"),
        Model(refined_fn, name="refined"),
        Correspondence.identity(["burglary", "alarm"]),
    )


def make_collection(translator, seed=2018, size=30):
    rng = np.random.default_rng(seed)
    return WeightedCollection.uniform(
        [translator.source.simulate(rng) for _ in range(size)]
    )


class TestConfigValidation:
    def test_defaults(self):
        config = InferenceConfig()
        assert config.resample == "never"
        assert config.ess_threshold == 0.5
        assert config.resampling_scheme == "multinomial"
        assert config.use_weights is True
        assert isinstance(config.fault_policy, FaultPolicy)
        assert config.fault_policy.mode == "fail_fast"
        assert config.tracer is NULL_TRACER
        assert config.metrics is NULL_METRICS
        assert config.hooks is NULL_HOOKS
        assert config.observability_enabled is False

    def test_eager_validation(self):
        with pytest.raises(ValueError, match="resample"):
            InferenceConfig(resample="sometimes")
        with pytest.raises(ValueError, match="ess_threshold"):
            InferenceConfig(ess_threshold=2.0)
        with pytest.raises(ValueError, match="scheme"):
            InferenceConfig(resampling_scheme="bogus")
        with pytest.raises(ValueError, match="fault-policy"):
            InferenceConfig(fault_policy="explode")

    def test_fault_policy_coercion(self):
        assert InferenceConfig(fault_policy="drop").fault_policy.mode == "drop"
        assert InferenceConfig(fault_policy=None).fault_policy.mode == "fail_fast"
        policy = FaultPolicy(mode="regenerate", max_retries=5)
        assert InferenceConfig(fault_policy=policy).fault_policy is policy

    def test_frozen(self):
        config = InferenceConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.resample = "always"

    def test_replace_revalidates(self):
        config = InferenceConfig()
        assert config.replace(resample="always").resample == "always"
        with pytest.raises(ValueError):
            config.replace(ess_threshold=-1.0)

    def test_observability_enabled_detects_sinks(self):
        assert InferenceConfig(tracer=Tracer()).observability_enabled
        assert InferenceConfig(metrics=MetricsRegistry()).observability_enabled
        assert InferenceConfig(hooks=RecordingHooks()).observability_enabled

    def test_rng_from_seed_is_deterministic(self):
        config = InferenceConfig(seed=7)
        assert config.rng().random() == config.rng().random()


class TestDeprecationShims:
    """The pre-config per-parameter keywords are retired, not shimmed."""

    def test_retired_spellings_raise_type_error(self, translator):
        collection = make_collection(translator)
        rng = np.random.default_rng(0)
        with pytest.raises(TypeError, match="resample"):
            infer(translator, collection, rng, resample="always")
        with pytest.raises(TypeError, match="ess_threshold"):
            infer_sequence([translator], collection, rng, ess_threshold=0.25)
        with pytest.raises(TypeError, match="positional"):
            infer(translator, collection, rng, None, "always")

    def test_config_path_does_not_warn(self, translator):
        collection = make_collection(translator)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            infer(
                translator,
                collection,
                np.random.default_rng(0),
                config=InferenceConfig(resample="always"),
            )
            infer_sequence(
                [translator],
                collection,
                np.random.default_rng(0),
                config=InferenceConfig(),
            )

    def test_rng_falls_back_to_config_seed(self, translator):
        collection = make_collection(translator)
        seeded = infer(translator, collection, config=InferenceConfig(seed=11))
        explicit = infer(
            translator, collection, np.random.default_rng(11), config=InferenceConfig()
        )
        assert seeded.collection.log_weights == explicit.collection.log_weights

    def test_missing_rng_and_seed_is_an_error(self, translator):
        collection = make_collection(translator)
        with pytest.raises(TypeError, match="rng"):
            infer(translator, collection)
        with pytest.raises(TypeError, match="rng"):
            infer_sequence([translator], collection)


class TestNullInstrumentationIdentity:
    def run_once(self, translator, config):
        collection = make_collection(translator)
        return infer(translator, collection, np.random.default_rng(99), config=config)

    def test_tracer_never_perturbs_rng_stream(self, translator):
        plain = self.run_once(translator, InferenceConfig(resample="always"))
        traced = self.run_once(
            translator,
            InferenceConfig(
                resample="always",
                tracer=Tracer(),
                metrics=MetricsRegistry(),
                hooks=RecordingHooks(),
            ),
        )
        # Byte-identical collections: same traces, same weights.
        assert plain.collection.log_weights == traced.collection.log_weights
        assert [t.choices() for t in plain.collection.items] == [
            t.choices() for t in traced.collection.items
        ]

    def test_stats_identical_up_to_timing(self, translator):
        plain = self.run_once(translator, InferenceConfig())
        traced = self.run_once(translator, InferenceConfig(tracer=Tracer()))
        exclude = {"translate_seconds", "mcmc_seconds"}
        plain_fields = {
            k: v for k, v in dataclasses.asdict(plain.stats).items() if k not in exclude
        }
        traced_fields = {
            k: v for k, v in dataclasses.asdict(traced.stats).items() if k not in exclude
        }
        assert plain_fields == traced_fields

    def test_stats_timing_reads_from_tracer_spans(self, translator):
        tracer = Tracer()
        step = self.run_once(translator, InferenceConfig(tracer=tracer))
        assert step.stats.translate_seconds == tracer.durations("smc.translate")[0]
        assert step.stats.mcmc_seconds == tracer.durations("smc.mcmc")[0]

    def test_phase_durations_sum_within_step(self, translator):
        tracer = Tracer()
        # Enough particles that translation dominates the fixed per-step
        # bookkeeping (ESS, weight normalisation) between phases.
        collection = make_collection(translator, size=400)
        infer(
            translator,
            collection,
            np.random.default_rng(99),
            config=InferenceConfig(resample="always", tracer=tracer),
        )
        (step_span,) = tracer.spans("smc.step")
        phase_total = sum(child.duration for child in step_span.children)
        assert phase_total <= step_span.duration
        # Phase spans cover at least 95% of the step (acceptance criterion).
        assert phase_total >= 0.95 * step_span.duration

    def test_per_particle_spans_recorded(self, translator):
        tracer = Tracer()
        step = self.run_once(translator, InferenceConfig(tracer=tracer))
        particles = tracer.spans("translate.particle")
        assert len(particles) == step.stats.num_traces
        # Translator-level sub-spans nest inside each particle span.
        assert [c.name for c in particles[0].children] == [
            "translate.forward",
            "translate.backward",
        ]

    def test_reuse_counters_reported(self, translator):
        tracer = Tracer()
        metrics = MetricsRegistry()
        self.run_once(translator, InferenceConfig(tracer=tracer, metrics=metrics))
        (step_span,) = tracer.spans("smc.step")
        reused = metrics.counter("translate.choices_reused").value
        fresh = metrics.counter("translate.choices_fresh").value
        assert reused == step_span.total("choices.reused")
        assert fresh == step_span.total("choices.fresh")
        # The identity correspondence reuses burglary+alarm; earthquake
        # is always fresh.
        assert reused > 0 and fresh > 0

    def test_metrics_tally_particles(self, translator):
        metrics = MetricsRegistry()
        step = self.run_once(translator, InferenceConfig(metrics=metrics))
        assert metrics.counter("smc.steps").value == 1
        assert (
            metrics.counter("smc.particles_translated").value == step.stats.num_traces
        )
        assert metrics.histogram("smc.ess_before_resample").count == 1
