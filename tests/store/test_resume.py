"""Kill-and-resume determinism for sequence and annealing runs.

The headline property: a run resumed from its latest checkpoint produces
the *byte-identical* final collection of the uninterrupted run, because
the checkpoint captures the generator state at the step boundary.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import (
    ColumnarCollection,
    CorrespondenceTranslator,
    InferenceConfig,
    Model,
    infer_sequence,
)
from repro.core.annealing import annealed_importance_sampling
from repro.core.correspondence import Correspondence
from repro.core.importance import importance_sampling
from repro.distributions import Normal
from repro.store import CheckpointManager, dumps

NUM_PARTICLES = 30


def gaussian_model(mean):
    def fn(t):
        x = t.sample(Normal(mean, 1.0), "x")
        t.observe(Normal(x, 0.5), 1.0, "y")
        return x

    return Model(fn)


def translator_chain(means):
    models = [gaussian_model(mean) for mean in means]
    identity = Correspondence.identity(["x"])
    return models, [
        CorrespondenceTranslator(previous, current, identity)
        for previous, current in zip(models, models[1:])
    ]


@pytest.fixture
def chain():
    return translator_chain([0.0, 0.5, 1.0, 1.5, 2.0, 2.5])


def initial_collection(models, seed=99):
    rng = np.random.default_rng(seed)
    return importance_sampling(models[0], rng, NUM_PARTICLES).resample(rng)


class TestCheckpointCadence:
    def test_every_step_plus_forced_final(self, tmp_path, chain):
        models, translators = chain
        config = InferenceConfig(
            resample="adaptive", checkpoint_dir=str(tmp_path), checkpoint_every=2
        )
        infer_sequence(
            translators,
            initial_collection(models),
            np.random.default_rng(0),
            config=config,
        )
        # every=2 over 5 steps: cadence hits 1 and 3, the final step 4
        # is always forced.
        assert CheckpointManager(tmp_path).list_steps() == [1, 3, 4]

    def test_no_checkpoint_dir_writes_nothing(self, tmp_path, chain):
        models, translators = chain
        infer_sequence(
            translators,
            initial_collection(models),
            np.random.default_rng(0),
            config=InferenceConfig(resample="adaptive"),
        )
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_carries_stats_extra(self, tmp_path, chain):
        models, translators = chain
        config = InferenceConfig(resample="adaptive", checkpoint_dir=str(tmp_path))
        steps = infer_sequence(
            translators,
            initial_collection(models),
            np.random.default_rng(0),
            config=config,
        )
        latest = CheckpointManager(tmp_path).load_latest()
        assert latest.step == len(translators) - 1
        assert latest.extra["stats"] == steps[-1].stats


def run_full(translators, initial, seed, **config_kwargs):
    config = InferenceConfig(resample="adaptive", **config_kwargs)
    steps = infer_sequence(
        translators, initial, np.random.default_rng(seed), config=config
    )
    return steps[-1].collection


def kill_and_resume(tmp_path, translators, initial, seed, kill_after, **config_kwargs):
    """Run ``kill_after`` steps with checkpoints, then resume the rest."""
    interrupted = InferenceConfig(
        resample="adaptive", checkpoint_dir=str(tmp_path), **config_kwargs
    )
    infer_sequence(
        translators[:kill_after],
        initial,
        np.random.default_rng(seed),
        config=interrupted,
    )
    checkpoint = CheckpointManager(tmp_path).load_latest()
    assert checkpoint is not None
    completed = checkpoint.step + 1
    steps = infer_sequence(
        translators[completed:],
        checkpoint.collection,
        checkpoint.rng,
        config=interrupted,
        step_offset=completed,
    )
    return steps[-1].collection


class TestResumeByteIdentity:
    @pytest.mark.parametrize("kill_after", [1, 3])
    def test_serial(self, tmp_path, chain, kill_after):
        models, translators = chain
        full = run_full(translators, initial_collection(models), seed=7)
        resumed = kill_and_resume(
            tmp_path, translators, initial_collection(models), 7, kill_after
        )
        assert dumps(resumed) == dumps(full)

    def test_columnar_run_resumes(self, tmp_path, chain):
        """A run that stays columnar checkpoints ``$ccoll`` snapshots;
        they load, and the resumed run matches the uninterrupted bytes."""
        models, translators = chain
        full = run_full(
            translators, initial_collection(models), seed=7, collection="columnar"
        )
        assert isinstance(full, ColumnarCollection)
        resumed = kill_and_resume(
            tmp_path,
            translators,
            initial_collection(models),
            7,
            kill_after=1,
            collection="columnar",
        )
        latest = CheckpointManager(tmp_path).load_latest()
        assert isinstance(latest.collection, ColumnarCollection)
        assert dumps(resumed) == dumps(full)

    def test_checkpoint_with_retired_stats_field_resumes(self, tmp_path, chain):
        """Checkpoints written before ``SMCStats.faults_by_worker`` was
        retired (and before ``spill_code`` existed) still resume."""
        models, translators = chain
        config = InferenceConfig(resample="adaptive", checkpoint_dir=str(tmp_path))
        infer_sequence(
            translators[:2],
            initial_collection(models),
            np.random.default_rng(7),
            config=config,
        )
        manager = CheckpointManager(tmp_path)
        path = manager.path_for(manager.latest_step())
        raw = path.read_bytes()
        document = json.loads(raw[raw.index(b"\n") + 1:])
        stats = document["value"]["extra"]["stats"]["$stats"]
        del stats["spill_code"]
        stats["faults_by_worker"] = None
        body = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
        digest = hashlib.sha256(body).hexdigest()
        path.write_bytes(f"REPRO-CKPT 1 {digest} {len(body)}\n".encode() + body)

        checkpoint = CheckpointManager(tmp_path).load_latest()
        assert checkpoint.extra["stats"].spill_code is None
        completed = checkpoint.step + 1
        resumed = infer_sequence(
            translators[completed:],
            checkpoint.collection,
            checkpoint.rng,
            config=InferenceConfig(resample="adaptive"),
            step_offset=completed,
        )[-1].collection
        full = run_full(translators, initial_collection(models), seed=7)
        assert dumps(resumed) == dumps(full)

    def test_resume_via_loaded_checkpoint_bytes(self, tmp_path, chain):
        """The checkpoint that reaches disk — not an in-memory alias —
        is sufficient: reload it in a fresh manager and resume."""
        models, translators = chain
        config = InferenceConfig(resample="adaptive", checkpoint_dir=str(tmp_path))
        infer_sequence(
            translators[:2],
            initial_collection(models),
            np.random.default_rng(7),
            config=config,
        )
        checkpoint = CheckpointManager(tmp_path).load_latest()
        completed = checkpoint.step + 1
        resumed = infer_sequence(
            translators[completed:],
            checkpoint.collection,
            checkpoint.rng,
            config=InferenceConfig(resample="adaptive"),
            step_offset=completed,
        )[-1].collection
        full = run_full(translators, initial_collection(models), seed=7)
        assert dumps(resumed) == dumps(full)


def tempered_model(beta):
    return gaussian_model(2.0 * float(beta))


class TestAnnealingResume:
    NUM_STEPS = 5

    def test_resume_matches_uninterrupted(self, tmp_path):
        full_collection, full_log_ratio = annealed_importance_sampling(
            tempered_model, self.NUM_STEPS, NUM_PARTICLES, np.random.default_rng(11)
        )

        # The same run, checkpointed every 2 rungs; then resume from the
        # *middle* snapshot (step 1), i.e. a run killed after rung 1.
        config = InferenceConfig(
            resample="adaptive",
            resampling_scheme="systematic",
            checkpoint_dir=str(tmp_path),
            checkpoint_every=2,
        )
        annealed_importance_sampling(
            tempered_model,
            self.NUM_STEPS,
            NUM_PARTICLES,
            np.random.default_rng(11),
            config=config,
        )
        checkpoint = CheckpointManager(tmp_path).load(1)
        resumed_collection, resumed_log_ratio = annealed_importance_sampling(
            tempered_model,
            self.NUM_STEPS,
            NUM_PARTICLES,
            checkpoint.rng,
            step_offset=checkpoint.step + 1,
            initial_collection=checkpoint.collection,
            initial_log_ratio=checkpoint.extra["log_ratio"],
        )
        assert dumps(resumed_collection) == dumps(full_collection)
        assert resumed_log_ratio == full_log_ratio

    def test_resume_requires_initial_collection(self):
        with pytest.raises(ValueError, match="initial_collection"):
            annealed_importance_sampling(
                tempered_model,
                self.NUM_STEPS,
                NUM_PARTICLES,
                np.random.default_rng(0),
                step_offset=2,
            )

    def test_step_offset_bounds(self, rng):
        collection = initial_collection([tempered_model(0.0)])
        with pytest.raises(ValueError, match="no rungs"):
            annealed_importance_sampling(
                tempered_model,
                self.NUM_STEPS,
                NUM_PARTICLES,
                np.random.default_rng(0),
                step_offset=self.NUM_STEPS,  # beyond the last rung
                initial_collection=collection,
            )


class TestConfigValidation:
    def test_checkpoint_every_must_be_positive(self):
        with pytest.raises(ValueError):
            InferenceConfig(checkpoint_every=0)

    def test_checkpoint_dir_must_be_string(self):
        with pytest.raises(TypeError):
            InferenceConfig(checkpoint_dir=123)

    def test_step_offset_must_be_nonnegative(self, chain):
        models, translators = chain
        with pytest.raises(ValueError, match="step_offset"):
            infer_sequence(
                translators,
                initial_collection(models),
                np.random.default_rng(0),
                step_offset=-1,
            )
