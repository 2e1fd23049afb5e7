"""Tests for the inference pre-flight (InferenceConfig.validate)."""

import warnings

import numpy as np
import pytest

from repro.analysis import preflight_inference
from repro.core import (
    CorrespondenceTranslator,
    InferenceConfig,
    WeightedCollection,
    infer,
)
from repro.core.correspondence import Correspondence
from repro.core.model import Model
from repro.distributions import Flip, Normal
from repro.errors import ReproError, ValidationError


def _flip_fn(t):
    return t.sample(Flip(0.5), "a")


def _gauss_fn(t):
    return t.sample(Normal(0.0, 1.0), "a")


def _good_translator():
    return CorrespondenceTranslator(
        Model(_flip_fn, name="p"), Model(_flip_fn, name="q"),
        Correspondence.identity(["a"]),
    )


def _bad_translator():
    # flip <-> gauss at the same address: a support mismatch error.
    return CorrespondenceTranslator(
        Model(_flip_fn, name="p"), Model(_gauss_fn, name="q"),
        Correspondence.identity(["a"]),
    )


def _collection(model, n=4):
    rng = np.random.default_rng(0)
    return WeightedCollection([model.simulate(rng) for _ in range(n)], [0.0] * n)


class TestValidateField:
    def test_default_is_off(self):
        assert InferenceConfig().validate == "off"

    def test_unknown_mode_rejected_eagerly(self):
        with pytest.raises(ValueError, match="validate"):
            InferenceConfig(validate="loud")


class TestPreflightInference:
    def test_combines_config_and_translator_findings(self):
        diagnostics = preflight_inference(
            [_bad_translator()], InferenceConfig(checkpoint_every=5)
        )
        assert {"config-checkpoint-cadence", "corr-support-mismatch"} <= {
            d.code for d in diagnostics
        }

    def test_deduplicates_repeated_translators(self):
        translator = _bad_translator()
        once = preflight_inference([translator], InferenceConfig())
        thrice = preflight_inference([translator] * 3, InferenceConfig())
        assert len(once) == len(thrice)


class TestInferIntegration:
    def test_error_mode_raises_before_any_particle_work(self):
        translator = _bad_translator()
        collection = _collection(translator.source)
        with pytest.raises(ValidationError) as excinfo:
            infer(
                translator, collection, np.random.default_rng(0),
                config=InferenceConfig(validate="error"),
            )
        assert any(d.code == "corr-support-mismatch" for d in excinfo.value.diagnostics)
        # ValidationError is a ReproError, so the CLI maps it to EXIT_FAULT.
        assert isinstance(excinfo.value, ReproError)

    def test_warn_mode_warns_and_completes(self):
        translator = _bad_translator()
        collection = _collection(translator.source)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            step = infer(
                translator, collection, np.random.default_rng(0),
                config=InferenceConfig(validate="warn"),
            )
        assert len(step.collection) == len(collection)
        assert any("pre-flight" in str(w.message) for w in caught)

    def test_clean_translator_passes_error_mode(self):
        translator = _good_translator()
        collection = _collection(translator.source)
        step = infer(
            translator, collection, np.random.default_rng(0),
            config=InferenceConfig(validate="error"),
        )
        assert len(step.collection) == len(collection)

    def test_off_mode_never_imports_analysis(self, monkeypatch):
        import sys

        translator = _good_translator()
        collection = _collection(translator.source)
        for name in [m for m in sys.modules if m.startswith("repro.analysis")]:
            monkeypatch.delitem(sys.modules, name)
        infer(translator, collection, np.random.default_rng(0),
              config=InferenceConfig())
        assert not any(m.startswith("repro.analysis") for m in sys.modules)

    def test_translator_validate_method(self):
        assert _good_translator().validate() == []
        assert any(
            d.code == "corr-support-mismatch" for d in _bad_translator().validate()
        )
