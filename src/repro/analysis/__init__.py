"""Static validation for correspondences, edits, configs, and programs.

The analysis framework catches the failure modes that used to surface
only at run time, deep inside a particle loop:

* a correspondence that is not an injective, support-compatible map
  between the address spaces of the two programs (Section 5.1) —
  :func:`validate_correspondence` / :func:`validate_label_map`;
* a program edit whose incremental propagation visits statements the
  edit cannot reach, or skips statements it must revisit (Section 6) —
  :func:`check_edit`;
* an :class:`~repro.core.config.InferenceConfig` whose field
  *combination* fails mid-run even though each field validates alone
  (checkpoint cadence without a directory, a regenerate policy without
  a sampler, ...) — :func:`lint_config`;
* structured-language programs, via an extended version of
  :func:`repro.lang.check.check_program` with unused-variable,
  constant-observation, and parameter-range-propagation rules —
  :func:`extended_check_program`.

Everything reports through the shared :class:`Diagnostic` type (the same
type :mod:`repro.lang.check` now re-exports), aggregates into an
:class:`AnalysisResult`, and surfaces in three places: the ``repro lint``
CLI, the opt-in ``InferenceConfig(validate=...)`` pre-flight of
:func:`repro.core.smc.infer`, and the CI lint job over every bundled
program and correspondence (:func:`bundled_targets`).

The diagnostic core is imported eagerly (it is standard-library only);
the concrete passes load lazily on first attribute access, both to keep
``import repro`` light and to break the import cycle with
:mod:`repro.lang`, whose ``check`` module imports the diagnostic types
from here.
"""

from __future__ import annotations

from .diagnostics import (
    SEVERITIES,
    AnalysisResult,
    Diagnostic,
    Pass,
    max_severity,
    severity_rank,
)

__all__ = [
    "SEVERITIES",
    "AnalysisResult",
    "Diagnostic",
    "Pass",
    "max_severity",
    "severity_rank",
    # Lazily loaded passes (PEP 562):
    "profile_model",
    "validate_correspondence",
    "validate_label_map",
    "validate_translator",
    "statement_effects",
    "invalidation_sets",
    "check_edit",
    "lint_config",
    "lint_service_config",
    "extended_check_program",
    "bundled_targets",
    "lint_bundled",
    "preflight_inference",
    "apply_validation_mode",
    "static_profile_model",
    "columnar_plan_lint",
    "bundled_static_profiles",
]

#: Lazy attribute -> defining submodule (see module ``__getattr__``).
_LAZY = {
    "profile_model": "correspondence",
    "validate_correspondence": "correspondence",
    "validate_label_map": "correspondence",
    "validate_translator": "correspondence",
    "statement_effects": "edits",
    "invalidation_sets": "edits",
    "check_edit": "edits",
    "lint_config": "config_lint",
    "lint_service_config": "config_lint",
    "extended_check_program": "programs",
    "bundled_targets": "targets",
    "lint_bundled": "targets",
    "preflight_inference": "preflight",
    "apply_validation_mode": "preflight",
    "static_profile_model": "static_profile",
    "columnar_plan_lint": "static_profile",
    "bundled_static_profiles": "static_profile",
}


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{submodule}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
