"""Command-line interface for the structured probabilistic language.

Subcommands (``python -m repro.cli <cmd>`` or the ``repro`` script):

* ``parse FILE`` — parse and pretty-print a program (syntax check);
* ``run FILE`` — sample traces and print return values with log probs;
* ``enumerate FILE`` — exact posterior of the return value (finite
  discrete programs);
* ``lint TARGET...`` — the full static-analysis suite
  (:mod:`repro.analysis`): one file runs the extended program checks,
  two files additionally validate the derived correspondence and the
  edit's propagation soundness, and the literal ``bundled`` sweeps every
  shipped program, edit pair, correspondence, and config
  (``--strict``/``--format json``/``--out`` for CI);
* ``diff OLD NEW`` — show the label correspondence the tree diff
  recovers between two programs (Section 6's heuristic);
* ``derive OLD NEW`` — derive the address correspondence by profiling
  and structurally aligning the two programs' address spaces
  (:mod:`repro.derive`) and print the evidence report
  (``--format json``/``--out`` for CI artifacts); ``sequence`` and
  ``resume`` accept ``--correspondence derive`` to run a whole edit
  chain on derived maps, and ``lint OLD NEW --derive`` validates the
  derived map in place of the tree-diff label map;
* ``translate OLD NEW`` — incremental inference across an edit: sample
  traces of OLD, translate each to NEW with the diff correspondence,
  and print the weighted return-value distribution with diagnostics;
* ``sequence FILE FILE [FILE ...]`` — iterated incremental inference
  over a whole edit chain, with optional durable checkpoints
  (``--checkpoint-dir``/``--checkpoint-every``);
* ``resume FILE FILE [FILE ...]`` — continue a killed ``sequence`` run
  from its latest valid checkpoint; the resumed run reproduces the
  uninterrupted run's final collection byte for byte;
* ``session NAME`` — run a scripted multi-edit inference-session
  workflow (fig8 regression / fig10 GMM) through the store layer;
* ``serve`` — run the fault-tolerant multi-tenant inference service
  (:mod:`repro.service`): create/observe/edit/posterior/close over a
  framed codec protocol, with per-tenant quotas, bounded queues,
  deadlines, and crash recovery from commit checkpoints
  (``--store-dir``); SIGTERM/SIGINT shut down gracefully;
* ``loadgen`` — drive a deterministic workload against a running
  service and report p50/p99 latencies, rejection rate, and retries;
* ``experiment NAME`` — run a figure reproduction (fig8/fig9).

Observability: ``translate`` and ``experiment`` accept ``--trace-out
PATH`` (span-tree JSON), ``--metrics-out PATH`` (metrics snapshot JSON,
strict — no bare NaN/Infinity tokens), and ``translate`` additionally
``--verbose`` (a one-line summary per SMC step).

Environment parameters are passed as ``--env name=value`` (repeatable);
values parse as int, then float, then a comma-separated list of numbers.

Exit codes distinguish failure classes: ``2`` (:data:`EXIT_USAGE`) for
bad arguments — unreadable files, malformed flags, a checkpoint written
by a newer library version; ``3`` (:data:`EXIT_FAULT`) for inference
faults — a :class:`~repro.errors.ReproError` escaping the run under a
``fail_fast`` policy; ``4`` (:data:`EXIT_LINT`) for ``repro lint``
findings — error-severity diagnostics, or warnings under ``--strict``
(info findings never affect the exit code); ``5`` (:data:`EXIT_SERVICE`)
for service-layer failures — ``repro serve`` unable to bind or recover,
``repro loadgen`` rejected by quotas/overload after its retry budget, or
a :class:`~repro.errors.ServiceError` escaping either command.  ``repro
check`` keeps its documented ``1`` for "diagnostics found".
"""

from __future__ import annotations

import argparse
import json as json_module
import os
import signal
import sys
from typing import Any, Dict, List, NoReturn, Optional

import numpy as np

from .core import (
    CorrespondenceTranslator,
    FaultPolicy,
    InferenceConfig,
    WeightedCollection,
    infer,
    infer_sequence,
)
from .core.enumerate import exact_return_distribution
from .errors import ReproError, SchemaVersionError, ServiceError
from .graph import align_labels, diff_correspondence
from .lang import lang_model, parse_program, pretty
from .observability import (
    NULL_HOOKS,
    NULL_METRICS,
    NULL_TRACER,
    CompositeHooks,
    Hooks,
    MetricsRegistry,
    Tracer,
    dump_json,
)

__all__ = [
    "main",
    "build_parser",
    "EXIT_USAGE",
    "EXIT_FAULT",
    "EXIT_LINT",
    "EXIT_SERVICE",
]

#: Exit code for bad arguments / unusable inputs (argparse uses 2 too).
EXIT_USAGE = 2
#: Exit code for an inference fault (a ReproError escaping the run).
EXIT_FAULT = 3
#: Exit code for ``repro lint`` findings: error-severity diagnostics, or
#: warnings when ``--strict`` escalates them.  Distinct from
#: :data:`EXIT_USAGE` so CI can tell "bad invocation" from "real
#: findings"; info-severity diagnostics never affect the exit code.
EXIT_LINT = 4
#: Exit code for service-layer failures: ``repro serve`` cannot bind or
#: recover, or ``repro loadgen`` exhausted its retry budget against
#: quotas/overload.  Distinct from :data:`EXIT_FAULT` so CI can tell an
#: inference fault from a serving/capacity problem.
EXIT_SERVICE = 5

#: When set to an integer k, ``repro sequence`` SIGTERMs its own process
#: after k SMC steps complete — the CI kill-switch that exercises
#: checkpoint recovery against a genuinely dead process.
KILL_ENV_VAR = "REPRO_KILL_AFTER_STEP"


def _fail_usage(message: str) -> NoReturn:
    print(f"repro: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


class _StepTableHooks(Hooks):
    """Prints one summary line per SMC step (``--verbose``)."""

    HEADER = (
        f"{'step':>4}  {'particles':>9}  {'ess':>8}  {'resampled':>9}  "
        f"{'translate_s':>11}  {'mcmc_s':>8}  {'faults':>6}"
    )

    def __init__(self) -> None:
        self._step: Optional[int] = None
        self._printed_header = False

    def on_step_start(self, step_index: Optional[int], num_particles: int) -> None:
        self._step = step_index

    def on_step_end(self, stats: Any) -> None:
        if not self._printed_header:
            print(self.HEADER)
            self._printed_header = True
        step = "-" if self._step is None else str(self._step)
        print(
            f"{step:>4}  {stats.num_traces:>9}  {stats.ess_before_resample:>8.1f}  "
            f"{'yes' if stats.resampled else 'no':>9}  {stats.translate_seconds:>11.4f}  "
            f"{stats.mcmc_seconds:>8.4f}  {stats.total_faults:>6}"
        )


def _parse_env_value(text: str) -> Any:
    if "," in text:
        return [_parse_env_value(part) for part in text.split(",")]
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    return text


def _parse_env(pairs: Optional[List[str]]) -> Dict[str, Any]:
    env: Dict[str, Any] = {}
    for pair in pairs or []:
        if "=" not in pair:
            _fail_usage(f"--env expects name=value, got {pair!r}")
        name, _eq, value = pair.partition("=")
        env[name.strip()] = _parse_env_value(value.strip())
    return env


def _load_program(path: str):
    try:
        with open(path) as handle:
            source = handle.read()
    except OSError as error:
        _fail_usage(f"cannot read {path}: {error}")
    return parse_program(source)


def _cmd_parse(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    print(pretty(program))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .lang import check_kinds, check_program

    program = _load_program(args.file)
    env = _parse_env(args.env)
    array_parameters = tuple(
        name for name, value in env.items() if isinstance(value, list)
    )
    diagnostics = check_program(program, parameters=tuple(env))
    diagnostics += check_kinds(
        program, parameters=tuple(env), array_parameters=array_parameters
    )
    for diagnostic in diagnostics:
        print(diagnostic)
    if not diagnostics:
        print("ok")
    return 1 if any(d.severity == "error" for d in diagnostics) else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import AnalysisResult

    result = AnalysisResult()
    static_payload = None
    if list(args.targets) == ["bundled"]:
        from .analysis import lint_bundled

        for name, diagnostics in lint_bundled().items():
            result.extend(diagnostics, target=name)
        if getattr(args, "static_profile", None):
            from .analysis import bundled_static_profiles

            static_payload = bundled_static_profiles()
    elif len(args.targets) == 1:
        env = _parse_env(args.env)
        array_parameters = tuple(
            name for name, value in env.items() if isinstance(value, list)
        )
        from .analysis import extended_check_program

        program = _load_program(args.targets[0])
        result.extend(
            extended_check_program(program, tuple(env), array_parameters),
            target=args.targets[0],
        )
        if getattr(args, "static_profile", None):
            from .analysis.absint import analyze_model

            model = lang_model(program, env=env, name=args.targets[0])
            static_payload = {args.targets[0]: analyze_model(model).to_json()}
    elif len(args.targets) == 2:
        env = _parse_env(args.env)
        parameters = tuple(env)
        array_parameters = tuple(
            name for name, value in env.items() if isinstance(value, list)
        )
        from .analysis import check_edit, extended_check_program, validate_label_map

        old_program = _load_program(args.targets[0])
        new_program = _load_program(args.targets[1])
        for path, program in ((args.targets[0], old_program), (args.targets[1], new_program)):
            result.extend(
                extended_check_program(program, parameters, array_parameters),
                target=path,
            )
        edit_target = f"{args.targets[0]} -> {args.targets[1]}"
        derivation = None
        if getattr(args, "derive", False):
            from .analysis import validate_correspondence
            from .derive import derive_correspondence, derive_label_map

            source = lang_model(old_program, env=env, name=args.targets[0])
            target = lang_model(new_program, env=env, name=args.targets[1])
            derivation = derive_correspondence(
                source, target, rng=np.random.default_rng(0)
            )
            result.extend(
                validate_correspondence(
                    source,
                    target,
                    derivation.correspondence,
                    rng=np.random.default_rng(0),
                ),
                target=edit_target,
            )
            label_map = derive_label_map(derivation)
        else:
            label_map = align_labels(old_program, new_program)
        result.extend(
            validate_label_map(old_program, new_program, label_map),
            target=edit_target,
        )
        result.extend(
            check_edit(
                old_program, new_program, env=env or None, derivation=derivation
            ),
            target=edit_target,
        )
        if getattr(args, "static_profile", None):
            from .analysis.absint import analyze_model

            source = lang_model(old_program, env=env, name=args.targets[0])
            target = lang_model(new_program, env=env, name=args.targets[1])
            static_payload = {
                args.targets[0]: analyze_model(source).to_json(),
                args.targets[1]: analyze_model(target).to_json(),
            }
            if derivation is not None:
                from .analysis.absint import plan_columnar_step
                from .core.corr_translator import CorrespondenceTranslator

                plan = plan_columnar_step(
                    CorrespondenceTranslator(
                        source, target, derivation.correspondence
                    )
                )
                static_payload["columnar_plan"] = plan.to_json()
    else:
        _fail_usage(
            "lint takes one program, an OLD NEW pair, or the literal 'bundled'"
        )

    if static_payload is not None:
        with open(args.static_profile, "w") as handle:
            handle.write(
                json_module.dumps(static_payload, indent=2, sort_keys=True) + "\n"
            )
        print(f"static profiles written to {args.static_profile}")

    if args.format == "json" or args.out:
        report = json_module.dumps(result.to_dict(), indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(report + "\n")
            print(f"lint report written to {args.out}")
        if args.format == "json":
            print(report)
    if args.format == "text":
        for diagnostic in result.sorted():
            where = f"{diagnostic.target}: " if diagnostic.target else ""
            print(f"{where}{diagnostic}")
        counts = result.counts()
        print(
            f"lint: {counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info(s)"
        )
    failing = result.has_errors or (args.strict and result.warnings)
    return EXIT_LINT if failing else 0


def _cmd_run(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    model = lang_model(program, env=_parse_env(args.env))
    rng = np.random.default_rng(args.seed)
    for _ in range(args.num_samples):
        trace = model.simulate(rng)
        print(f"return={trace.return_value!r}  log_prob={trace.log_prob:.4f}")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    model = lang_model(program, env=_parse_env(args.env))
    distribution = exact_return_distribution(model)
    for value, probability in sorted(distribution.items(), key=lambda kv: str(kv[0])):
        print(f"P(return = {value!r}) = {probability:.6f}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    old_program = _load_program(args.old)
    new_program = _load_program(args.new)
    mapping = align_labels(old_program, new_program)
    if not mapping:
        print("no corresponding random expressions found")
        return 0
    for new_label, old_label in sorted(mapping.items()):
        print(f"{new_label}  <-  {old_label}")
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    from .derive import derive_correspondence

    old_program = _load_program(args.old)
    new_program = _load_program(args.new)
    env = _parse_env(args.env)
    source = lang_model(old_program, env=env, name=args.old)
    target = lang_model(new_program, env=env, name=args.new)
    derivation = derive_correspondence(
        source, target, rng=np.random.default_rng(args.seed),
        num_samples=args.num_samples,
    )
    report = derivation.report

    if args.format == "json" or args.out:
        body = json_module.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(body + "\n")
            print(f"derivation report written to {args.out}")
        if args.format == "json":
            print(body)
    if args.format == "text":
        print(f"derived correspondence: {report.summary()}")
        for match in report.matches:
            print(
                f"  {tuple(match.target)!r}  <-  {tuple(match.source)!r}  "
                f"[{match.kind}, confidence {match.confidence:.2f}]"
            )
        for q_head, p_head in sorted(report.family_rules.items(), key=repr):
            print(f"  family rule: ({q_head!r}, *)  <-  ({p_head!r}, *)")
        for address in report.fresh:
            print(f"  fresh: {tuple(address)!r} (sampled anew on translation)")
        for address in report.dropped:
            print(f"  dropped: {tuple(address)!r} (old value discarded)")
        for note in report.notes:
            print(f"  note: {note}")
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    old_program = _load_program(args.old)
    new_program = _load_program(args.new)
    env = _parse_env(args.env)
    rng = np.random.default_rng(args.seed)

    source = lang_model(old_program, env=env, name="old")
    target = lang_model(new_program, env=env, name="new")
    correspondence = diff_correspondence(old_program, new_program)
    translator = CorrespondenceTranslator(source, target, correspondence)

    traces, log_weights = [], []
    for _ in range(args.num_samples):
        # Posterior sampling of the old program by likelihood weighting.
        trace, log_weight = source.generate(rng)
        traces.append(trace)
        log_weights.append(log_weight)
    collection = WeightedCollection(traces, log_weights).resample(rng)

    try:
        policy = FaultPolicy(mode=args.fault_policy, max_retries=args.max_retries)
    except ValueError as error:
        _fail_usage(str(error))
    tracer = Tracer() if args.trace_out else NULL_TRACER
    metrics = MetricsRegistry() if args.metrics_out else NULL_METRICS
    hooks = _StepTableHooks() if args.verbose else NULL_HOOKS
    config = InferenceConfig(
        fault_policy=policy, tracer=tracer, metrics=metrics, hooks=hooks,
        collection=args.collection,
    )
    step = infer(translator, collection, rng, config=config)
    output = step.collection
    if not isinstance(output, WeightedCollection):
        output = output.to_weighted()
    stats = step.stats
    if args.trace_out:
        dump_json(tracer.to_dict(), args.trace_out)
        print(f"trace written to {args.trace_out}")
    if args.metrics_out:
        dump_json(metrics.to_dict(), args.metrics_out)
        print(f"metrics written to {args.metrics_out}")

    print(f"translated {len(output)} traces "
          f"(effective sample size {output.effective_sample_size():.1f})")
    if stats.total_faults:
        print(f"faults: failed={stats.failed} retried={stats.retried} "
              f"dropped={stats.dropped} regenerated={stats.regenerated}")
    values: Dict[Any, float] = {}
    weights = output.normalized_weights()
    for trace, weight in zip(output.items, weights):
        key = trace.return_value
        if isinstance(key, dict):
            key = tuple(sorted(key.items()))
        if isinstance(key, list):
            key = tuple(key)
        values[key] = values.get(key, 0.0) + float(weight)
    top = sorted(values.items(), key=lambda kv: -kv[1])[: args.top]
    for value, probability in top:
        print(f"P(return = {value!r}) = {probability:.4f}")
    return 0


class _KillAfterStep(Hooks):
    """SIGTERM our own process once ``steps`` SMC steps have completed.

    The CI persistence job uses this (via :data:`KILL_ENV_VAR`) to die
    mid-sequence with checkpoints on disk, then proves that ``repro
    resume`` reproduces the uninterrupted run byte for byte.  The kill
    fires at ``on_step_end`` — *before* the sequence loop writes that
    step's checkpoint — so recovery always replays at least one step.
    """

    def __init__(self, steps: int):
        if steps < 1:
            _fail_usage(f"{KILL_ENV_VAR} must be >= 1, got {steps}")
        self._remaining = steps

    def on_step_end(self, stats: Any) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            os.kill(os.getpid(), signal.SIGTERM)


def _chain_translators(args: argparse.Namespace):
    """Parse the program chain and build its adjacent-edit translators.

    ``--correspondence diff`` (the default) recovers each map from the
    tree diff of the program texts; ``--correspondence derive`` aligns
    the models' profiled address spaces instead
    (:func:`repro.derive.derive_correspondence`) and needs no program
    diff at all.
    """
    if len(args.files) < 2:
        _fail_usage("need at least two programs to form an edit sequence")
    programs = [_load_program(path) for path in args.files]
    env = _parse_env(args.env)
    models = [
        lang_model(program, env=env, name=f"p{index}")
        for index, program in enumerate(programs)
    ]
    if getattr(args, "correspondence", "diff") == "derive":
        from .derive import derive_sequence_translators

        translators = derive_sequence_translators(models)
    else:
        translators = [
            CorrespondenceTranslator(
                models[index],
                models[index + 1],
                diff_correspondence(programs[index], programs[index + 1]),
            )
            for index in range(len(models) - 1)
        ]
    return programs, models, translators


def _sequence_config(args: argparse.Namespace, metrics, hooks) -> InferenceConfig:
    return InferenceConfig(
        resample="adaptive",
        metrics=metrics,
        hooks=hooks,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        collection=getattr(args, "collection", "object"),
    )


def _emit_sequence_outputs(args, collection, steps, metrics) -> None:
    if args.metrics_out:
        dump_json(metrics.to_dict(), args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    if args.out:
        from .store import dumps

        body = dumps(collection)
        with open(args.out, "wb") as handle:
            handle.write(body)
        print(f"final collection written to {args.out} ({len(body)} bytes)")
    print(
        f"sequence complete: {len(steps)} step(s), "
        f"{len(collection)} particles, "
        f"effective sample size {collection.effective_sample_size():.1f}"
    )


def _cmd_sequence(args: argparse.Namespace) -> int:
    _programs, models, translators = _chain_translators(args)
    rng = np.random.default_rng(args.seed)

    traces, log_weights = [], []
    for _ in range(args.num_samples):
        trace, log_weight = models[0].generate(rng)
        traces.append(trace)
        log_weights.append(log_weight)
    collection = WeightedCollection(traces, log_weights).resample(rng)

    metrics = MetricsRegistry() if args.metrics_out else NULL_METRICS
    hooks: Hooks = _StepTableHooks() if args.verbose else NULL_HOOKS
    kill_after = os.environ.get(KILL_ENV_VAR)
    if kill_after is not None:
        hooks = CompositeHooks([hooks, _KillAfterStep(int(kill_after))])
    config = _sequence_config(args, metrics, hooks)

    steps = infer_sequence(translators, collection, rng, config=config)
    _emit_sequence_outputs(args, steps[-1].collection, steps, metrics)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from .store import CheckpointManager

    _programs, _models, translators = _chain_translators(args)
    manager = CheckpointManager(args.checkpoint_dir, every=args.checkpoint_every)
    try:
        checkpoint = manager.load_latest()
    except SchemaVersionError as error:
        _fail_usage(f"incompatible checkpoint: {error}")
    if checkpoint is None:
        _fail_usage(f"no usable checkpoint found in {args.checkpoint_dir}")
    if checkpoint.rng is None:
        _fail_usage(
            f"checkpoint {checkpoint.path} carries no RNG state and cannot "
            "resume deterministically"
        )
    completed = checkpoint.step + 1
    if completed > len(translators):
        _fail_usage(
            f"checkpoint {checkpoint.path} is at step {checkpoint.step}, but the "
            f"given chain only has {len(translators)} edit(s)"
        )
    print(f"resuming from {checkpoint.path} (step {checkpoint.step} complete)")

    metrics = MetricsRegistry() if args.metrics_out else NULL_METRICS
    hooks: Hooks = _StepTableHooks() if args.verbose else NULL_HOOKS
    config = _sequence_config(args, metrics, hooks)

    remaining = translators[completed:]
    if remaining:
        steps = infer_sequence(
            remaining, checkpoint.collection, checkpoint.rng,
            config=config, step_offset=completed,
        )
        collection = steps[-1].collection
    else:
        steps, collection = [], checkpoint.collection
    _emit_sequence_outputs(args, collection, steps, metrics)
    return 0


def _cmd_session(args: argparse.Namespace) -> int:
    from .experiments.session_demo import SESSION_WORKFLOWS

    runner = SESSION_WORKFLOWS[args.name]
    report = runner(
        num_particles=args.num_samples,
        seed=args.seed,
        store_dir=args.store_dir,
    )
    print(
        f"session {report['session_id']}: {report['num_edits']} edits, "
        f"{report['session_metrics']['session.particles_translated']['value']:.0f} "
        "particle translations"
    )
    if args.store_dir:
        print(f"session persisted to {args.store_dir}")
    if args.metrics_out:
        dump_json(
            {
                "session": report["session_metrics"],
                "manager": report["manager_metrics"],
                "history": report["history"],
                "summaries": report["summaries"],
            },
            args.metrics_out,
        )
        print(f"metrics written to {args.metrics_out}")
    return 0


def _parse_priorities(pairs: Optional[List[str]]) -> Dict[str, int]:
    priorities: Dict[str, int] = {}
    for pair in pairs or []:
        name, eq, value = pair.partition("=")
        if not eq or not name.strip():
            _fail_usage(f"--tenant-priority expects NAME=RANK, got {pair!r}")
        try:
            priorities[name.strip()] = int(value)
        except ValueError:
            _fail_usage(f"--tenant-priority rank must be an integer, got {value!r}")
    return priorities


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import InferenceService, ServiceConfig

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            num_shards=args.num_shards,
            shard_processes=args.shard_processes,
            replicate=args.replicate,
            queue_depth=args.queue_depth,
            max_sessions_per_tenant=args.max_sessions_per_tenant,
            max_inflight_per_tenant=args.max_inflight_per_tenant,
            default_deadline_s=args.default_deadline_s,
            max_deadline_s=args.max_deadline_s,
            wedged_after_s=args.wedged_after_s,
            tenant_priorities=_parse_priorities(args.tenant_priority),
            store_dir=args.store_dir,
            checkpoint_keep=args.checkpoint_keep,
            num_particles=args.num_particles,
        )
    except (TypeError, ValueError) as error:
        _fail_usage(str(error))
    service = InferenceService(config)

    async def run() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        serve_task = asyncio.create_task(service.serve())
        started_task = asyncio.create_task(service.started.wait())
        done, _ = await asyncio.wait(
            {serve_task, started_task}, return_when=asyncio.FIRST_COMPLETED
        )
        if serve_task in done:
            # Startup failed (bind error, shard spawn/handshake failure):
            # surface the exception instead of waiting forever.
            started_task.cancel()
            serve_task.result()
            return
        print(f"serving on {service.host}:{service.port}", flush=True)
        if service.recovered_sessions:
            print(
                f"recovered {len(service.recovered_sessions)} session(s) in "
                f"{service.recovery_seconds:.3f}s: "
                f"{', '.join(service.recovered_sessions)}",
                flush=True,
            )
        if args.port_file:
            # The handshake file scripts wait on: written only after the
            # socket is accepting and recovery has finished.
            with open(args.port_file, "w") as handle:
                handle.write(f"{service.port}\n")
        await stop.wait()
        print("shutting down", flush=True)
        await service.stop()
        serve_task.cancel()
        try:
            await serve_task
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(run())
    except SchemaVersionError as error:
        # A shard process refused the router's wire schema (mismatched
        # builds): configuration problem, same exit-code rung as a
        # newer-schema checkpoint.
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .service import LoadgenConfig, run_loadgen

    try:
        config = LoadgenConfig(
            workload=args.workload,
            num_sessions=args.sessions,
            ops_per_session=args.ops,
            posterior_every=args.posterior_every,
            concurrency=args.concurrency,
            num_particles=args.num_particles,
            deadline_s=args.deadline_s,
            tenant=args.tenant,
            seed=args.seed,
            max_attempts=args.max_attempts,
        )
    except ValueError as error:
        _fail_usage(str(error))
    summary = run_loadgen(args.host, args.port, config)
    print(
        f"{summary['workload']}: {summary['ok']}/{summary['requests']} ok, "
        f"rejection rate {summary['rejection_rate']:.1%}, "
        f"{summary['retries']} retries, "
        f"{summary['throughput_rps']:.1f} req/s"
    )
    for op, latency in summary["latency"].items():
        print(
            f"  {op:>9}: p50={latency['p50_ms']:.1f}ms "
            f"p99={latency['p99_ms']:.1f}ms n={latency['count']}"
        )
    if summary["rejected"]:
        for code, count in summary["rejected"].items():
            print(f"  rejected[{code}] = {count}")
    if args.out:
        dump_json(summary, args.out)
        print(f"summary written to {args.out}")
    if args.fail_on_rejections and summary["rejected"]:
        return EXIT_SERVICE
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments.harness import save_rows

    tracer = Tracer() if args.trace_out else None
    metrics = MetricsRegistry() if args.metrics_out else NULL_METRICS

    if args.name == "fig8":
        from .experiments.fig8 import Fig8Config, run_fig8

        config = (
            Fig8Config(
                repetitions=2,
                trace_counts=(3, 10),
                mcmc_iterations=(10, 30),
                gold_iterations=2000,
                collection=args.collection,
            )
            if args.quick
            else Fig8Config(collection=args.collection)
        )
        result = run_fig8(config, tracer=tracer, metrics=metrics)
    else:
        from .experiments.fig9 import Fig9Config, run_fig9

        config = (
            Fig9Config(
                num_train_words=1500,
                num_test_words=4,
                trace_counts=(1, 3),
                gibbs_sweeps=(1,),
            )
            if args.quick
            else Fig9Config()
        )
        result = run_fig9(config, tracer=tracer, metrics=metrics)

    if args.out:
        save_rows(result.rows, args.out)
        print(f"rows written to {args.out}")
    if args.trace_out:
        dump_json(result.tracer.to_dict(), args.trace_out)
        print(f"trace written to {args.trace_out}")
    if args.metrics_out:
        dump_json(metrics.to_dict(), args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="incremental inference for probabilistic programs"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    parse_cmd = subparsers.add_parser("parse", help="parse and pretty-print a program")
    parse_cmd.add_argument("file")
    parse_cmd.set_defaults(handler=_cmd_parse)

    check_cmd = subparsers.add_parser("check", help="run static checks on a program")
    check_cmd.add_argument("file")
    check_cmd.add_argument("--env", action="append", metavar="NAME=VALUE",
                           help="declare a program parameter (value unused)")
    check_cmd.set_defaults(handler=_cmd_check)

    lint_cmd = subparsers.add_parser(
        "lint", help="run the static-analysis suite (repro.analysis)"
    )
    lint_cmd.add_argument(
        "targets", nargs="+", metavar="TARGET",
        help="one program file (program checks), two files OLD NEW "
             "(program + correspondence + edit-soundness checks), or the "
             "literal 'bundled' (every shipped program, edit pair, "
             "correspondence, and config)",
    )
    lint_cmd.add_argument("--env", action="append", metavar="NAME=VALUE",
                          help="declare a program parameter")
    lint_cmd.add_argument("--format", choices=("text", "json"), default="text",
                          help="report format (default: text)")
    lint_cmd.add_argument("--strict", action="store_true",
                          help="treat warnings as failures (exit 4); info "
                               "findings never affect the exit code")
    lint_cmd.add_argument("--out", metavar="PATH",
                          help="also write the JSON report to this file "
                               "(the CI artifact)")
    lint_cmd.add_argument("--static-profile", metavar="PATH", dest="static_profile",
                          help="also write the static model profiles (and, "
                               "for pairs, the columnar pre-flight plan) as "
                               "JSON to this file; with 'bundled', covers "
                               "every bundled model pair")
    lint_cmd.add_argument("--derive", action="store_true",
                          help="with OLD NEW: validate the automatically "
                               "derived correspondence (repro.derive) instead "
                               "of the tree-diff label map; edit findings then "
                               "cite the derivation report")
    lint_cmd.set_defaults(handler=_cmd_lint)

    run_cmd = subparsers.add_parser("run", help="sample traces of a program")
    run_cmd.add_argument("file")
    run_cmd.add_argument("--env", action="append", metavar="NAME=VALUE")
    run_cmd.add_argument("-n", "--num-samples", type=int, default=5)
    run_cmd.add_argument("--seed", type=int, default=None)
    run_cmd.set_defaults(handler=_cmd_run)

    enum_cmd = subparsers.add_parser(
        "enumerate", help="exact return-value posterior (finite discrete programs)"
    )
    enum_cmd.add_argument("file")
    enum_cmd.add_argument("--env", action="append", metavar="NAME=VALUE")
    enum_cmd.set_defaults(handler=_cmd_enumerate)

    diff_cmd = subparsers.add_parser(
        "diff", help="label correspondence between two programs"
    )
    diff_cmd.add_argument("old")
    diff_cmd.add_argument("new")
    diff_cmd.set_defaults(handler=_cmd_diff)

    derive_cmd = subparsers.add_parser(
        "derive", help="derive the address correspondence between two programs"
    )
    derive_cmd.add_argument("old")
    derive_cmd.add_argument("new")
    derive_cmd.add_argument("--env", action="append", metavar="NAME=VALUE")
    derive_cmd.add_argument("-n", "--num-samples", type=_positive_int, default=24,
                            help="profiling simulations per model when exact "
                                 "enumeration is impossible (default: 24)")
    derive_cmd.add_argument("--seed", type=int, default=0,
                            help="profiling seed (derivation is deterministic "
                                 "for a fixed seed; default: 0)")
    derive_cmd.add_argument("--format", choices=("text", "json"), default="text",
                            help="report format (default: text)")
    derive_cmd.add_argument("--out", metavar="PATH",
                            help="also write the JSON derivation report to "
                                 "this file (the CI artifact)")
    derive_cmd.set_defaults(handler=_cmd_derive)

    translate_cmd = subparsers.add_parser(
        "translate", help="incremental inference from OLD to NEW"
    )
    translate_cmd.add_argument("old")
    translate_cmd.add_argument("new")
    translate_cmd.add_argument("--env", action="append", metavar="NAME=VALUE")
    translate_cmd.add_argument("-n", "--num-samples", type=int, default=1000)
    translate_cmd.add_argument("--seed", type=int, default=None)
    translate_cmd.add_argument("--top", type=int, default=10,
                               help="show the top-K return values")
    translate_cmd.add_argument("--fault-policy", choices=FaultPolicy.MODES,
                               default="fail_fast",
                               help="what a failed particle translation does: "
                                    "crash (fail_fast), lose the particle (drop), "
                                    "or retry and resample it from the prior "
                                    "(regenerate)")
    translate_cmd.add_argument("--max-retries", type=int, default=2,
                               help="translation retries per particle before "
                                    "'regenerate' falls back to the prior")
    translate_cmd.add_argument("--trace-out", metavar="PATH",
                               help="write the span-tree trace as strict JSON")
    translate_cmd.add_argument("--metrics-out", metavar="PATH",
                               help="write the metrics snapshot as strict JSON")
    translate_cmd.add_argument("-v", "--verbose", action="store_true",
                               help="print a one-line summary per SMC step")
    _add_collection_argument(translate_cmd)
    translate_cmd.set_defaults(handler=_cmd_translate)

    sequence_cmd = subparsers.add_parser(
        "sequence", help="iterated incremental inference over an edit chain"
    )
    sequence_cmd.add_argument("files", nargs="+", metavar="FILE",
                              help="the programs of the edit chain, in order")
    sequence_cmd.add_argument("--env", action="append", metavar="NAME=VALUE")
    sequence_cmd.add_argument("-n", "--num-samples", type=int, default=1000)
    sequence_cmd.add_argument("--seed", type=int, default=None)
    sequence_cmd.add_argument("--correspondence", choices=("diff", "derive"),
                              default="diff",
                              help="how each edit's address map is obtained: "
                                   "'diff' recovers it from the program tree "
                                   "diff, 'derive' aligns the profiled address "
                                   "spaces (repro.derive; default: diff)")
    _add_checkpoint_arguments(sequence_cmd)
    sequence_cmd.add_argument("--out", metavar="PATH",
                              help="write the final collection as a canonical "
                                   "store-codec document (byte-stable)")
    sequence_cmd.add_argument("--metrics-out", metavar="PATH",
                              help="write the metrics snapshot as strict JSON")
    sequence_cmd.add_argument("-v", "--verbose", action="store_true",
                              help="print a one-line summary per SMC step")
    _add_collection_argument(sequence_cmd)
    sequence_cmd.set_defaults(handler=_cmd_sequence)

    resume_cmd = subparsers.add_parser(
        "resume", help="continue a killed sequence run from its latest checkpoint"
    )
    resume_cmd.add_argument("files", nargs="+", metavar="FILE",
                            help="the same program chain the sequence run used")
    resume_cmd.add_argument("--env", action="append", metavar="NAME=VALUE")
    resume_cmd.add_argument("--correspondence", choices=("diff", "derive"),
                            default="diff",
                            help="must match the interrupted run's setting so "
                                 "the resumed steps translate identically "
                                 "(default: diff)")
    _add_checkpoint_arguments(resume_cmd, required=True)
    resume_cmd.add_argument("--out", metavar="PATH",
                            help="write the final collection as a canonical "
                                 "store-codec document (byte-stable)")
    resume_cmd.add_argument("--metrics-out", metavar="PATH",
                            help="write the metrics snapshot as strict JSON")
    resume_cmd.add_argument("-v", "--verbose", action="store_true",
                            help="print a one-line summary per SMC step")
    _add_collection_argument(resume_cmd)
    resume_cmd.set_defaults(handler=_cmd_resume)

    session_cmd = subparsers.add_parser(
        "session", help="run a scripted multi-edit inference-session workflow"
    )
    session_cmd.add_argument("name", choices=("fig8", "fig10"),
                             help="fig8: robust regression on the embedded PPL; "
                                  "fig10: GMM on the dependency-graph runtime")
    session_cmd.add_argument("-n", "--num-samples", type=int, default=200,
                             help="particles in the session's collection")
    session_cmd.add_argument("--seed", type=int, default=0)
    session_cmd.add_argument("--store-dir", metavar="DIR",
                             help="persist the session to this store directory")
    session_cmd.add_argument("--metrics-out", metavar="PATH",
                             help="write per-session metrics, edit history, and "
                                  "summaries as strict JSON")
    session_cmd.set_defaults(handler=_cmd_session)

    serve_cmd = subparsers.add_parser(
        "serve", help="run the multi-tenant incremental-inference service"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=0,
                           help="listen port (0 = ephemeral; see --port-file)")
    serve_cmd.add_argument("--port-file", metavar="PATH",
                           help="write the bound port here once the server is "
                                "accepting and recovery has finished (the "
                                "handshake scripts wait on)")
    serve_cmd.add_argument("--store-dir", metavar="DIR", default=None,
                           help="durability root (commit checkpoints + LRU "
                                "spill); omit for a purely in-memory server "
                                "with no crash recovery")
    serve_cmd.add_argument("--shard-processes", type=int, default=0,
                           metavar="N",
                           help="promote shards to N worker processes behind "
                                "a router (0 = single-process worker threads); "
                                "sessions are spread by rendezvous-hashed "
                                "placement and fail over on process death")
    serve_cmd.add_argument("--replicate", action="store_true",
                           help="process mode: refresh a warm in-memory "
                                "replica on the placement runner-up after "
                                "every acked mutation (requires --store-dir)")
    serve_cmd.add_argument("--num-shards", type=_positive_int, default=2,
                           help="worker shards (sessions hash to a shard)")
    serve_cmd.add_argument("--queue-depth", type=int, default=16,
                           help="bounded per-shard queue (0 = unbounded, "
                                "which repro lint flags)")
    serve_cmd.add_argument("--max-sessions-per-tenant", type=int, default=8)
    serve_cmd.add_argument("--max-inflight-per-tenant", type=int, default=4)
    serve_cmd.add_argument("--default-deadline-s", type=float, default=30.0)
    serve_cmd.add_argument("--max-deadline-s", type=float, default=120.0)
    serve_cmd.add_argument("--wedged-after-s", type=float, default=2.0,
                           help="serve posterior reads degraded (from the "
                                "last commit snapshot) once the worker has "
                                "been busy this long")
    serve_cmd.add_argument("--tenant-priority", action="append",
                           metavar="NAME=RANK",
                           help="tenant priority for load shedding "
                                "(higher survives longer; repeatable)")
    serve_cmd.add_argument("--checkpoint-keep", type=_positive_int, default=2,
                           help="commit snapshots kept per session (>= 2 "
                                "keeps a fallback against torn writes)")
    serve_cmd.add_argument("-n", "--num-particles", type=_positive_int,
                           default=100,
                           help="default particle count for created sessions")
    serve_cmd.set_defaults(handler=_cmd_serve)

    loadgen_cmd = subparsers.add_parser(
        "loadgen", help="drive a deterministic workload against a service"
    )
    loadgen_cmd.add_argument("--host", default="127.0.0.1")
    loadgen_cmd.add_argument("--port", type=int, required=True)
    loadgen_cmd.add_argument("--workload",
                             choices=("gauss-chain", "gmm-edits",
                                      "fig8-session"),
                             default="gauss-chain")
    loadgen_cmd.add_argument("--sessions", type=_positive_int, default=4)
    loadgen_cmd.add_argument("--ops", type=_positive_int, default=5,
                             help="mutating ops per session")
    loadgen_cmd.add_argument("--posterior-every", type=int, default=2,
                             help="interleave a posterior read every N ops "
                                  "(0 disables)")
    loadgen_cmd.add_argument("--concurrency", type=_positive_int, default=2)
    loadgen_cmd.add_argument("-n", "--num-particles", type=_positive_int,
                             default=50)
    loadgen_cmd.add_argument("--deadline-s", type=float, default=None)
    loadgen_cmd.add_argument("--tenant", default="bench")
    loadgen_cmd.add_argument("--seed", type=int, default=0)
    loadgen_cmd.add_argument("--max-attempts", type=_positive_int, default=4,
                             help="retry budget per request (1 = no retries)")
    loadgen_cmd.add_argument("--out", metavar="PATH",
                             help="write the summary as strict JSON")
    loadgen_cmd.add_argument("--fail-on-rejections", action="store_true",
                             help="exit 5 if any request was rejected after "
                                  "its retry budget")
    loadgen_cmd.set_defaults(handler=_cmd_loadgen)

    experiment_cmd = subparsers.add_parser(
        "experiment", help="run a figure reproduction"
    )
    experiment_cmd.add_argument("name", choices=("fig8", "fig9"))
    experiment_cmd.add_argument("--quick", action="store_true",
                                help="reduced configuration for a fast pass")
    experiment_cmd.add_argument("--out", metavar="PATH",
                                help="write result rows as strict JSON")
    experiment_cmd.add_argument("--trace-out", metavar="PATH",
                                help="write the span-tree trace as strict JSON")
    experiment_cmd.add_argument("--metrics-out", metavar="PATH",
                                help="write the metrics snapshot as strict JSON")
    _add_collection_argument(experiment_cmd)
    experiment_cmd.set_defaults(handler=_cmd_experiment)

    return parser


def _add_checkpoint_arguments(cmd: argparse.ArgumentParser, required: bool = False) -> None:
    cmd.add_argument("--checkpoint-dir", metavar="DIR", required=required,
                     default=None,
                     help="directory for atomic, checksummed step checkpoints")
    cmd.add_argument("--checkpoint-every", type=_positive_int, default=1,
                     metavar="K",
                     help="checkpoint cadence in steps (the final step is "
                          "always checkpointed)")


def _add_collection_argument(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--collection", choices=InferenceConfig.COLLECTION_MODES,
                     default="object",
                     help="particle-population representation: 'object' keeps "
                          "one trace per particle; 'columnar' stores the "
                          "population address-major and vectorizes each SMC "
                          "step (bitwise identical for parameter-only edits, "
                          "spills to 'object' for unsupported steps)")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ServiceError as error:
        print(f"repro {args.command}: service error: {error}", file=sys.stderr)
        return EXIT_SERVICE
    except ReproError as error:
        print(f"repro {args.command}: inference fault: {error}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
