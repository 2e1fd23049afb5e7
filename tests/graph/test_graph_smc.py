"""Algorithm 2 over dependency-graph traces.

The SMC step (`repro.core.smc.infer`) is generic in the trace type, so
the Section 6 GraphTranslator drops in directly: a collection of graph
traces of the old program is translated, reweighted, resampled, and the
weighted estimates converge to the new program's posterior (checked
against exact enumeration on discrete lang programs).
"""

import numpy as np
import pytest

from repro import InferenceConfig, WeightedCollection, infer, infer_sequence
from repro.graph import GraphTranslator, replace_constant, run_initial
from repro.lang import lang_model, parse_program
from repro.core.enumerate import exact_choice_marginal


SOURCE = """
p = 0.3;
x = flip(p);
y = flip(x ? 0.8 : 0.2);
observe(flip(y ? 0.9 : 0.1) == 1);
return x;
"""


@pytest.fixture
def programs():
    source = parse_program(SOURCE)
    target = replace_constant(source, "p", 0.5)
    return source, target


def graph_posterior_input(program, rng, size):
    """Approximate posterior graph traces via sampling-importance-resampling."""
    traces = [run_initial(program, rng) for _ in range(size * 8)]
    collection = WeightedCollection(traces, [t.observation_log_prob for t in traces])
    return collection.resample(rng, size=size)


class TestGraphSMC:
    def test_infer_converges_to_target_posterior(self, programs, rng):
        source, target = programs
        translator = GraphTranslator(source, target)
        collection = graph_posterior_input(source, rng, 4000)
        step = infer(translator, collection, rng)
        x_label = [a for a in step.collection.items[0].choices() if a[0].startswith("flip:3")]
        truth = exact_choice_marginal(lang_model(target), x_label[0])[1]
        estimate = step.collection.estimate_probability(
            lambda u, a=x_label[0]: u[a] == 1
        )
        assert estimate == pytest.approx(truth, abs=0.03)

    def test_resampling_over_graph_traces(self, programs, rng):
        source, target = programs
        translator = GraphTranslator(source, target)
        collection = graph_posterior_input(source, rng, 500)
        step = infer(translator, collection, rng, config=InferenceConfig(resample="always"))
        assert step.stats.resampled
        assert all(w == 0.0 for w in step.collection.log_weights)

    def test_sequence_of_edits(self, rng):
        """Iterated Algorithm 2 across a chain of constant edits."""
        base = parse_program(SOURCE)
        values = [0.3, 0.4, 0.5, 0.6]
        programs = [base] + [replace_constant(base, "p", v) for v in values[1:]]
        translators = [
            GraphTranslator(programs[i], programs[i + 1])
            for i in range(len(programs) - 1)
        ]
        collection = graph_posterior_input(programs[0], rng, 4000)
        steps = infer_sequence(
            translators, collection, rng, config=InferenceConfig(resample="adaptive")
        )
        final = steps[-1].collection
        x_label = [a for a in final.items[0].choices() if a[0].startswith("flip:3")][0]
        truth = exact_choice_marginal(lang_model(programs[-1]), x_label)[1]
        estimate = final.estimate_probability(lambda u, a=x_label: u[a] == 1)
        assert estimate == pytest.approx(truth, abs=0.03)

    def test_regenerate_is_properly_weighted(self, programs, rng):
        """GraphTranslator.regenerate importance-samples the target
        posterior: self-normalized estimates over regenerated traces
        match exact enumeration."""
        source, target = programs
        translator = GraphTranslator(source, target)
        traces, weights = [], []
        for _ in range(4000):
            trace, log_weight = translator.regenerate(rng)
            traces.append(trace)
            weights.append(log_weight)
        collection = WeightedCollection(traces, weights)
        x_label = [a for a in traces[0].choices() if a[0].startswith("flip:3")][0]
        truth = exact_choice_marginal(lang_model(target), x_label)[1]
        estimate = collection.estimate_probability(lambda u, a=x_label: u[a] == 1)
        assert estimate == pytest.approx(truth, abs=0.03)

    def test_regenerate_fault_policy_over_graph_traces(self, programs, rng):
        """The regenerate policy composes with the graph engine: faults
        injected into graph translation are absorbed without bias."""
        from repro.testing import FaultInjector, FaultyTranslator

        source, target = programs
        injector = FaultInjector(seed=41, error_rate=0.2)
        translator = FaultyTranslator(GraphTranslator(source, target), injector)
        collection = graph_posterior_input(source, rng, 4000)
        step = infer(
            translator, collection, rng, config=InferenceConfig(fault_policy="regenerate")
        )
        assert step.stats.failed > 0
        x_label = [a for a in step.collection.items[0].choices() if a[0].startswith("flip:3")][0]
        truth = exact_choice_marginal(lang_model(target), x_label)[1]
        estimate = step.collection.estimate_probability(lambda u, a=x_label: u[a] == 1)
        assert estimate == pytest.approx(truth, abs=0.03)

    def test_translated_graph_traces_share_unchanged_records(self, programs, rng):
        source, target = programs
        translator = GraphTranslator(source, target)
        trace = run_initial(source, rng)
        result = translator.translate(rng, trace)
        # The observe statement's record is shared when y is unchanged.
        new_children = result.trace.root.children
        old_children = trace.root.children
        assert result.trace is not trace
        # Unchanged final statement (return x) record is reused by reference.
        def last_record(record):
            while "second" in record.children:
                record = record.children["second"]
            return record

        assert last_record(result.trace.root) is last_record(trace.root)
