"""The benchmark's traced checks, run on every test run.

``perfbench/run.py --trace 1`` counts one ``states.satisfies_constraints``
call per assignment and one ``enumerate_states`` item drawn by the sweep per
examined state, and compares them, the ground sizes and the distinct causes
with each workload's closed forms.  A sweep that stops making exactly those
calls fails here as well as in the benchmark, and so does a package change
that breaks the benchmark's traced pipeline.  ``perfbench/`` is only read.
"""

import sys

import pytest

import aopl_lint
from aopl_lint import collapse_families, sweep

from helpers import bench_case, bench_module, bench_workloads

WORKLOADS = sorted(bench_workloads().GENERATORS)


def cause(family) -> tuple:
    """A family's cause as the benchmark reads it off the JSON report."""
    action = family.action.lstrip("-").split("(", 1)[0]
    labels = tuple(sorted(family.base_labels))
    return family.kind.value, action, labels, family.urgency, family.case


@pytest.mark.parametrize("name", WORKLOADS)
def test_the_sweep_makes_the_calls_the_benchmark_counts(name, monkeypatch):
    base, options, expected = bench_case(name)
    verdicts, drawn = [], []
    satisfies = aopl_lint.states.satisfies_constraints
    enumerate_states = aopl_lint.analysis.enumerate_states

    def counting_checks(gp, state):
        verdicts.append(satisfies(gp, state))
        return verdicts[-1]

    def counting_states(gp, pins=()):
        for state in enumerate_states(gp, pins):
            drawn.append(state)
            yield state

    monkeypatch.setattr(aopl_lint.states, "satisfies_constraints", counting_checks)
    monkeypatch.setattr(aopl_lint.analysis, "enumerate_states", counting_states)
    result = sweep(base, options)
    assert len(verdicts) == expected["assignments"]
    assert verdicts.count(False) == expected["assignments"] - expected["states_examined"]
    assert len(drawn) == result.states_examined == expected["states_examined"]
    gp = base.ground
    assert (len(gp.rules), len(gp.state_atoms), len(gp.action_atoms)) == (
        expected["ground_rules"], expected["state_atoms"], expected["action_atoms"]
    )
    causes = {(kind, act, tuple(labels), *rest) for kind, act, labels, *rest in expected["causes"]}
    assert {cause(family) for family in collapse_families(result)} == causes


@pytest.fixture(scope="module")
def bench():
    """perfbench's ``run`` and ``spans`` modules; ``run`` imports ``workloads`` by that name."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "workloads", bench_workloads())
        run = bench_module("run")
    return run, bench_module("spans")


@pytest.mark.parametrize("name", WORKLOADS)
def test_the_benchmarks_traced_pipeline_passes_its_checks(name, bench, tmp_path):
    run, spans = bench
    workload = bench_workloads().generate(name, 1)
    pipeline = run.Pipeline([str(path) for path in workload.write(tmp_path)], workload.pins)
    untraced = pipeline.run()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = pipeline.run()
    assert (traced["text"], traced["json"]) == (untraced["text"], untraced["json"])
    run.check_counters(run.layer_values(tracer, traced), workload.expected)
    run.check_outcome(traced, workload.expected)
