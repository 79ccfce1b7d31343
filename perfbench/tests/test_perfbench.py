"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import check_round, load_reference, output_sha  # noqa: E402
from spans import SpanRecorder, summarize  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    expected_tasks,
    make_runner,
    run_round,
)


@pytest.fixture(scope="module")
def default_rounds():
    """One round of every workload at the default seed."""
    out = {}
    for name, workload in WORKLOADS.items():
        specs = workload.make_specs(DEFAULT_SEED)
        out[name] = (specs, run_round(workload, make_runner(workload), specs))
    return out


def _patchable_state():
    """Identity snapshot of everything the span recorder may replace."""
    from repro.core.policies.base import SchedulerPolicy
    from repro.distributed.cluster_runtime import DistributedRuntime
    from repro.distributed.network import Fabric
    from repro.machine.speed import SpeedModel
    from repro.runtime.executor import SimulatedRuntime
    from spans import _policy_classes

    owners = [
        module for name, module in sorted(sys.modules.items())
        if module is not None and name.startswith("repro")
    ]
    owners += [SpeedModel, SimulatedRuntime, DistributedRuntime, Fabric]
    owners += _policy_classes(SchedulerPolicy)
    return {
        (id(owner), attr): value
        for owner in owners
        for attr, value in list(vars(owner).items())
    }


def test_span_wrappers_restore_the_original_functions():
    import repro.sweep.engine as engine
    import repro.sweep.registry as registry
    from repro.runtime.executor import SimulatedRuntime

    spec = WORKLOADS["tiny_cells"].make_specs(DEFAULT_SEED)[0]
    plain = registry.execute_spec(spec)  # loads the lazily imported modules
    before = _patchable_state()
    recorder = SpanRecorder().install()
    try:
        assert engine.execute_spec is not before[(id(engine), "execute_spec")]
        assert SimulatedRuntime.run is not before[(id(SimulatedRuntime), "run")]
        traced = registry.execute_spec(spec)
    finally:
        recorder.remove()
    after = _patchable_state()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
    assert traced == plain
    names = {span[2] for span in recorder.spans}
    assert {"sweep.execute", "graph.build", "runtime.run", "core.decide",
            "core.complete", "machine.begin_work", "metrics.extract"} <= names
    cells = {span[5] for span in recorder.spans}
    assert cells == {spec.key()[:16]}


def test_self_time_excludes_children_and_folds_same_name_nesting():
    spans = [
        (1, 0, "runtime.run", 0.0, 10.0, "c"),
        (2, 1, "core.decide", 1.0, 3.0, "c"),
        (3, 2, "core.decide", 1.5, 2.5, "c"),  # base-class call
        (4, 3, "machine.begin_work", 2.0, 2.2, "c"),
        (5, 1, "machine.begin_work", 4.0, 5.0, "c"),
    ]
    summary = summarize(spans)
    assert summary["runtime.run"]["self_s"] == pytest.approx(7.0)
    assert summary["core.decide"]["calls"] == 1
    assert summary["core.decide"]["total_s"] == pytest.approx(2.0)
    assert summary["core.decide"]["self_s"] == pytest.approx(1.8)
    assert summary["machine.begin_work"]["calls"] == 2


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_the_specs_but_not_the_work(name):
    make = WORKLOADS[name].make_specs
    base, again, other = make(DEFAULT_SEED), make(DEFAULT_SEED), make(7)
    assert [s.key() for s in base] == [s.key() for s in again]
    assert [s.seed for s in base] != [s.seed for s in other]
    assert [s.params for s in base] == [s.params for s in other]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_reproduces_the_reference(name, default_rounds):
    specs, results = default_rounds[name]
    reference = load_reference(name)
    check = check_round(specs, results, reference, WORKLOADS[name].adaptive)
    assert check.problems == []
    assert check.failed == 0
    assert check.output_sha == output_sha(reference)


def _perturbations(result):
    """Copies of one cell's result, each wrong in one way."""
    nudged = copy.deepcopy(result)
    nudged["makespan"] = math.nextafter(nudged["makespan"], math.inf)
    short = copy.deepcopy(result)
    short["tasks_completed"] -= 1
    nan = copy.deepcopy(result)
    nan["throughput"] = float("nan")
    error = {"__error__": {"type": "RuntimeStateError", "message": "x"}}
    return {"nudged": nudged, "short": short, "nan": nan, "error": error}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_perturbed_result_counts_in_failed_frac(name, default_rounds):
    specs, results = default_rounds[name]
    workload = WORKLOADS[name]
    clean = check_round(specs, results, None, workload.adaptive)
    for label, bad in _perturbations(results[0]).items():
        perturbed = [bad] + list(results[1:])
        # Against the pinned reference and against an earlier round.
        for reference in (load_reference(name), clean.digests):
            check = check_round(specs, perturbed, reference, workload.adaptive)
            assert check.failed > 0, label
            assert check.failed / check.runs > 0, label
            assert check.runs == clean.runs or label == "error", label
    assert expected_tasks(specs[0]) > 0
