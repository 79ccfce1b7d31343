"""Tests for deterministic fault injection and runtime recovery.

Covers the PR's acceptance criteria: fault plans are deterministic and
validated; a crashed core's work is reclaimed and re-executed exactly
once; transient crashes revive their worker; recovery is observable in
fault stats and trace events; and — property-tested — a run with faults
fully off is bit-identical (metrics, records, RNG states) to one without
the fault machinery installed at all.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.policies.registry import SCHEDULER_NAMES, make_scheduler
from repro.errors import ConfigurationError, TaskRetryExhausted
from repro.faults import CoreCrash, FaultInjector, FaultPlan, FaultScenario, StragglerWindow
from repro.graph.dag import TaskGraph
from repro.graph.generators import random_layered_dag
from repro.kernels.fixed import FixedWorkKernel
from repro.machine.presets import jetson_tx2, symmetric_machine
from repro.machine.speed import SpeedModel
from repro.runtime.config import RuntimeConfig
from repro.runtime.executor import SimulatedRuntime
from repro.sim.environment import Environment
from repro.sweep import RunSpec, SweepRunner
from repro.trace import (
    FullTracer,
    QueueReclaimEvent,
    TaskRetryEvent,
    WorkerLostEvent,
    WorkerRecoveredEvent,
)

KERNELS = [
    FixedWorkKernel("small", work=2e-4, parallel_fraction=0.5),
    FixedWorkKernel("big", work=2e-3, parallel_fraction=0.95,
                    memory_intensity=0.4),
]

#: Short lease so detection (and therefore the whole test) stays fast.
FAST_CONFIG = RuntimeConfig(lease_timeout=1e-3, retry_backoff=1e-5)


def _run(scheduler="dam-c", seed=0, layers=6, width=4, plan=None,
         config=FAST_CONFIG, tracer=None):
    """One TX2 run, optionally under a fault plan."""
    graph = random_layered_dag(KERNELS, layers, width, seed=seed)
    env = Environment()
    machine = jetson_tx2()
    speed = SpeedModel(env, machine)
    if plan is not None:
        FaultScenario(plan).install(env, speed, machine)
    runtime = SimulatedRuntime(
        env, machine, graph, make_scheduler(scheduler),
        config=config, speed=speed, seed=seed, tracer=tracer,
    )
    return runtime, runtime.run(), graph.total_tasks


def _fingerprint(runtime, result):
    """Everything observable about a run: records, steals, RNG states."""
    records = tuple(
        (r.task_id, r.type_name, r.place, r.ready_time, r.dequeue_time,
         r.exec_start, r.exec_end, r.observed, r.stolen)
        for r in result.collector.records
    )
    rng_draws = tuple(
        float(rng.random()) for rng in runtime._steal_rngs
    ) + (float(runtime._noise_rng.random()), float(runtime._wake_rng.random()))
    return (
        result.makespan,
        result.tasks_completed,
        records,
        dict(result.collector.core_busy),
        result.collector.steals,
        rng_draws,
    )


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CoreCrash(core=-1, at=1.0)
        with pytest.raises(ConfigurationError):
            CoreCrash(core=0, at=0.0)  # workers start at 0
        with pytest.raises(ConfigurationError):
            CoreCrash(core=0, at=1.0, duration=0.0)
        with pytest.raises(ConfigurationError):
            StragglerWindow(cores=(), at=1.0, duration=1.0, slowdown=0.5)
        with pytest.raises(ConfigurationError):
            StragglerWindow(cores=(0,), at=1.0, duration=1.0, slowdown=0.0)
        with pytest.raises(ConfigurationError):
            StragglerWindow(cores=(0,), at=1.0, duration=1.0, slowdown=1.0)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ConfigurationError, match="overlap"):
            FaultPlan(crashes=(CoreCrash(0, at=1.0, duration=2.0),),
                      stragglers=(StragglerWindow((0,), at=2.0, duration=1.0,
                                                  slowdown=0.5),))
        # A permanent crash occupies [at, inf): anything later collides.
        with pytest.raises(ConfigurationError, match="overlap"):
            FaultPlan(crashes=(CoreCrash(0, at=1.0),
                               CoreCrash(0, at=5.0)))

    def test_disjoint_windows_accepted(self):
        FaultPlan(
            crashes=(CoreCrash(0, at=1.0, duration=1.0),),
            stragglers=(StragglerWindow((0,), at=2.5, duration=1.0,
                                        slowdown=0.5),),
        )

    def test_kills_every_core_rejected(self):
        plan = FaultPlan(crashes=(CoreCrash(0, at=1.0), CoreCrash(1, at=1.5)))
        with pytest.raises(ConfigurationError, match="every core"):
            plan.validate_for(2)
        plan.validate_for(3)  # one survivor is fine

    def test_out_of_range_core_rejected(self):
        plan = FaultPlan(crashes=(CoreCrash(9, at=1.0),))
        with pytest.raises(ConfigurationError, match="outside"):
            plan.validate_for(6)

    def test_params_round_trip(self):
        plan = FaultPlan(
            crashes=(CoreCrash(1, at=0.5), CoreCrash(2, at=1.0, duration=0.2)),
            stragglers=(StragglerWindow((3, 4), at=0.1, duration=0.3,
                                        slowdown=0.4),),
        )
        assert FaultPlan.from_params(plan.to_params()) == plan

    def test_random_is_deterministic(self):
        a = FaultPlan.random(seed=7, num_cores=6, horizon=1.0,
                             crashes=2, stragglers=2)
        b = FaultPlan.random(seed=7, num_cores=6, horizon=1.0,
                             crashes=2, stragglers=2)
        assert a == b
        assert a != FaultPlan.random(seed=8, num_cores=6, horizon=1.0,
                                     crashes=2, stragglers=2)

    def test_random_leaves_a_survivor(self):
        for seed in range(10):
            plan = FaultPlan.random(seed=seed, num_cores=2, horizon=1.0,
                                    crashes=5, stragglers=0)
            assert plan.max_concurrent_crashes() < 2


class TestCrashRecovery:
    def test_permanent_crash_completes_exactly_once(self):
        _, clean, total = _run(seed=1)
        plan = FaultPlan(crashes=(CoreCrash(1, at=0.3 * clean.makespan),))
        runtime, result, _ = _run(seed=1, plan=plan)
        assert result.tasks_completed == total
        # Exactly-once commit: every task recorded once, none duplicated.
        ids = [r.task_id for r in result.collector.records]
        assert len(ids) == total and len(set(ids)) == total
        stats = result.extra["fault_stats"]
        assert stats["workers_lost"] == 1
        assert stats["workers_recovered"] == 0
        assert stats["tasks_recovered"] >= 1

    def test_no_placement_on_dead_core_after_detection(self):
        _, clean, _ = _run(seed=2)
        crash_at = 0.3 * clean.makespan
        plan = FaultPlan(crashes=(CoreCrash(1, at=crash_at),))
        _, result, _ = _run(seed=2, plan=plan)
        detected = crash_at + FAST_CONFIG.lease_timeout
        for r in result.collector.records:
            if r.exec_start >= detected:
                members = range(r.place.leader, r.place.leader + r.place.width)
                assert 1 not in members, (
                    f"task {r.task_id} started on dead core 1 at "
                    f"{r.exec_start} (detection at {detected})"
                )

    def test_transient_crash_revives_worker(self):
        _, clean, total = _run(seed=3)
        plan = FaultPlan(crashes=(
            CoreCrash(1, at=0.2 * clean.makespan,
                      duration=0.4 * clean.makespan),
        ))
        _, result, _ = _run(seed=3, plan=plan)
        assert result.tasks_completed == total
        stats = result.extra["fault_stats"]
        assert stats["workers_lost"] == 1
        assert stats["workers_recovered"] == 1

    def test_straggler_slows_without_recovery(self):
        _, clean, total = _run(seed=4)
        plan = FaultPlan(stragglers=(
            StragglerWindow((0, 1), at=0.1 * clean.makespan,
                            duration=0.5 * clean.makespan, slowdown=0.25),
        ))
        _, result, _ = _run(seed=4, plan=plan)
        assert result.tasks_completed == total
        stats = result.extra["fault_stats"]
        assert stats["workers_lost"] == 0
        assert stats["tasks_retried"] == 0
        assert result.makespan > clean.makespan

    def test_recovery_events_traced(self):
        _, clean, _ = _run(seed=1)
        plan = FaultPlan(crashes=(
            CoreCrash(1, at=0.3 * clean.makespan,
                      duration=0.3 * clean.makespan),
        ))
        tracer = FullTracer()
        _, result, _ = _run(seed=1, plan=plan, tracer=tracer)
        events = tracer.events()
        lost = [e for e in events if isinstance(e, WorkerLostEvent)]
        assert len(lost) == 1 and lost[0].core == 1
        assert any(isinstance(e, QueueReclaimEvent) for e in events)
        recovered = [e for e in events if isinstance(e, WorkerRecoveredEvent)]
        assert len(recovered) == 1 and recovered[0].down_for > 0
        stats = result.extra["fault_stats"]
        retries = [e for e in events if isinstance(e, TaskRetryEvent)]
        assert len(retries) == stats["tasks_retried"]

    def test_retry_budget_exhaustion_raises(self):
        _, clean, _ = _run(seed=1)
        config = RuntimeConfig(lease_timeout=1e-3, max_task_retries=0)
        plan = FaultPlan(crashes=(CoreCrash(1, at=0.3 * clean.makespan),))
        with pytest.raises(TaskRetryExhausted):
            _run(seed=1, plan=plan, config=config)

    @pytest.mark.parametrize("seed", range(3))
    def test_crash_with_idle_wake_pending_loses_no_task(self, seed):
        # A stealable push wakes every idle worker; the wakes are queued
        # when those workers crash in the same instant.  A wake that
        # fires for a dead worker must do nothing: if it stole the task,
        # nobody would be left to run it.
        env = Environment()
        machine = symmetric_machine(1, 4)
        speed = SpeedModel(env, machine)
        FaultScenario(FaultPlan()).install(env, speed, machine)
        graph = TaskGraph("idle-wake-crash")
        graph.add_task(FixedWorkKernel("long", work=1e-2))
        runtime = SimulatedRuntime(
            env, machine, graph, make_scheduler("rws"), speed=speed,
            seed=seed,
        )
        runtime.start()
        while len(runtime._idle_events) < 3:
            env.step()
        late = graph.add_task(FixedWorkKernel("late", work=1e-4))
        graph.drain_ready()
        runtime._enqueue_ready(late, waker_core=0)
        assert not runtime._idle_events  # every idle worker was woken
        for core in (1, 2, 3):
            runtime.on_core_crashed(core)
        result = runtime.run()
        assert result.tasks_completed == 2
        assert result.collector.steals == 0

    def test_detection_latency_equals_lease(self):
        _, clean, _ = _run(seed=5)
        plan = FaultPlan(crashes=(CoreCrash(1, at=0.3 * clean.makespan),))
        _, result, _ = _run(seed=5, plan=plan)
        stats = result.extra["fault_stats"]
        if stats["tasks_recovered"]:
            # In-flight tasks are only re-dispatched once the lease
            # expires, so their recovery latency is at least the lease.
            assert stats["recovery_latency_mean"] >= FAST_CONFIG.lease_timeout


class TestFaultScenarioComposition:
    def test_injector_validates_plan_against_machine(self):
        env = Environment()
        machine = symmetric_machine(1, 2)
        speed = SpeedModel(env, machine)
        plan = FaultPlan(crashes=(CoreCrash(5, at=1.0),))
        with pytest.raises(ConfigurationError):
            FaultInjector(env, speed, machine, plan)

    def test_declarative_faults_spec_runs(self):
        spec = RunSpec(
            kind="single",
            params={
                "workload": {"name": "layered", "kernel": "matmul",
                             "parallelism": 3, "total": 60},
                "machine": "jetson_tx2",
                "scheduler": "dam-c",
                "scenario": {"name": "faults",
                             "crashes": [[1, 0.005, None]]},
            },
            metrics=("tasks_completed", "workers_lost", "tasks_recovered"),
        )
        (row,) = SweepRunner(jobs=1, use_cache=False, progress=False).run(
            [spec]
        )
        assert row["tasks_completed"] == 60
        assert row["workers_lost"] == 1

    def test_faults_compose_with_corunner(self):
        spec = RunSpec(
            kind="single",
            params={
                "workload": {"name": "layered", "kernel": "matmul",
                             "parallelism": 3, "total": 60},
                "machine": "jetson_tx2",
                "scheduler": "dam-c",
                "scenario": {
                    "name": "composite",
                    "scenarios": [
                        {"name": "corunner", "cores": [0], "cpu_share": 0.5},
                        {"name": "faults", "crashes": [[1, 0.005, None]]},
                    ],
                },
            },
            metrics=("tasks_completed", "workers_lost"),
        )
        (row,) = SweepRunner(jobs=1, use_cache=False, progress=False).run(
            [spec]
        )
        assert row["tasks_completed"] == 60
        assert row["workers_lost"] == 1


class TestFaultsOffBitIdentity:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        scheduler=st.sampled_from(SCHEDULER_NAMES),
        seed=st.integers(min_value=0, max_value=10_000),
        layers=st.integers(min_value=1, max_value=5),
        width=st.integers(min_value=1, max_value=4),
    )
    def test_empty_plan_bit_identical_to_no_scenario(
        self, scheduler, seed, layers, width
    ):
        """An installed-but-empty fault scenario arms the recovery
        machinery yet changes nothing: same metrics, same records, same
        post-run RNG states."""
        base_rt, base, _ = _run(scheduler, seed, layers, width, plan=None)
        armed_rt, armed, _ = _run(scheduler, seed, layers, width,
                                  plan=FaultPlan())
        assert _fingerprint(base_rt, base) == _fingerprint(armed_rt, armed)

    def test_empty_plan_adds_zeroed_fault_stats_only(self):
        _, base, _ = _run(seed=6, plan=None)
        _, armed, _ = _run(seed=6, plan=FaultPlan())
        assert "fault_stats" not in base.extra
        stats = armed.extra["fault_stats"]
        assert stats["workers_lost"] == 0
        assert stats["tasks_retried"] == 0


class TestSpeedModelFaultScale:
    def test_fault_scale_zero_stops_core(self):
        env = Environment()
        machine = symmetric_machine(1, 2)
        speed = SpeedModel(env, machine)
        assert speed.core_rate(0) > 0
        speed.set_fault_scale([0], 0.0)
        assert speed.core_rate(0) == 0.0
        assert speed.fault_scale(0) == 0.0
        speed.set_fault_scale([0], 1.0)
        assert speed.core_rate(0) > 0

    def test_fault_scale_validated(self):
        env = Environment()
        speed = SpeedModel(env, symmetric_machine(1, 2))
        with pytest.raises(ConfigurationError):
            speed.set_fault_scale([0], 1.5)
        with pytest.raises(ConfigurationError):
            speed.set_fault_scale([0], -0.1)


class TestPttInvalidation:
    def test_lost_core_pinned_to_inf(self):
        import numpy as np

        from repro.core.ptt import PttStore

        store = PttStore(symmetric_machine(1, 4))
        table = store.table("k")
        store.mark_core_lost(1)
        for place, value in table.entries():
            members = range(place.leader, place.leader + place.width)
            if 1 in members:
                assert value == np.inf
            else:
                assert value != np.inf

    def test_recovery_resets_for_re_exploration(self):
        import numpy as np

        from repro.core.ptt import PttStore

        store = PttStore(symmetric_machine(1, 4))
        table = store.table("k")
        for place, _ in table.entries():
            table.update(place, 1.0)
        store.mark_core_lost(1)
        store.mark_core_recovered(1)
        for place, value in table.entries():
            assert value != np.inf
            members = range(place.leader, place.leader + place.width)
            if 1 in members:
                # Re-explored from scratch: history discarded.
                assert value == 0.0 and table.samples(place) == 0
            else:
                assert value == 1.0

    def test_lazily_created_tables_inherit_loss(self):
        import numpy as np

        from repro.core.ptt import PttStore

        store = PttStore(symmetric_machine(1, 4))
        store.mark_core_lost(2)
        late = store.table("created-after-loss")
        assert any(value == np.inf for _, value in late.entries())
