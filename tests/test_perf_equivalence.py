"""Equivalence properties behind the profile-guided fast paths.

Every hot-path rewrite in this PR claims *bit-identical* behavior to the
code it replaced.  The tests here state those claims as properties:

* the vectorized placement searches pick the same place as the scalar
  first-wins argmin for arbitrary PTT states (including inf-pinned lost
  cores and zero unexplored entries),
* DAG template instantiation reproduces direct generation structurally,
* the seq-keyed ``EventQueue.cancel`` hits exactly the schedule it
  targeted (the id-reuse regression), and pooled events recycle without
  aliasing,
* the buffered single-victim steal draw is stream-identical to the
  ``choice`` call it replaced,
* the one worker loop gives the same schedule traced and untraced, for
  every ``steal_tries``, with faults armed, and under real crashes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.placement import (
    _argmin_place,
    global_search_cost,
    global_search_performance,
    local_search_cost,
    width_one_places,
)
from repro.core.ptt import PerformanceTraceTable
from repro.experiments.common import TX2_SCHEDULERS
from repro.graph.generators import (
    chain_dag,
    diamond_dag,
    fork_join_dag,
    layered_synthetic_dag,
    random_layered_dag,
)
from repro.graph.task import Priority, TaskState
from repro.graph.templates import clear_template_cache, template_cache_stats
from repro.kernels.fixed import FixedWorkKernel
from repro.kernels.matmul import MatMulKernel
from repro.machine.presets import jetson_tx2, symmetric_machine
from repro.sim.environment import Environment, Timeout
from repro.sim.events import Event, EventQueue

TX2 = jetson_tx2()
SYM = symmetric_machine(sockets=2, cores_per_socket=3)

FAST = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _load_table(machine, values, lost_cores):
    """A PTT with the given per-slot values, some cores marked lost."""
    table = PerformanceTraceTable(machine)
    for slot, value in enumerate(values):
        if value > 0:
            table.update_slot(slot, value)
    for core in lost_cores:
        table.mark_core_lost(core)
    return table


def _backlog_fn(loads):
    return lambda core: loads[core]


class TestVectorizedSearchEquivalence:
    """Vectorized search ≡ scalar ``_argmin_place`` on random PTT states."""

    @FAST
    @given(data=st.data(), machine=st.sampled_from([TX2, SYM]))
    def test_global_cost_matches_scalar(self, data, machine):
        n_places = len(machine.places)
        values = data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)),
            min_size=n_places, max_size=n_places,
        ))
        lost = data.draw(st.lists(
            st.integers(min_value=0, max_value=machine.num_cores - 1),
            max_size=2, unique=True,
        ))
        use_backlog = data.draw(st.booleans())
        loads = data.draw(st.lists(
            st.floats(min_value=0.0, max_value=5.0),
            min_size=machine.num_cores, max_size=machine.num_cores,
        )) if use_backlog else None
        table = _load_table(machine, values, lost)
        backlog = _backlog_fn(loads) if loads is not None else None
        # places=list(...) defeats the predict_all fast path -> scalar.
        scalar = global_search_cost(
            table, machine, places=list(machine.places), backlog=backlog
        )
        vector = global_search_cost(table, machine, backlog=backlog)
        assert vector == scalar

    @FAST
    @given(data=st.data(), machine=st.sampled_from([TX2, SYM]))
    def test_global_performance_matches_scalar(self, data, machine):
        n_places = len(machine.places)
        values = data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)),
            min_size=n_places, max_size=n_places,
        ))
        lost = data.draw(st.lists(
            st.integers(min_value=0, max_value=machine.num_cores - 1),
            max_size=2, unique=True,
        ))
        loads = data.draw(st.lists(
            st.floats(min_value=0.0, max_value=5.0),
            min_size=machine.num_cores, max_size=machine.num_cores,
        ))
        table = _load_table(machine, values, lost)
        backlog = _backlog_fn(loads)
        scalar = global_search_performance(
            table, machine, places=list(machine.places), backlog=backlog
        )
        vector = global_search_performance(table, machine, backlog=backlog)
        assert vector == scalar

    @FAST
    @given(data=st.data(), machine=st.sampled_from([TX2, SYM]))
    def test_width_one_subset_matches_scalar(self, data, machine):
        """The DA scheduler's width-1 pool takes the identity fast path."""
        n_places = len(machine.places)
        values = data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)),
            min_size=n_places, max_size=n_places,
        ))
        loads = data.draw(st.lists(
            st.floats(min_value=0.0, max_value=5.0),
            min_size=machine.num_cores, max_size=machine.num_cores,
        ))
        table = _load_table(machine, values, [])
        backlog = _backlog_fn(loads)
        pool = width_one_places(machine)
        assert pool is machine._width_one_places  # fast path engages
        fast = global_search_performance(
            table, machine, places=pool, backlog=backlog
        )
        slow = _argmin_place(list(pool), table.predict, backlog)
        assert fast == slow

    @FAST
    @given(data=st.data(), machine=st.sampled_from([TX2, SYM]))
    def test_local_search_matches_scalar(self, data, machine):
        n_places = len(machine.places)
        values = data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)),
            min_size=n_places, max_size=n_places,
        ))
        core = data.draw(st.integers(0, machine.num_cores - 1))
        table = _load_table(machine, values, [])
        fast = local_search_cost(table, machine, core)
        candidates = [
            machine.local_place_for(core, w) for w in machine.widths_at(core)
        ]
        slow = _argmin_place(candidates, lambda p: table.predict(p) * p.width)
        assert fast == slow

    def test_lost_core_inf_never_wins(self):
        """Inf-pinned places lose to any explored finite place."""
        table = PerformanceTraceTable(TX2)
        for slot in range(len(TX2.places)):
            table.update_slot(slot, 1.0)
        table.mark_core_lost(0)
        place = global_search_cost(table, TX2)
        assert 0 not in TX2.place_cores(place)


def _fingerprint(graph):
    """Full structural identity of a task graph (ids, deps, ready set)."""
    tasks = list(graph.tasks())
    return (
        graph.name,
        tuple(
            (
                t.task_id, t.kernel.name, int(t.priority), t.label,
                tuple(sorted(t.metadata.items())), t._pending_deps,
                t.state.value, tuple(c.task_id for c in t._dependents),
            )
            for t in tasks
        ),
        tuple(t.task_id for t in graph._fresh_ready),
    )


class TestTemplateEquivalence:
    """Template instantiation ≡ direct generation, all families."""

    def _builders(self, seed):
        k = FixedWorkKernel(name="k", work=1.0)
        k2 = FixedWorkKernel(name="k2", work=2.0)
        return [
            lambda: layered_synthetic_dag(k, parallelism=3, total_tasks=12),
            lambda: chain_dag(k, length=7, priority=Priority.HIGH),
            lambda: fork_join_dag(k, fan_out=4, stages=2),
            lambda: diamond_dag(k),
            lambda: random_layered_dag(
                [k, k2], layers=5, max_width=4, seed=seed,
                edge_probability=0.4,
            ),
        ]

    @pytest.mark.parametrize("seed", [0, 1, 42, 1234])
    def test_instantiate_equals_direct(self, seed):
        for build in self._builders(seed):
            clear_template_cache()
            direct = build()          # miss: built directly, then captured
            replay = build()          # hit: instantiated from the template
            stats = template_cache_stats()
            assert stats["misses"] == 1 and stats["hits"] == 1
            assert _fingerprint(replay) == _fingerprint(direct)

    def test_metadata_dicts_are_fresh_per_instance(self):
        clear_template_cache()
        k = FixedWorkKernel(name="k", work=1.0)
        a = layered_synthetic_dag(k, parallelism=2, total_tasks=4)
        b = layered_synthetic_dag(k, parallelism=2, total_tasks=4)
        ta, tb = next(iter(a.tasks())), next(iter(b.tasks()))
        ta.metadata["scribble"] = 1
        assert "scribble" not in tb.metadata

    def test_unhashable_kernel_state_bypasses_cache(self):
        clear_template_cache()
        k = FixedWorkKernel(name="k", work=1.0)
        k.scratch = [1, 2, 3]  # unhashable attribute -> no cache key
        chain_dag(k, length=3)
        stats = template_cache_stats()
        assert stats["bypasses"] >= 1 and stats["size"] == 0

    def test_random_seed_object_not_cached(self):
        clear_template_cache()
        k = FixedWorkKernel(name="k", work=1.0)
        rng = np.random.default_rng(7)
        random_layered_dag([k], layers=3, max_width=3, seed=rng)
        assert template_cache_stats()["size"] == 0

    def test_roots_are_ready_and_drainable(self):
        clear_template_cache()
        k = FixedWorkKernel(name="k", work=1.0)
        fork_join_dag(k, fan_out=3, stages=1)
        replay = fork_join_dag(k, fan_out=3, stages=1)
        roots = replay.drain_ready()
        assert [t.task_id for t in roots] == [0]
        assert all(t.state is TaskState.READY for t in roots)


class TestEventQueueCancelEpoch:
    """``cancel`` keyed by heap seq: the id-reuse regression (satellite)."""

    def test_cancel_after_pop_is_noop(self):
        q = EventQueue()
        env = Environment()
        first = Event(env)
        q.push(1.0, 1, first)
        q.pop()
        # Cancelling the popped event must not poison anything: with the
        # old id()-keyed defunct set, a later event allocated at the same
        # address (or the same object re-pushed) would be dropped.
        q.cancel(first)
        assert len(q) == 0
        q.push(2.0, 1, first)  # re-push the very same object
        assert len(q) == 1
        assert q.pop()[3] is first

    def test_cancel_hits_only_the_targeted_schedule(self):
        q = EventQueue()
        env = Environment()
        event = Event(env)
        q.push(1.0, 1, event)
        q.cancel(event)
        q.push(2.0, 1, event)  # a new schedule of the same object
        assert len(q) == 1
        assert q.pop()[3] is event  # survived the earlier cancellation

    def test_double_cancel_and_len_invariant(self):
        q = EventQueue()
        env = Environment()
        events = [Event(env) for _ in range(4)]
        for i, e in enumerate(events):
            q.push(float(i), 1, e)
        q.cancel(events[1])
        q.cancel(events[1])  # second cancel: no-op, not a double count
        q.cancel(events[3])
        assert len(q) == 2
        assert q.pop()[3] is events[0]
        assert q.pop()[3] is events[2]
        assert len(q) == 0

    def test_pooled_event_reuse_does_not_alias_cancellation(self):
        """A recycled pooled event must not inherit old cancellations."""
        env = Environment()
        fired = []
        first = env.sleep(1.0, value="a")
        env._queue.cancel(first)
        env.run(until=2.0)  # drops the defunct entry, recycles `first`
        again = env.sleep(1.0, value="b")
        assert again is first  # the pool really did hand the object back
        again.callbacks.append(lambda e: fired.append(e.value))
        env.run(until=5.0)
        assert fired == ["b"]


class TestEventPooling:
    def test_sleep_schedules_like_timeout(self):
        """sleep() and Timeout interleave identically on the heap."""
        env1, env2 = Environment(), Environment()
        order1, order2 = [], []
        for delay, tag in [(2.0, "x"), (1.0, "y"), (1.0, "z")]:
            env1.timeout(delay, tag).callbacks.append(
                lambda e: order1.append(e.value)
            )
            env2.sleep(delay, tag).callbacks.append(
                lambda e: order2.append(e.value)
            )
        env1.run()
        env2.run()
        assert order1 == order2 == ["y", "z", "x"]

    def test_user_timeouts_are_never_pooled(self):
        env = Environment()
        t = env.timeout(1.0)
        assert not t._pooled
        env.run()
        assert t.processed  # still inspectable after processing
        assert t not in env._queue._free

    def test_free_list_is_bounded(self):
        env = Environment()

        def chain():
            for _ in range(600):
                yield env.sleep(0.001)

        env.process(chain())
        env.run()
        assert len(env._queue._free) <= EventQueue.FREE_LIST_MAX


class TestStealDrawEquivalence:
    """integers(0, n-1) singles == choice == batched draws, same stream."""

    @pytest.mark.parametrize("n", [2, 4, 6, 19])
    @pytest.mark.parametrize("seed", [0, 42])
    def test_choice_integers_and_batch_agree(self, n, seed):
        r_choice = np.random.default_rng(seed)
        r_single = np.random.default_rng(seed)
        r_batch = np.random.default_rng(seed)
        singles = [int(r_single.integers(0, n)) for _ in range(128)]
        choices = [
            int(r_choice.choice(n, size=1, replace=False)[0])
            for _ in range(128)
        ]
        batched = [int(v) for v in r_batch.integers(0, n, size=64)]
        batched += [int(v) for v in r_batch.integers(0, n, size=64)]
        assert singles == choices == batched


class TestTickDriverEquivalence:
    """Every configuration runs the same worker loop.

    The executor drives steal-backoff waits and idle wakes through pooled
    callback events (the tick driver) for every configuration: traced or
    not, any ``steal_tries``, faults armed or not.  Only the spin
    collapse is configuration-dependent — it runs for single-try,
    untraced runs — and it must be exact.  Tracing is observational (it
    never consumes randomness or schedules events) and an idle fault
    injector changes nothing, so each pair below must produce the same
    schedule to the bit, including the bulk-counted failed steal scans
    the collapse fast-forwards.
    """

    @staticmethod
    def _fingerprint(result):
        return (
            result.makespan,
            result.tasks_completed,
            result.collector.steals,
            result.collector.failed_steal_scans,
            sorted(
                (r.task_id, r.type_name, r.place, r.ready_time,
                 r.dequeue_time, r.exec_start, r.exec_end, r.observed,
                 r.stolen)
                for r in result.collector.records
            ),
            sorted(result.collector.core_busy.items()),
        )

    @staticmethod
    def _run(scheduler, seed, tries=1, tracer=None, scenario=None):
        from repro.runtime.config import RuntimeConfig
        from repro.session import run_graph

        graph = layered_synthetic_dag(MatMulKernel(), 4, 60)
        return run_graph(
            graph, TX2, scheduler, scenario=scenario,
            config=RuntimeConfig(steal_tries=tries), seed=seed,
            tracer=tracer,
        )

    def _traced_matches_untraced(self, scheduler, seed, tries):
        from repro.trace import FullTracer

        plain = self._fingerprint(self._run(scheduler, seed, tries))
        traced = self._fingerprint(
            self._run(scheduler, seed, tries, tracer=FullTracer())
        )
        assert plain == traced

    @pytest.mark.parametrize("scheduler", ["rws", "fa", "fam-c", "da", "dam-c"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_driver_matches_generator_path(self, scheduler, seed):
        # Single-try steal: the untraced run collapses provable-miss
        # spins, the traced run steps through every one of them.
        self._traced_matches_untraced(scheduler, seed, tries=1)

    @pytest.mark.parametrize("tries", [2, 3])
    @pytest.mark.parametrize("scheduler", ["rws", "fa", "fam-c", "da", "dam-c"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_multi_try_traced_matches_untraced(self, scheduler, seed, tries):
        self._traced_matches_untraced(scheduler, seed, tries)

    @pytest.mark.parametrize(
        "scheduler", ["rws", "fa", "fam-c", "da", "dam-c", "dam-p"]
    )
    def test_idle_fault_injector_matches_plain(self, scheduler):
        from repro.faults import FaultPlan, FaultScenario

        plain = self._fingerprint(self._run(scheduler, 0))
        armed = self._fingerprint(
            self._run(scheduler, 0, scenario=FaultScenario(FaultPlan()))
        )
        assert plain == armed

    @pytest.mark.parametrize("scheduler", TX2_SCHEDULERS)
    def test_real_crash_traced_matches_untraced(self, scheduler, tmp_path):
        # Untraced runs take the spin collapse, traced runs never do: the
        # pair proves the collapse exact with crashes, lease expiry,
        # reclaim and retries in play.
        from repro.experiments.common import ExperimentSettings
        from repro.experiments.fig_faults import baseline_spec, faulted_spec
        from repro.sweep.registry import execute_spec
        from repro.sweep.spec import RunSpec

        settings = ExperimentSettings(scale=0.02)
        clean = execute_spec(baseline_spec(settings, scheduler))["makespan"]
        spec = faulted_spec(settings, scheduler, clean)
        plain = execute_spec(spec)
        traced_spec = RunSpec(
            kind=spec.kind,
            params={**spec.params,
                    "trace": {"out_dir": str(tmp_path), "label": scheduler}},
            seed=spec.seed,
            metrics=spec.metrics,
            tags=spec.tags,
        )
        traced = execute_spec(traced_spec)
        assert traced["trace_events"] > 0
        assert plain["workers_lost"] == 1
        assert plain == {
            k: v for k, v in traced.items() if not k.startswith("trace_")
        }
