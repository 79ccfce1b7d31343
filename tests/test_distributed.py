"""Tests for the fabric, SimMPI, and the multi-node runtime."""

import pytest

from repro.distributed.cluster_runtime import DistributedRuntime
from repro.distributed.message import Message
from repro.distributed.mpi import CommTaskBuilder, SimMpi
from repro.distributed.network import Fabric, MessageFaultModel
from repro.errors import (
    CommunicationError,
    CommunicationTimeout,
    ConfigurationError,
    MessageDropped,
)
from repro.graph.dag import TaskGraph
from repro.graph.task import Priority
from repro.kernels.fixed import FixedWorkKernel
from repro.machine.interconnect import Interconnect
from repro.machine.presets import symmetric_machine
from repro.sim.environment import Environment


class TestMessage:
    def test_validation(self):
        with pytest.raises(ValueError):
            Message(-1, 0, 0, 10.0)
        with pytest.raises(ValueError):
            Message(0, 0, 0, -1.0)

    def test_ids_unique(self):
        a = Message(0, 1, 0, 1.0)
        b = Message(0, 1, 0, 1.0)
        assert a.msg_id != b.msg_id


class TestFabric:
    def test_send_recv_roundtrip(self):
        env = Environment()
        fabric = Fabric(env, 2, Interconnect(latency_s=1e-3,
                                             bandwidth_bytes_per_s=1e6))
        got = []

        def receiver():
            msg = yield fabric.recv(1, src=0, tag=7)
            got.append((env.now, msg.payload))

        env.process(receiver())
        fabric.send(Message(0, 1, 7, size_bytes=1e3, payload="hello"))
        env.run()
        # wire = 1e-3 + 1e3/1e6 = 2e-3
        assert got == [(pytest.approx(2e-3), "hello")]
        assert fabric.messages_delivered == 1
        assert fabric.bytes_delivered == 1e3

    def test_same_link_serializes(self):
        env = Environment()
        fabric = Fabric(env, 2, Interconnect(latency_s=1e-3,
                                             bandwidth_bytes_per_s=1e9))
        times = []

        def receiver():
            for _ in range(2):
                yield fabric.recv(1, src=0, tag=0)
                times.append(env.now)

        env.process(receiver())
        fabric.send(Message(0, 1, 0, 0.0))
        fabric.send(Message(0, 1, 0, 0.0))
        env.run()
        assert times[0] == pytest.approx(1e-3)
        assert times[1] == pytest.approx(2e-3)

    def test_different_links_parallel(self):
        env = Environment()
        fabric = Fabric(env, 3, Interconnect(latency_s=1e-3,
                                             bandwidth_bytes_per_s=1e9))
        times = {}

        def receiver(rank):
            yield fabric.recv(rank, src=0, tag=0)
            times[rank] = env.now

        env.process(receiver(1))
        env.process(receiver(2))
        fabric.send(Message(0, 1, 0, 0.0))
        fabric.send(Message(0, 2, 0, 0.0))
        env.run()
        assert times[1] == pytest.approx(1e-3)
        assert times[2] == pytest.approx(1e-3)

    def test_local_delivery_immediate(self):
        env = Environment()
        fabric = Fabric(env, 2)
        done = fabric.send(Message(0, 0, 1, 100.0))
        assert done.triggered

    def test_tag_matching(self):
        env = Environment()
        fabric = Fabric(env, 2)
        got = []

        def receiver():
            msg = yield fabric.recv(1, src=0, tag=5)
            got.append(msg.tag)

        env.process(receiver())
        fabric.send(Message(0, 1, 9, 0.0))   # wrong tag: buffered, ignored
        fabric.send(Message(0, 1, 5, 0.0))
        env.run()
        assert got == [5]

    def test_rank_validation(self):
        env = Environment()
        fabric = Fabric(env, 2)
        with pytest.raises(CommunicationError):
            fabric.send(Message(0, 5, 0, 1.0))
        with pytest.raises(CommunicationError):
            Fabric(env, 0)


class TestSimMpi:
    def test_isend_irecv(self):
        env = Environment()
        fabric = Fabric(env, 2)
        mpi0, mpi1 = SimMpi(fabric, 0), SimMpi(fabric, 1)
        assert mpi0.size == 2
        got = []

        def receiver():
            msg = yield mpi1.irecv(src=0, tag=3)
            got.append(msg.payload)

        env.process(receiver())
        mpi0.isend(1, tag=3, size_bytes=8.0, payload=[1, 2])
        env.run()
        assert got == [[1, 2]]


class TestCommTaskBuilder:
    def test_comm_kernel_is_rigid(self):
        env = Environment()
        machine = symmetric_machine(1, 4)
        from repro.machine.speed import SpeedModel
        speed = SpeedModel(env, machine)
        fabric = Fabric(env, 1)
        builder = CommTaskBuilder(env, speed, SimMpi(fabric, 0))
        kernel = builder.comm_kernel("exchange", 1e4)
        assert kernel.parallel_fraction() == 0.0
        assert kernel.seq_work() > 0

    def test_protocol_cost_validation(self):
        env = Environment()
        machine = symmetric_machine(1, 2)
        from repro.machine.speed import SpeedModel
        speed = SpeedModel(env, machine)
        fabric = Fabric(env, 1)
        with pytest.raises(CommunicationError):
            CommTaskBuilder(env, speed, SimMpi(fabric, 0), base_cpu_work=-1)


def _ping_pong_builder(size_bytes=1e3):
    """Two ranks exchange one message via comm tasks, then compute."""

    def builder(handle):
        graph = TaskGraph(f"pp-{handle.rank}")
        peer = 1 - handle.rank
        op = handle.comm.exchange_op(
            peer, send_tag=handle.rank, recv_tag=peer, size_bytes=size_bytes
        )
        kernel = handle.comm.comm_kernel("exchange", size_bytes)
        comm_task = graph.add_task(
            kernel, priority=Priority.HIGH, metadata={"comm_op": op}
        )
        graph.add_task(
            FixedWorkKernel("compute", work=1e-3), deps=[comm_task]
        )
        return graph

    return builder


class TestDistributedRuntime:
    def test_ping_pong_completes(self):
        machines = [symmetric_machine(1, 4, name=f"n{i}") for i in range(2)]
        runtime = DistributedRuntime(
            machines, "dam-c", _ping_pong_builder()
        )
        result = runtime.run()
        assert result.tasks_completed == 4
        assert result.messages == 2
        assert result.makespan > 0
        assert len(result.node_results) == 2

    def test_each_node_has_own_scheduler(self):
        machines = [symmetric_machine(1, 2, name=f"n{i}") for i in range(2)]
        runtime = DistributedRuntime(machines, "dam-c", _ping_pong_builder())
        s0 = runtime.runtimes[0].scheduler
        s1 = runtime.runtimes[1].scheduler
        assert s0 is not s1
        assert s0.ptt is not s1.ptt

    def test_per_rank_scenarios(self):
        from repro.interference.corunner import CorunnerInterference
        machines = [symmetric_machine(1, 4, name=f"n{i}") for i in range(2)]
        runtime = DistributedRuntime(
            machines,
            "rws",
            _ping_pong_builder(),
            scenarios={0: CorunnerInterference([0], start=0.0)},
        )
        runtime.run()
        assert runtime.handles[0].speed.cpu_share(0) == 0.5
        assert runtime.handles[1].speed.cpu_share(0) == 1.0

    def test_empty_machines_rejected(self):
        with pytest.raises(ConfigurationError):
            DistributedRuntime([], "rws", _ping_pong_builder())

    def test_missing_peer_message_deadlocks_cleanly(self):
        """A one-sided receive with no sender raises, not hangs."""

        def bad_builder(handle):
            graph = TaskGraph(f"bad-{handle.rank}")
            if handle.rank == 0:
                op = handle.comm.recv_op(src=1, tag=99, size_bytes=8.0)
                graph.add_task(
                    handle.comm.comm_kernel("orphan-recv", 8.0),
                    priority=Priority.HIGH,
                    metadata={"comm_op": op},
                )
            else:
                graph.add_task(FixedWorkKernel("noop", work=1e-6))
            return graph

        machines = [symmetric_machine(1, 2, name=f"n{i}") for i in range(2)]
        runtime = DistributedRuntime(machines, "rws", bad_builder)
        from repro.errors import RuntimeStateError
        with pytest.raises(RuntimeStateError, match="deadlock"):
            runtime.run()


class TestRecvTimeout:
    """A receive that outlives its deadline fails with a typed error
    instead of hanging the simulation forever."""

    def _fabric(self, env, **kw):
        return Fabric(env, 2, Interconnect(latency_s=1e-3,
                                           bandwidth_bytes_per_s=1e6), **kw)

    def test_orphan_recv_times_out(self):
        env = Environment()
        fabric = self._fabric(env)
        failures = []

        def receiver():
            try:
                yield fabric.recv(1, src=0, tag=7, timeout=0.5)
            except CommunicationTimeout as exc:
                failures.append((env.now, exc))

        env.process(receiver())
        env.run()
        assert len(failures) == 1
        t, exc = failures[0]
        assert t == pytest.approx(0.5)
        assert exc.dst == 1 and exc.src == 0 and exc.tag == 7
        assert exc.timeout == pytest.approx(0.5)

    def test_timely_message_unaffected(self):
        env = Environment()
        fabric = self._fabric(env)
        got = []

        def receiver():
            msg = yield fabric.recv(1, src=0, tag=7, timeout=1.0)
            got.append(msg.payload)

        env.process(receiver())
        fabric.send(Message(0, 1, 7, size_bytes=1e3, payload="ok"))
        env.run()
        assert got == ["ok"]

    def test_timed_out_getter_does_not_swallow_later_message(self):
        env = Environment()
        fabric = self._fabric(env)
        events = []

        def impatient():
            try:
                yield fabric.recv(1, src=0, tag=7, timeout=0.1)
            except CommunicationTimeout:
                events.append("timeout")

        def late_sender():
            yield env.timeout(0.2)
            fabric.send(Message(0, 1, 7, size_bytes=0.0, payload="late"))

        def second_receiver():
            yield env.timeout(0.15)
            msg = yield fabric.recv(1, src=0, tag=7)
            events.append(msg.payload)

        env.process(impatient())
        env.process(late_sender())
        env.process(second_receiver())
        env.run()
        # The cancelled getter must not have consumed the late message.
        assert events == ["timeout", "late"]

    def test_fabric_default_timeout(self):
        env = Environment()
        fabric = self._fabric(env, recv_timeout=0.25)
        failures = []

        def receiver():
            try:
                yield fabric.recv(1, src=0, tag=0)
            except CommunicationTimeout:
                failures.append(env.now)

        env.process(receiver())
        env.run()
        assert failures == [pytest.approx(0.25)]

    def test_invalid_timeouts_rejected(self):
        env = Environment()
        with pytest.raises(ConfigurationError):
            self._fabric(env, recv_timeout=0.0)
        fabric = self._fabric(env)
        with pytest.raises(ConfigurationError):
            fabric.recv(1, src=0, tag=0, timeout=-1.0)


class TestMessageFaults:
    IC = Interconnect(latency_s=1e-3, bandwidth_bytes_per_s=1e6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MessageFaultModel(drop_prob=1.0)  # certain loss can never deliver
        with pytest.raises(ConfigurationError):
            MessageFaultModel(drop_prob=-0.1)
        with pytest.raises(ConfigurationError):
            MessageFaultModel(delay_prob=1.5)
        with pytest.raises(ConfigurationError):
            MessageFaultModel(delay=-1.0)
        with pytest.raises(ConfigurationError):
            MessageFaultModel(max_retransmits=-1)
        with pytest.raises(ConfigurationError):
            MessageFaultModel(retransmit_delay=-1.0)

    def test_drop_budget_exhaustion_fails_send(self):
        # seed=0 drops the first three attempts: budget of 2 retransmits
        # is exhausted and the send's completion event fails.
        env = Environment()
        fabric = Fabric(env, 2, self.IC,
                        faults=MessageFaultModel(drop_prob=0.9,
                                                 max_retransmits=2, seed=0))
        failures = []

        def sender():
            try:
                yield fabric.send(Message(0, 1, 7, size_bytes=1e3))
            except MessageDropped as exc:
                failures.append(exc)

        env.process(sender())
        env.run()
        (exc,) = failures
        assert exc.src == 0 and exc.dst == 1 and exc.tag == 7
        assert exc.attempts == 3
        assert fabric.messages_dropped == 3
        assert fabric.retransmissions == 2
        assert fabric.messages_delivered == 0

    def test_retransmission_recovers_a_dropped_message(self):
        # seed=1 drops the first attempt and delivers the second.
        env = Environment()
        fabric = Fabric(env, 2, self.IC,
                        faults=MessageFaultModel(drop_prob=0.9,
                                                 max_retransmits=3,
                                                 retransmit_delay=1e-3,
                                                 seed=1))
        got = []

        def receiver():
            msg = yield fabric.recv(1, src=0, tag=7)
            got.append(env.now)

        env.process(receiver())
        fabric.send(Message(0, 1, 7, size_bytes=1e3))
        env.run()
        # wire=2e-3; attempt 1 occupies [0, 2e-3] then is lost; the
        # retransmission enters at 3e-3 and lands at 5e-3.
        assert got == [pytest.approx(5e-3)]
        assert fabric.messages_dropped == 1
        assert fabric.retransmissions == 1
        assert fabric.messages_delivered == 1

    def test_recv_timeout_inside_retransmit_window_sees_no_retries(self):
        # seed=1 drops the first attempt (wire=2e-3, lost at 2e-3); the
        # retransmission is due at 12e-3.  The budget must be charged
        # when the retransmission is *attempted*, not when it is
        # scheduled: a receiver timing out at 5e-3 — inside the
        # retransmit-delay window — observes one drop and zero
        # retransmissions.
        env = Environment()
        fabric = Fabric(env, 2, self.IC,
                        faults=MessageFaultModel(drop_prob=0.9,
                                                 max_retransmits=3,
                                                 retransmit_delay=10e-3,
                                                 seed=1))
        observed = []

        def receiver():
            try:
                yield fabric.recv(1, src=0, tag=7, timeout=5e-3)
            except CommunicationTimeout:
                observed.append(
                    (env.now, fabric.messages_dropped,
                     fabric.retransmissions)
                )
            # The retried receive picks the message up once the (now
            # charged) retransmission lands at 14e-3.
            yield fabric.recv(1, src=0, tag=7)
            observed.append(
                (env.now, fabric.messages_dropped, fabric.retransmissions)
            )

        env.process(receiver())
        fabric.send(Message(0, 1, 7, size_bytes=1e3))
        env.run()
        assert observed == [
            (pytest.approx(5e-3), 1, 0),
            (pytest.approx(14e-3), 1, 1),
        ]
        assert fabric.messages_delivered == 1

    def test_delay_fault_postpones_delivery(self):
        env = Environment()
        fabric = Fabric(env, 2, self.IC,
                        faults=MessageFaultModel(delay_prob=1.0, delay=0.05))
        got = []

        def receiver():
            yield fabric.recv(1, src=0, tag=0)
            got.append(env.now)

        env.process(receiver())
        fabric.send(Message(0, 1, 0, size_bytes=1e3))
        env.run()
        assert got == [pytest.approx(2e-3 + 0.05)]

    def test_seeded_faults_replay_bit_identically(self):
        def chaos_run():
            env = Environment()
            fabric = Fabric(env, 2, self.IC,
                            faults=MessageFaultModel(drop_prob=0.3,
                                                     delay_prob=0.3,
                                                     delay=1e-3,
                                                     max_retransmits=5,
                                                     retransmit_delay=1e-4,
                                                     seed=42))
            arrivals = []

            def receiver():
                for _ in range(10):
                    yield fabric.recv(1, src=0, tag=0)
                    arrivals.append(env.now)

            env.process(receiver())
            for _ in range(10):
                fabric.send(Message(0, 1, 0, size_bytes=1e3))
            env.run()
            return (arrivals, fabric.messages_dropped,
                    fabric.retransmissions, fabric.messages_delivered)

        assert chaos_run() == chaos_run()

    def test_zero_probability_model_is_inert(self):
        def arrival(faults):
            env = Environment()
            fabric = Fabric(env, 2, self.IC, faults=faults)
            got = []

            def receiver():
                yield fabric.recv(1, src=0, tag=0)
                got.append(env.now)

            env.process(receiver())
            fabric.send(Message(0, 1, 0, size_bytes=1e3))
            env.run()
            return got[0]

        assert arrival(MessageFaultModel()) == arrival(None)


class TestDistributedRuntimeFaults:
    def test_ping_pong_completes_under_message_chaos(self):
        machines = [symmetric_machine(1, 4, name=f"n{i}") for i in range(2)]
        runtime = DistributedRuntime(
            machines, "dam-c", _ping_pong_builder(),
            message_faults=MessageFaultModel(
                drop_prob=0.4, delay_prob=0.5, delay=1e-3,
                max_retransmits=8, retransmit_delay=1e-4, seed=3,
            ),
            recv_timeout=60.0,
        )
        result = runtime.run()
        assert result.tasks_completed == 4
        assert runtime.fabric.messages_delivered == 2

    def test_recv_timeout_turns_deadlock_into_typed_error(self):
        def orphan_builder(handle):
            graph = TaskGraph(f"orphan-{handle.rank}")
            if handle.rank == 0:
                op = handle.comm.recv_op(src=1, tag=99, size_bytes=8.0)
                graph.add_task(
                    handle.comm.comm_kernel("orphan-recv", 8.0),
                    priority=Priority.HIGH,
                    metadata={"comm_op": op},
                )
            else:
                graph.add_task(FixedWorkKernel("noop", work=1e-6))
            return graph

        machines = [symmetric_machine(1, 2, name=f"n{i}") for i in range(2)]
        runtime = DistributedRuntime(
            machines, "rws", orphan_builder, recv_timeout=0.5
        )
        with pytest.raises(CommunicationTimeout):
            runtime.run()


class TestStealEdgeCases:
    """Work stealing at its boundaries: no victims, empty victims, and a
    victim that crashes while holding stealable work.  Observed through
    whole runs: the tracer's steal events and the collector counters."""

    def _run(self, num_cores, tasks, work=1e-4, skew=1, tries=1,
             crashes=(), seed=0, before_loss=None):
        from repro.core.policies.registry import make_scheduler
        from repro.faults import FaultPlan, FaultScenario
        from repro.machine.speed import SpeedModel
        from repro.runtime.config import RuntimeConfig
        from repro.runtime.executor import SimulatedRuntime
        from repro.trace import FullTracer
        from repro.trace.events import StealEvent

        env = Environment()
        machine = symmetric_machine(1, num_cores)
        speed = SpeedModel(env, machine)
        if crashes:
            FaultScenario(FaultPlan(crashes=crashes)).install(
                env, speed, machine
            )
        graph = TaskGraph("steal-edges")
        for i in range(tasks):
            # skew > 1 makes every odd-numbered root (odd cores, under
            # round-robin seeding) longer, so queues drain unevenly.
            graph.add_task(
                FixedWorkKernel("k", work=work * (skew if i % 2 else 1))
            )
        tracer = FullTracer()
        runtime = SimulatedRuntime(
            env, machine, graph, make_scheduler("rws"), speed=speed,
            config=RuntimeConfig(steal_tries=tries), seed=seed,
            tracer=tracer,
        )
        if before_loss is not None:
            handle = runtime._handle_worker_lost

            def lost(core):
                before_loss(runtime, core)
                handle(core)

            runtime._handle_worker_lost = lost
        result = runtime.run()
        assert result.tasks_completed == tasks
        steals = [e for e in tracer.events() if isinstance(e, StealEvent)]
        return result.collector, steals

    def test_single_core_machine_never_steals(self):
        collector, steals = self._run(num_cores=1, tasks=20)
        assert steals == []
        assert collector.steals == 0
        assert collector.failed_steal_scans == 0

    def test_steal_scan_over_empty_victims_fails_cleanly(self):
        # One task: its owner pops it, and each other worker's first scan
        # finds every victim empty and counts exactly one failed scan,
        # however many victims it probed.
        for tries in (1, 3):
            collector, steals = self._run(num_cores=4, tasks=1, tries=tries)
            assert sorted(e.thief for e in steals) == [1, 2, 3]
            assert all(
                e.outcome == "miss" and e.victim == -1 and e.task_id == -1
                for e in steals
            )
            assert collector.failed_steal_scans == 3
            assert collector.steals == 0

    def test_thief_never_probes_its_own_queue(self):
        for num_cores, tries in ((2, 1), (4, 1), (4, 3)):
            collector, steals = self._run(
                num_cores=num_cores, tasks=60, skew=5, tries=tries
            )
            hits = [e for e in steals if e.outcome == "hit"]
            assert hits
            assert len(hits) == collector.steals
            assert all(e.victim != e.thief for e in steals)
            if num_cores == 2:
                # The only possible victim is the other core.
                assert all(e.victim == 1 - e.thief for e in hits)

    def test_steal_racing_victim_crash(self):
        # Core 1 crashes while its queue holds work; detection reclaims
        # it onto live cores, where stealing can still find it.
        from repro.faults import CoreCrash

        reclaimed = []

        def capture(runtime, core):
            reclaimed.extend(t.task_id for t in runtime.wsqs[core]._items)

        _, steals = self._run(
            num_cores=4, tasks=12, work=4e-3,
            crashes=(CoreCrash(1, 1e-3),), before_loss=capture,
        )
        assert reclaimed  # the crash stranded queued work
        stolen = [
            e for e in steals
            if e.outcome == "hit" and e.task_id in reclaimed
        ]
        assert stolen  # reclaimed work is reachable by thieves
        assert all(e.thief != 1 and e.victim != 1 for e in stolen)
