"""Scheduler policy interface.

A policy is pure decision logic; the simulated runtime drives it through
four hooks mirroring the lifecycle of Figure 3:

1. :meth:`on_ready` — a task's dependencies were satisfied; the policy
   picks the WSQ it is pushed to (wake-up placement).
2. :meth:`choose_place` — a worker dequeued the task from a WSQ; the
   policy runs Algorithm 1 and returns the execution place.
3. :meth:`place_after_steal` — a thief stole the task; the policy re-runs
   its (local) search at the thief's core (Figure 3 steps 4-5).
4. :meth:`on_complete` — the leader observed the elapsed execution time;
   the policy trains its model (PTT update, Figure 3 step 8).

``allow_steal`` implements the steal-exemption of high-priority tasks.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.core.ptt import PerformanceTraceTable, PttStore
from repro.errors import SchedulingError
from repro.graph.task import Task
from repro.machine.topology import ExecutionPlace, Machine
from repro.trace.tracer import NULL_TRACER, Tracer
from repro.util.rng import SeedLike, make_rng


class SchedulerPolicy(abc.ABC):
    """Base class of all scheduler configurations."""

    #: Short name as used in the paper's Table 1.
    name: str = "base"
    #: "n/a", "fixed" or "dynamic" — the asymmetry-awareness column.
    asymmetry: str = "n/a"
    #: Whether the policy molds task widths.
    moldability: bool = False
    #: "n/a", "cost" or "performance" — the priority-placement column.
    priority_placement: str = "n/a"

    def __init__(self, ptt_new_weight: int = 1, ptt_total_weight: int = 5) -> None:
        self.ptt_new_weight = int(ptt_new_weight)
        self.ptt_total_weight = int(ptt_total_weight)
        self.machine: Optional[Machine] = None
        self.ptt: Optional[PttStore] = None
        self.rng: Optional[np.random.Generator] = None
        self._clock = None
        self.backlog = None
        self.tracer: Tracer = NULL_TRACER

    # -- lifecycle ---------------------------------------------------------
    @property
    def uses_ptt(self) -> bool:
        """Whether this policy consults an online trace model."""
        return True

    def bind(
        self, machine: Machine, rng: SeedLike = 0, clock=None, backlog=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        """Attach the policy to a machine before a run.

        ``clock`` is a zero-argument callable returning simulated time
        (needed by finish-time estimators like dHEFT).  ``backlog`` is an
        optional per-core load estimate used to break near-ties in global
        searches.  ``tracer`` (default: the shared null tracer) is carried
        into the policy's PTT store so cell updates become trace events;
        it never influences decisions.
        """
        self.machine = machine
        self.rng = make_rng(rng)
        self._clock = clock or (lambda: 0.0)
        self.backlog = backlog
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.uses_ptt:
            self.ptt = PttStore(
                machine, self.ptt_new_weight, self.ptt_total_weight,
                tracer=self.tracer,
            )
        else:
            self.ptt = None

    def _require_bound(self) -> Machine:
        if self.machine is None:
            raise SchedulingError(f"{self.name} policy was not bound to a machine")
        return self.machine

    def table(self, task: Task) -> PerformanceTraceTable:
        """The PTT of ``task``'s type."""
        if self.ptt is None:
            raise SchedulingError(f"{self.name} does not maintain a PTT")
        return self.ptt.table(task.type_name)

    # -- decision hooks ------------------------------------------------------
    def on_ready(self, task: Task, waker_core: int) -> int:
        """WSQ (by core id) that a just-released task is pushed to.

        Default: the waker's local queue (data reuse with the parent).
        """
        return waker_core

    @abc.abstractmethod
    def choose_place(self, task: Task, core: int) -> ExecutionPlace:
        """Execution place for ``task`` dequeued by ``core`` (Algorithm 1)."""

    def place_after_steal(self, task: Task, thief_core: int) -> ExecutionPlace:
        """Placement re-decision after a successful steal.

        Default: same rule as a normal dequeue at the thief's core.
        """
        return self.choose_place(task, thief_core)

    def allow_steal(self, task: Task) -> bool:
        """Whether ``task`` may be stolen from a WSQ.

        Default (criticality-aware policies): high-priority tasks are
        steal-exempt so their placement decision is honored.
        """
        return not task.is_high_priority

    def on_complete(self, task: Task, place: ExecutionPlace, observed: float) -> None:
        """Train the model with the leader-observed elapsed time."""
        if self.ptt is not None:
            self.ptt.table(task.type_name).update(place, observed)

    # -- reporting ------------------------------------------------------------
    def feature_row(self) -> tuple:
        """(name, asymmetry, moldability, priority placement) — Table 1."""
        return (
            self.name,
            self.asymmetry,
            "Yes" if self.moldability else "No",
            self.priority_placement,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"
