"""Determinism and limit semantics of the fast-path event core.

The engine's optimization contract: event *ordering* is exactly the
``(time, priority, seq)`` heap key, ``run`` limits behave as documented,
and two identical machine runs replay the same event stream down to every
statistic.  These tests pin that contract so future engine work cannot
drift it.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine
from repro.sim.sched import SCHEDULERS
from repro.system.config import MachineConfig
from repro.system.machine import Machine
from repro.workloads.lu import LUContiguous
from repro.workloads.synthetic import HotSpot


# ----------------------------------------------------------------------
# ordering
# ----------------------------------------------------------------------
def test_same_tick_priority_orders_events():
    eng = Engine()
    order = []
    eng.schedule(5, lambda: order.append("inject"), priority=Engine.PRIO_INJECT)
    eng.schedule(5, lambda: order.append("normal"), priority=Engine.PRIO_NORMAL)
    eng.schedule(5, lambda: order.append("arrival"), priority=Engine.PRIO_ARRIVAL)
    eng.run()
    assert order == ["arrival", "normal", "inject"]


def test_same_tick_same_priority_runs_in_schedule_order():
    eng = Engine()
    order = []
    for i in range(20):
        eng.schedule(7, order.append, i)
    eng.run()
    assert order == list(range(20))


def test_priority_beats_seq_only_at_equal_time():
    eng = Engine()
    order = []
    eng.schedule(3, lambda: order.append("late-arrival"), priority=Engine.PRIO_ARRIVAL)
    eng.schedule(1, lambda: order.append("early-inject"), priority=Engine.PRIO_INJECT)
    eng.run()
    assert order == ["early-inject", "late-arrival"]


# ----------------------------------------------------------------------
# run() limits
# ----------------------------------------------------------------------
def test_run_until_advances_clock_to_until():
    eng = Engine()
    fired = []
    eng.schedule(10, fired.append, "a")
    eng.schedule(100, fired.append, "b")
    processed = eng.run(until=50)
    assert processed == 1
    assert fired == ["a"]
    # clock parks exactly at the horizon, not at the next event's time
    assert eng.now == 50
    assert eng.pending == 1
    # resuming picks the remaining event up unchanged
    eng.run()
    assert fired == ["a", "b"]
    assert eng.now == 100


def test_run_until_at_event_time_is_inclusive():
    eng = Engine()
    fired = []
    eng.schedule(50, fired.append, "edge")
    eng.run(until=50)
    assert fired == ["edge"]
    assert eng.now == 50


def test_max_events_stops_early_and_preserves_queue():
    eng = Engine()
    order = []
    for i in range(10):
        eng.schedule(i, order.append, i)
    processed = eng.run(max_events=4)
    assert processed == 4
    assert order == [0, 1, 2, 3]
    assert eng.pending == 6
    # a second limited call continues exactly where the first stopped
    assert eng.run(max_events=2) == 2
    assert order == [0, 1, 2, 3, 4, 5]
    eng.run()
    assert order == list(range(10))


def test_events_run_accumulates_across_calls():
    eng = Engine()
    for i in range(6):
        eng.schedule(i, lambda: None)
    eng.run(max_events=2)
    eng.run()
    assert eng.events_run == 6


def test_throughput_meter_counts_events_and_wall_time():
    eng = Engine()
    for i in range(100):
        eng.schedule(i, lambda: None)
    eng.run()
    meter = eng.throughput()
    assert meter["events_run"] == 100
    assert meter["wall_time_s"] > 0.0
    assert meter["events_per_sec"] == eng.events_per_sec > 0.0


# ----------------------------------------------------------------------
# whole-machine determinism
# ----------------------------------------------------------------------
def _run_hotspot():
    machine = Machine(MachineConfig.small(stations_per_ring=2, rings=2, cpus=2))
    HotSpot(words=16, ops=60).run(machine, nprocs=8)
    return machine


def test_identical_runs_produce_identical_machine_state():
    a = _run_hotspot()
    b = _run_hotspot()
    assert a.engine.events_run == b.engine.events_run
    assert a.engine.now == b.engine.now
    assert a.nc_stats() == b.nc_stats()
    assert a.memory_stats() == b.memory_stats()
    assert a.utilizations() == b.utilizations()
    assert a.ring_interface_delays() == b.ring_interface_delays()


# ----------------------------------------------------------------------
# cross-scheduler determinism: every scheduler pops events in the exact
# (time, priority, seq) order, so whole-machine runs are bit-identical
# under the calendar queue, the reference heap, and with packet pooling
# disabled.
# ----------------------------------------------------------------------
def _fingerprint(machine: Machine) -> tuple:
    return (
        machine.engine.events_run,
        machine.engine.now,
        machine.nc_stats(),
        machine.memory_stats(),
        machine.utilizations(),
        machine.ring_interface_delays(),
    )


def _run_fingerprint(workload_factory, nprocs=8) -> tuple:
    machine = Machine(MachineConfig.small(stations_per_ring=2, rings=2, cpus=2))
    workload_factory().run(machine, nprocs=nprocs)
    return _fingerprint(machine)


_WORKLOADS = {
    "hotspot": lambda: HotSpot(words=16, ops=60),
    # a SPLASH-style kernel: exercises runs, barriers and real data flow
    "lu": lambda: LUContiguous(n=16, block=4),
}


@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
def test_schedulers_are_bit_identical(monkeypatch, workload):
    prints = {}
    for name in sorted(SCHEDULERS):
        monkeypatch.setenv("NUMACHINE_SCHED", name)
        prints[name] = _run_fingerprint(_WORKLOADS[workload])
    assert prints["calendar"] == prints["heap"]


def test_explicit_scheduler_override_beats_environment(monkeypatch):
    monkeypatch.setenv("NUMACHINE_SCHED", "heap")
    eng = Engine(scheduler="calendar")
    assert eng.scheduler_name == "calendar"
    eng = Engine()
    assert eng.scheduler_name == "heap"


def test_auto_scheduler_selection_scales_with_machine(monkeypatch):
    monkeypatch.delenv("NUMACHINE_SCHED", raising=False)
    big = Machine(MachineConfig.prototype())          # 64 processors
    assert big.engine.scheduler_name == "calendar"
    small = Machine(MachineConfig.small(stations_per_ring=2, rings=2, cpus=2))
    assert small.engine.scheduler_name == "heap"      # below the crossover
    assert Engine().scheduler_name == "calendar"      # size unknown


def test_run_refines_auto_selection_to_active_program_count(monkeypatch):
    # a 64-CPU machine driving only 16 programs generates a 16-CPU-sized
    # event population, so Machine.run refines the auto-choice back to heap
    monkeypatch.delenv("NUMACHINE_SCHED", raising=False)
    m = Machine(MachineConfig.prototype())
    assert m.engine.scheduler_name == "calendar"
    HotSpot(words=16, ops=10).run(m, nprocs=16)
    assert m.engine.scheduler_name == "heap"
    # at full scale the calendar stays in place
    m = Machine(MachineConfig.prototype())
    HotSpot(words=16, ops=4).run(m, nprocs=64)
    assert m.engine.scheduler_name == "calendar"
    # an explicit env choice is never second-guessed
    monkeypatch.setenv("NUMACHINE_SCHED", "calendar")
    m = Machine(MachineConfig.prototype())
    HotSpot(words=16, ops=10).run(m, nprocs=16)
    assert m.engine.scheduler_name == "calendar"
    # the hint never acts once anything has been scheduled
    eng = Engine(num_cpus=64)
    eng.schedule(1, lambda: None)
    eng.size_hint(4)
    assert eng.scheduler_name == "calendar"


def test_unknown_scheduler_is_rejected(monkeypatch):
    monkeypatch.setenv("NUMACHINE_SCHED", "splay-tree")
    with pytest.raises(ValueError):
        Engine()
