"""The benchmark's workloads: what each one runs, why, and what it predicts.

Every workload runs with the simulator's defaults only: the ``auto``
backend, the default coherence protocol, transit fusion, scheduler and
packet pooling as shipped, and consecutive CPUs ``0..P-1``.  The
environment that could change those is cleared by ``run.py`` before any
sample starts.

``hotspot64`` -- ``HotSpot(words=64, ops=400)`` on ``MachineConfig.prototype()``
    at P=64.  The paper's hot-spot worst case: one third of the references
    are writes to 64 words homed on station 0, ~1.3M events for 25.6k
    references (~51 events per reference).  It stresses network-cache
    service, NACK retries, bus completion and central-ring traffic.  It
    bypasses ``repro.perf`` (no sweep, no result cache).  The seed changes
    nothing.  Letting it pick the hot station was tried and dropped: from
    one station to the next the event count ranges over 1.18M-1.77M and
    the wall time over 2.5-5.1 s, so a comparison across seeds would
    measure the station, not the simulator.  It is run by hand
    (``run.py --workload hotspot64``) and is not one of ``BENCHMARK.json``'s
    workloads: on the 2-CPU host the benchmark was tuned on, two sets of
    ten 40 s runs of it spread by 14% and 27% (quartile distance over
    median) against ~12% for ``lu64`` and ~6% for ``suite16``, too close
    to the 25% bound a regression gate can use.  ``lu64`` still exercises
    every layer it stresses, at lower intensity.

``lu64`` -- ``make("lu_contig", "bench")`` (n=96, block=16) on
    ``MachineConfig.prototype()`` at P=64.  A read-mostly blocked kernel
    with barrier phases: most references are L2 hits batched inside CPU
    events, and its misses cross both ring levels as owner writes rather
    than a write-sharing storm (~367k events).  It bypasses ``repro.perf``.
    The seed changes nothing: the kernel's input matrix is fixed by the
    workload itself, so every seed measures the same simulation.

``suite16`` -- the 12 ``repro.workloads.suite.SUITE`` workloads at P=1 and
    P=16 on the figure benches' configuration (the prototype with
    ``compute_scale=32``), run through ``repro.perf.run_sweep`` with
    ``jobs=1`` into an empty result cache.  The cold paper evaluation in
    miniature: 24 short points, each paying machine construction,
    specialisation, record collection and a cache write.  It is the only
    workload that goes through ``repro.perf``.  Its rings are nearly idle
    (consecutive CPUs sit on the first local ring; only the round-robin
    page placement sends traffic further: ~0.7% local and ~0.4% central
    ring utilisation, against ~13% and ~24% on ``hotspot64``), so it is
    the bypass case for interconnect changes, and ``hotspot64``/``lu64``
    are the bypass cases for ``repro.perf`` changes.  The points run in
    ``SUITE`` order and the seed changes nothing.  Letting it shuffle the
    order was tried and dropped: the order decides where Python's cyclic
    collector pauses land, and with them ``setup_s`` (0.106 s for one
    order, 0.195 s for another, repeatably), so a comparison across seeds
    would measure collector placement.

No workload's input depends on ``--seed``; the argument is accepted and
recorded with each result.

Layer -> end-to-end predictions (``*.self_s`` is host time from the traced
run; the rest are counts or simulated-time values):

* ``sim`` (engine loop + scheduler): moves ``wall_s`` and
  ``sim_refs_per_s`` most on ``hotspot64`` (~51 events/ref), less on
  ``lu64``.
* ``cpu``: moves ``sim_refs_per_s`` on ``lu64`` and ``suite16`` (its P=1
  points); small on ``hotspot64``.
* ``system.bus``: moves ``wall_s`` on ``hotspot64``, where
  ``_bus_complete`` is the largest site (~30% of profiled time).
* ``cache.nc`` (with the protocol plug-in's NC handlers): moves ``wall_s``
  on ``hotspot64``; little on ``lu64``.
* ``memory`` (with the protocol plug-in's memory handlers): moves
  ``wall_s`` on ``hotspot64``.
* ``interconnect.ring`` and ``interconnect.interfaces``: move ``wall_s`` on
  ``lu64`` and ``hotspot64``; next to nothing on ``suite16``.
* outer spans (machine construction, workload build, elab
  specialisation, record collection, cache get/put): move ``setup_s`` on
  all three workloads, and ``wall_s`` on ``suite16`` only.
"""

from __future__ import annotations

from typing import List, Tuple

NAMES = ("hotspot64", "lu64", "suite16")

#: the suite16 processor counts
SUITE_PROCS = (1, 16)


#: in-process workload -> processor count (consecutive CPUs); ``selftest``
#: is the tiny point ``selftest.py`` runs, not a benchmark workload
IN_PROCESS_PROCS = {"hotspot64": 64, "lu64": 64, "selftest": 16}


def make_in_process(workload: str):
    """``(config, workload object)`` for an in-process point; imports the
    simulator lazily so this module loads without it."""
    from repro import MachineConfig
    from repro.workloads import make
    from repro.workloads.synthetic import HotSpot

    if workload == "hotspot64":
        wl = HotSpot(words=64, ops=400, hot_station=0)
    elif workload == "lu64":
        wl = make("lu_contig", "bench")
    elif workload == "selftest":
        wl = HotSpot(words=16, ops=40)
    else:
        raise ValueError(f"{workload!r} is not an in-process workload")
    return MachineConfig.prototype(), wl


def suite_config():
    """The figure benches' machine: the prototype at the default
    ``compute_scale`` of 32 (``benchmarks/harness.py: bench_config`` with
    ``NUMACHINE_COMPUTE_SCALE`` unset), spelled out so the benchmark does
    not import the bench harness."""
    from repro import MachineConfig

    cfg = MachineConfig.prototype()
    cfg.compute_scale = 32.0
    return cfg


def suite_points() -> List[Tuple[str, int]]:
    """The 24 ``(workload, nprocs)`` points, in ``SUITE`` order."""
    from repro.workloads.suite import SUITE

    return [(name, p) for name in SUITE for p in SUITE_PROCS]


def suite_key(name: str, nprocs: int) -> str:
    return f"{name}@{nprocs}"
