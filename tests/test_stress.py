"""Randomized whole-machine stress with end-state coherence verification.

Each seed generates deterministic per-CPU op streams (reads, writes, atomic
increments, compute) over a small shared region, runs to completion, and
then checks global invariants:

* every atomic counter reached exactly its expected value;
* at most one dirty copy of any line exists machine-wide;
* every readable cached copy of a line agrees with the machine-wide
  authoritative value (no stale survivors).
"""

import random

import pytest

from repro import AtomicRMW, Barrier, Compute, Machine, MachineConfig, Read, Write
from repro.core.states import CacheState
from repro.interconnect.routing import Geometry

from conftest import small_config


def check_final_coherence(m: Machine, region, nwords: int) -> None:
    cfg = m.config
    lines = sorted({cfg.line_addr(region.addr(i * 8)) for i in range(nwords)})
    for la in lines:
        dirty = [
            (cpu.cpu_id, line)
            for cpu in m.cpus
            if (line := cpu.l2.lookup(la)) is not None
            and line.state is CacheState.DIRTY
        ]
        assert len(dirty) <= 1, f"line {la:#x} has {len(dirty)} dirty owners"
        authoritative = m.read_word(la)
        for cpu in m.cpus:
            line = cpu.l2.lookup(la)
            if line is not None and line.state.readable:
                assert line.data[0] == authoritative, (
                    f"P{cpu.cpu_id} holds stale {line.data[0]} != "
                    f"{authoritative} for {la:#x}"
                )
        for st in m.stations:
            ncl = st.nc.array.probe(la)
            if ncl is not None and ncl.data_valid:
                assert ncl.data[0] == authoritative, (
                    f"S{st.station_id} NC stale for {la:#x}"
                )


def _stress(seed: int, cfg, ops: int = 120) -> None:
    rng = random.Random(seed)
    m = Machine(cfg)
    ncpus = cfg.num_cpus
    nwords = 64
    arr = m.allocate(nwords * 8)
    counters = m.allocate(8 * 8, placement="local:0")
    allc = tuple(range(ncpus))
    expected = [0]

    def prog(cid, seq):
        for kind, a, b in seq:
            if kind == "r":
                yield Read(arr.addr(a * 8))
            elif kind == "w":
                yield Write(arr.addr(a * 8), b)
            elif kind == "rmw":
                yield AtomicRMW(counters.addr(a * 8), lambda v: v + 1)
            else:
                yield Compute(b)
        yield Barrier(0, allc)
        if cid == 0:
            total = 0
            for i in range(8):
                v = yield Read(counters.addr(i * 8))
                total += v
            assert total == expected[0], (total, expected[0])

    programs = {}
    for c in range(ncpus):
        seq = []
        for _ in range(ops):
            roll = rng.random()
            if roll < 0.45:
                seq.append(("r", rng.randrange(nwords), 0))
            elif roll < 0.75:
                seq.append(("w", rng.randrange(nwords), rng.randrange(10000)))
            elif roll < 0.9:
                seq.append(("rmw", rng.randrange(8), 0))
                expected[0] += 1
            else:
                seq.append(("c", 0, rng.randrange(40)))
        programs[c] = prog(c, seq)
    m.run(programs)
    check_final_coherence(m, arr, nwords)


@pytest.mark.parametrize("seed", range(6))
def test_stress_default_geometry(seed):
    _stress(seed, small_config())


def test_stress_single_ring():
    cfg = MachineConfig(
        geometry=Geometry((4,), processors_per_station=2),
        l1_size_bytes=1024, l2_size_bytes=8192, nc_size_bytes=32768,
        station_mem_bytes=1 << 22,
    )
    _stress(100, cfg)


def test_stress_four_cpu_stations():
    cfg = MachineConfig(
        geometry=Geometry((2, 2), processors_per_station=4),
        l1_size_bytes=1024, l2_size_bytes=8192, nc_size_bytes=32768,
        station_mem_bytes=1 << 22,
    )
    _stress(101, cfg)


def test_stress_tiny_nc_forces_ejections():
    """A two-line NC thrashes constantly; correctness must hold through the
    ejection / false-remote machinery."""
    cfg = small_config(nc_size_bytes=2 * 64)
    _stress(7, cfg, ops=80)


def test_stress_batch_one():
    _stress(3, small_config(cpu_batch=1), ops=60)


def test_stress_no_sc_locking():
    _stress(5, small_config(sc_locking=False))


def test_stress_exact_sharers():
    _stress(6, small_config(exact_sharers=True))


def test_stress_nc_bypass():
    _stress(8, small_config(nc_enabled=False), ops=80)


def test_stress_pessimistic_upgrade():
    _stress(9, small_config(optimistic_upgrade=False))
