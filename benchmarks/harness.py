"""Shared harness for the paper-reproduction benches.

Every bench regenerates one table or figure from the paper's evaluation
(§4): it runs the scaled workloads on the prototype machine configuration,
prints the same rows/series the paper reports side by side with the
published values, and asserts the qualitative *shape* (who wins, rough
factors, orderings) rather than absolute numbers — our substrate is a
simulator with scaled problem sizes, not the authors' testbed.

Runs go through :mod:`repro.perf`: each ``(workload, nprocs, config)``
point is memoized in the on-disk result cache and independent points fan
out across worker processes.

Environment knobs:

* ``NUMACHINE_MAX_PROCS``  — top of the processor sweep (default 16;
  set 64 for the full prototype curves, at ~10x the wall time).
* ``NUMACHINE_COMPUTE_SCALE`` — Compute-cycle multiplier restoring the
  paper's compute/communication balance at scaled-down problem sizes
  (default 32; documented in EXPERIMENTS.md).
* ``NUMACHINE_JOBS``       — worker processes for independent sweep
  points (default 1: serial).
* ``NUMACHINE_CACHE`` / ``NUMACHINE_CACHE_DIR`` — result cache control
  (set ``NUMACHINE_CACHE=0`` to force fresh runs).
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro import Machine, MachineConfig
from repro.perf import RunRecord, SweepPoint, run_sweep
from repro.workloads import make


def compute_scale() -> float:
    try:
        return float(os.environ.get("NUMACHINE_COMPUTE_SCALE", "32"))
    except ValueError:
        return 32.0


def max_procs() -> int:
    try:
        return int(os.environ.get("NUMACHINE_MAX_PROCS", "16"))
    except ValueError:
        return 16


def proc_sweep() -> List[int]:
    top = max_procs()
    out = []
    p = 1
    while p <= top:
        out.append(p)
        p *= 2
    return out


_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(MachineConfig))


def bench_config(**overrides) -> MachineConfig:
    cfg = MachineConfig.prototype()
    cfg.compute_scale = compute_scale()
    for key, value in overrides.items():
        if key not in _CONFIG_FIELDS:
            raise ValueError(
                f"unknown MachineConfig field {key!r}; valid fields: "
                f"{', '.join(sorted(_CONFIG_FIELDS))}"
            )
        setattr(cfg, key, value)
    return cfg


def spread_cpus(config: MachineConfig, nprocs: int) -> List[int]:
    """``nprocs`` CPUs spread over the whole hierarchy: stations are taken
    evenly across all rings, filling each chosen station with pairs first —
    so both the intra-station sharing and the central-ring traffic of the
    paper's 64-processor runs appear at smaller processor counts."""
    per = config.cpus_per_station
    nstations = config.num_stations
    if nprocs >= nstations * 2:
        per_station = max(2, -(-nprocs // nstations))
        stations = list(range(nstations))
    else:
        per_station = 2 if nprocs >= 2 else 1
        count = max(1, nprocs // per_station)
        step = max(1, nstations // count)
        stations = list(range(0, nstations, step))[:count]
    cpus: List[int] = []
    taken = set()  # membership mirror of `cpus`: keeps the top-up loop O(n)
    for s in stations:
        for i in range(min(per_station, per)):
            if len(cpus) < nprocs:
                c = s * per + i
                cpus.append(c)
                taken.add(c)
    # top up from remaining slots if rounding left us short
    s = 0
    while len(cpus) < nprocs:
        for c in range(s * per, (s + 1) * per):
            if c not in taken and len(cpus) < nprocs:
                cpus.append(c)
                taken.add(c)
        s = (s + 1) % nstations
    return sorted(cpus)


# ----------------------------------------------------------------------
# cached / parallel run entry points (repro.perf)
# ----------------------------------------------------------------------
def sweep_point(
    name: str,
    nprocs: int,
    config: Optional[MachineConfig] = None,
    spread: bool = False,
    variant: str = "",
) -> SweepPoint:
    cfg = config or bench_config()
    cpus: Tuple[int, ...] = ()
    if spread:
        cpus = tuple(spread_cpus(cfg, nprocs))
    return SweepPoint(
        workload=name, nprocs=nprocs, config=cfg, cpus=cpus, variant=variant
    )


def run_point(
    name: str,
    nprocs: int,
    config: Optional[MachineConfig] = None,
    spread: bool = False,
    variant: str = "",
) -> RunRecord:
    """Run one workload point (cached); returns its :class:`RunRecord`."""
    return run_sweep([sweep_point(name, nprocs, config, spread, variant)])[0]


def run_points(points: List[SweepPoint]) -> List[RunRecord]:
    """Run many independent points — parallel across ``NUMACHINE_JOBS``
    workers, memoized in the result cache, output order = input order."""
    return run_sweep(points)


def run_workload(
    name: str,
    nprocs: int,
    config: Optional[MachineConfig] = None,
    spread: bool = False,
) -> Tuple[Machine, float]:
    """Run one suite workload in-process; returns (machine, parallel_time_ns).

    The machine object is live (useful for ad-hoc inspection); benches that
    only need statistics should prefer :func:`run_point`, which caches.
    """
    cfg = config or bench_config()
    machine = Machine(cfg)
    workload = make(name, "bench")
    if spread:
        result = workload.run(machine, cpus=spread_cpus(cfg, nprocs))
    else:
        result = workload.run(machine, nprocs=nprocs)
    return machine, result.parallel_time_ns


def run_observed(
    name: str,
    nprocs: int,
    config: Optional[MachineConfig] = None,
    spread: bool = False,
    **obs_kwargs,
):
    """Run one suite workload in-process with the observability layer on.

    Returns ``(machine, obs, parallel_time_ns)``; never cached (tracing adds
    probe events, so observed runs must not share cache entries with plain
    ones).  ``obs_kwargs`` forward to :class:`repro.obs.Observability` —
    e.g. ``trace_capacity=`` or ``probe_period_ns=``."""
    from repro.obs import Observability

    cfg = config or bench_config()
    machine = Machine(cfg)
    obs = Observability(**obs_kwargs).attach(machine)
    workload = make(name, "bench")
    if spread:
        result = workload.run(machine, cpus=spread_cpus(cfg, nprocs))
    else:
        result = workload.run(machine, nprocs=nprocs)
    return machine, obs, result.parallel_time_ns


def speedup_curves(
    names: Iterable[str], procs: Iterable[int], config_factory=bench_config
) -> Dict[str, Dict[int, float]]:
    """Speedup curves for several workloads at once.

    The whole ``names x procs`` grid is submitted as one sweep, so with
    ``NUMACHINE_JOBS > 1`` every point runs concurrently and cached points
    are free."""
    names = list(names)
    procs = list(procs)
    points = [
        sweep_point(name, p, config_factory()) for name in names for p in procs
    ]
    records = run_sweep(points)
    out: Dict[str, Dict[int, float]] = {}
    i = 0
    for name in names:
        base = None
        curve: Dict[int, float] = {}
        for p in procs:
            t = records[i].parallel_time_ns
            i += 1
            if base is None:
                base = t
            curve[p] = base / t
        out[name] = curve
    return out


def print_series(title: str, header: List[str], rows: List[List]) -> None:
    print()
    print(f"== {title} ==")
    widths = [max(len(str(h)), 10) for h in header]
    print("  ".join(f"{h:>{w}}" for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(
            f"{(f'{v:.2f}' if isinstance(v, float) else str(v)):>{w}}"
            for v, w in zip(row, widths)
        ))


def paper_note(text: str) -> None:
    print(f"   [paper] {text}")
