"""One benchmark sample, in a fresh process.

    python3 perfbench/sample.py --workload hotspot64 [--traced]

Runs the workload's points once from a cold start (``run.py`` gives every
sample an empty ``NUMACHINE_CACHE_DIR`` and a pinned environment), checks
each point against ``golden.json``, and prints one JSON object.

The sample measures the simulator from outside.  A :class:`Recorder` wraps
the public entry points the benchmark calls -- ``Machine(...)``, every
``Workload.build``, ``repro.elab.backend.sync``, ``Machine.run``,
``RunCache.get``/``put`` and the sweep's ``collect_record`` -- and times
each call.  ``Machine.run`` is preceded by its own ``backend.sync`` so
that specialisation counts as set-up, never as run time.  With
``--traced`` the ``Machine.run`` wrapper also installs
``repro.obs.profile.Profiler`` on the engine and keeps its per-site event
counts and wall time, which :mod:`layers` folds into layers.

A point fails when it raises (``DeadlockError`` included) or when its
canonical surface does not match the stored digest; a failure is recorded
and the remaining points still run.  Anything else -- an unmapped profiler
site, a stray environment knob, a simulator that does not import -- is a
harness error: the process exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.elab import backend as elab_backend  # noqa: E402
from repro.elab import codegen, store  # noqa: E402,F401  (imported before timing)
from repro.obs.profile import Profiler  # noqa: E402
from repro.perf import RunCache, SweepPoint, run_sweep  # noqa: E402
from repro.perf import sweep as perf_sweep  # noqa: E402
from repro.protocol import canonical_surface  # noqa: E402
from repro.system.machine import Machine  # noqa: E402
from repro.workloads import Workload  # noqa: E402
from repro.workloads import synthetic  # noqa: E402,F401  (HotSpot, wrapped)

GOLDEN = HERE / "golden.json"

#: the only simulator knobs a sample may see (set by run.py)
ALLOWED_ENV = ("NUMACHINE_JOBS", "NUMACHINE_CACHE_DIR")

_pc = time.perf_counter


def check_pinned_env() -> None:
    stray = sorted(
        k for k in os.environ if k.startswith("NUMACHINE_") and k not in ALLOWED_ENV
    )
    if stray or os.environ.get("NUMACHINE_JOBS") != "1":
        raise SystemExit(
            f"unpinned environment: {stray or 'NUMACHINE_JOBS != 1'}; "
            "run samples through perfbench/run.py"
        )


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def record_surface(record) -> dict:
    """A sweep record's deterministic view minus its event counts."""
    view = record.deterministic_view()
    view.pop("events", None)
    return view


def _workload_classes(cls=Workload):
    for sub in cls.__subclasses__():
        yield sub
        yield from _workload_classes(sub)


class Recorder:
    """Times the benchmark's calls into the simulator (see module doc).

    ``points`` holds one dict per constructed machine, in construction
    order.  :meth:`install` patches the entry points; :meth:`uninstall`
    restores them.
    """

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.points = []
        self.cache = {"get_s": 0.0, "put_s": 0.0, "gets": 0, "hits": 0}
        self._by_machine = {}
        self._undo = []

    def _patch(self, owner, name, wrap) -> None:
        orig = owner.__dict__[name]
        setattr(owner, name, wrap(orig))
        self._undo.append((owner, name, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def _point(self, machine) -> dict:
        return self._by_machine[id(machine)]

    def install(self) -> "Recorder":
        rec = self

        def wrap_init(orig):
            def __init__(machine, *args, **kwargs):
                t0 = _pc()
                orig(machine, *args, **kwargs)
                point = {
                    "construct_s": _pc() - t0,
                    "build_s": 0.0,
                    "specialize_s": 0.0,
                    "run_s": 0.0,
                    "collect_s": 0.0,
                    "fallback": False,
                    "refs": 0,
                    "misses": 0,
                    "events": 0,
                    "engine_wall_s": 0.0,
                    "sites": {},
                }
                rec._by_machine[id(machine)] = point
                rec.points.append(point)

            return __init__

        def wrap_build(orig):
            def build(workload, machine, cpus):
                t0 = _pc()
                try:
                    return orig(workload, machine, cpus)
                finally:
                    rec._point(machine)["build_s"] += _pc() - t0

            return build

        def wrap_sync(orig):
            def sync(machine):
                t0 = _pc()
                try:
                    return orig(machine)
                finally:
                    rec._point(machine)["specialize_s"] += _pc() - t0

            return sync

        def wrap_run(orig):
            def run(machine, programs, *args, **kwargs):
                point = rec._point(machine)
                elab_backend.sync(machine)  # the wrapped sync: set-up time
                point["fallback"] = machine.backend != "elab"
                prof = Profiler().install(machine.engine) if rec.traced else None
                t0 = _pc()
                try:
                    return orig(machine, programs, *args, **kwargs)
                finally:
                    point["run_s"] += _pc() - t0
                    if prof is not None:
                        prof.uninstall()
                        sites = point["sites"]
                        for s in prof.summary()["sites"]:
                            ev, wall = sites.get(s["site"], (0, 0.0))
                            sites[s["site"]] = (ev + s["events"], wall + s["wall_s"])
                    # a reference counts once: as a hit (reads, writes,
                    # rmws) or as one issued miss (<kind>_misses)
                    hits = misses = 0
                    for cpu in machine.cpus:
                        for name, ctr in cpu.stats.counters.items():
                            if name in ("reads", "writes", "rmws"):
                                hits += ctr.value
                            elif name.endswith("_misses"):
                                misses += ctr.value
                    point["refs"] = hits + misses
                    point["misses"] = misses
                    point["events"] = machine.engine.events_run
                    point["engine_wall_s"] = machine.engine.wall_time_s

            return run

        def wrap_collect(orig):
            def collect_record(machine, *args, **kwargs):
                point = rec._point(machine)
                point["key"] = workloads.suite_key(kwargs["workload"], kwargs["nprocs"])
                t0 = _pc()
                try:
                    return orig(machine, *args, **kwargs)
                finally:
                    point["collect_s"] += _pc() - t0

            return collect_record

        def wrap_get(orig):
            def get(cache, key):
                t0 = _pc()
                hit = orig(cache, key)
                rec.cache["get_s"] += _pc() - t0
                rec.cache["gets"] += 1
                rec.cache["hits"] += hit is not None
                return hit

            return get

        def wrap_put(orig):
            def put(cache, key, record):
                t0 = _pc()
                try:
                    return orig(cache, key, record)
                finally:
                    rec.cache["put_s"] += _pc() - t0

            return put

        self._patch(Machine, "__init__", wrap_init)
        self._patch(Machine, "run", wrap_run)
        for cls in set(_workload_classes()):
            if "build" in cls.__dict__:
                self._patch(cls, "build", wrap_build)
        self._patch(elab_backend, "sync", wrap_sync)
        self._patch(perf_sweep, "collect_record", wrap_collect)
        self._patch(RunCache, "get", wrap_get)
        self._patch(RunCache, "put", wrap_put)
        return self

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Span and count totals over every point of the sample."""
        keys = (
            "construct_s", "build_s", "specialize_s", "run_s", "collect_s",
            "refs", "misses", "events", "engine_wall_s",
        )
        out = {k: sum(p[k] for p in self.points) for k in keys}
        out["setup_s"] = out["construct_s"] + out["build_s"] + out["specialize_s"]
        out["fallbacks"] = sum(p["fallback"] for p in self.points)
        out["cache_get_s"] = self.cache["get_s"]
        out["cache_put_s"] = self.cache["put_s"]
        out["cache_gets"] = self.cache["gets"]
        out["cache_hits"] = self.cache["hits"]
        return out

    def layer_split(self) -> dict:
        """``{layer: {events, self_s}}`` over every point, plus ``sim`` --
        the ``Machine.run`` spans minus every mapped site.  Raises
        :class:`layers.UnmappedSiteError` on a site no layer claims."""
        sites = {}
        for p in self.points:
            for site, (ev, wall) in p["sites"].items():
                e0, w0 = sites.get(site, (0, 0.0))
                sites[site] = (e0 + ev, w0 + wall)
        split = layers.attribute((s, ev, w) for s, (ev, w) in sites.items())
        mapped = sum(row["self_s"] for row in split.values())
        split["sim"] = {
            "events": sum(p["events"] for p in self.points),
            "self_s": sum(p["run_s"] for p in self.points) - mapped,
        }
        return split


# ----------------------------------------------------------------------
def _machine_counters(nc_stats, memory_stats, utilizations, ring_delays) -> dict:
    return {
        "nc_hits": nc_stats.get("hits", 0),
        "nc_misses": nc_stats.get("misses", 0),
        "nc_nacks": nc_stats.get("nacks", 0) + nc_stats.get("conflict_nacks", 0),
        "mem_nacks": memory_stats.get("nacks", 0),
        "bus_util": utilizations.get("bus", 0.0),
        "local_util": utilizations.get("local_ring", 0.0),
        "central_util": utilizations.get("central_ring", 0.0),
        "down_nonsink_delay": ring_delays.get("down_nonsinkable", 0.0),
    }


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_in_process(workload: str, traced: bool, backend=None) -> dict:
    """One point by direct calls: ``Machine``, ``build``, ``sync``, ``run``."""
    nprocs = workloads.IN_PROCESS_PROCS[workload]
    rec = Recorder(traced).install()
    point = {"key": "default", "digest": None, "refs": None, "error": None}
    counters = []
    cfg, wl = workloads.make_in_process(workload)
    t0 = _pc()
    try:
        machine = Machine(cfg, backend=backend)
        cpus = list(range(nprocs))
        wl.build(machine, cpus)
        programs = {cpu: wl.thread_program(tid, cpus) for tid, cpu in enumerate(cpus)}
        elab_backend.sync(machine)
        machine.run(programs)
        wall = _pc() - t0
        point["digest"] = digest(canonical_surface(machine))
        point["refs"] = rec.points[-1]["refs"]
        point["backend"] = machine.backend
        counters.append(
            _machine_counters(
                machine.nc_stats(),
                machine.memory_stats(),
                machine.utilizations(),
                machine.ring_interface_delays(),
            )
        )
    except Exception as exc:  # a failed point is a result, not a crash
        wall = _pc() - t0
        point["error"] = _error(exc)
    finally:
        rec.uninstall()
    return _sample(rec, [point], counters, wall)


def run_suite(traced: bool) -> dict:
    """The 24 suite points through one cold ``run_sweep``."""
    order = workloads.suite_points()
    cfg = workloads.suite_config()
    todo = [SweepPoint(workload=name, nprocs=p, config=cfg) for name, p in order]
    cache = RunCache()
    rec = Recorder(traced).install()
    try:
        t0 = _pc()
        try:
            results = run_sweep(todo, jobs=1, cache=cache)
            wall = _pc() - t0
        except Exception:
            wall = _pc() - t0
            # find the failing points without aborting the others
            results = []
            for sp in todo:
                try:
                    results.append(run_sweep([sp], jobs=1, cache=cache)[0])
                except Exception as exc:
                    results.append(exc)
    finally:
        rec.uninstall()
    points, counters = [], []
    for (name, p), record in zip(order, results):
        point = {"key": workloads.suite_key(name, p), "digest": None,
                 "refs": None, "error": None}
        if isinstance(record, Exception):
            point["error"] = _error(record)
        else:
            point["digest"] = digest(record_surface(record))
            counters.append(
                _machine_counters(
                    record.nc_stats,
                    record.memory_stats,
                    record.utilizations,
                    record.ring_delays,
                )
            )
        points.append(point)
    # refs are counted per machine; collect_record named each machine's point
    refs = {p["key"]: p["refs"] for p in rec.points if "key" in p}
    for point in points:
        point["refs"] = refs.get(point["key"])
    return _sample(rec, points, counters, wall)


def _sample(rec: Recorder, points, counters, wall: float) -> dict:
    out = rec.summary()
    out["wall_s"] = wall
    out["points"] = points
    # counts add up over points; utilisations and delays are point means
    n = max(1, len(counters))
    out["counters"] = {
        k: (sum(c[k] for c in counters) / n if k.endswith(("_util", "_delay"))
            else sum(c[k] for c in counters))
        for k in _machine_counters({}, {}, {}, {})
    }
    if rec.traced:
        out["layers"] = rec.layer_split()
    return out


def verify(sample: dict, golden: dict) -> None:
    """Mark every point whose digest or reference count differs from the
    stored one (or has none stored) as failed."""
    for point in sample["points"]:
        if point["error"]:
            continue
        want = golden.get(point["key"])
        if want is None:
            point["error"] = f"no golden digest stored for {point['key']}"
        elif point["digest"] != want["digest"]:
            point["error"] = f"canonical surface differs from golden ({point['key']})"
        elif point["refs"] != want["refs"]:
            point["error"] = (
                f"reference count {point['refs']} != golden {want['refs']} "
                f"({point['key']})"
            )


def load_golden() -> dict:
    """The stored digests; none at all (before the first ``make_golden.py``)
    fails every point."""
    try:
        with open(GOLDEN) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def take(workload: str, traced: bool, backend=None) -> dict:
    """Run and verify one sample of ``workload``."""
    if workload == "suite16":
        sample = run_suite(traced)
    else:
        sample = run_in_process(workload, traced, backend)
    verify(sample, load_golden().get(workload, {}))
    return sample


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.NAMES + ("selftest",))
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)
    check_pinned_env()
    sample = take(args.workload, args.traced)
    sample["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
