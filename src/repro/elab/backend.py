"""Backend selection and application.

Two backends execute a machine:

``interp``
    the ordinary class hierarchy — every hook point (tracer, verifier,
    monitor, fault filter) is checked on the hot paths;
``elab``
    a generated specialized core (:mod:`repro.elab.codegen`) — constants
    baked in, pump loops fused, every hook check deleted.  Bit-identical to
    ``interp`` on the canonical reporting surface (events / time /
    ``nc_stats`` / ``memory_stats`` / ``utilizations`` /
    ``ring_interface_delays``); observability-only telemetry (FIFO
    depth/wait histograms, bus ``transactions``, ring ``packets_carried``,
    CPU ``retries``) is not maintained.

Selection mirrors the scheduler knob: an explicit ``Machine(backend=...)``
argument wins, then ``NUMACHINE_BACKEND`` (``auto`` | ``interp`` | ``elab``),
and ``auto`` uses the specialized core whenever it safely can.

The elaborated core is applied by *re-classing* the already-wired component
instances (``obj.__class__ = Generated``) — no state is copied, moved, or
rebuilt, which is what keeps the switch exact.  Two safety rules:

* **any hook forces interp**: a monitor, verifier, fault injector, or an
  observability layer (tracer, probes, telemetry stream) needs hook
  points or telemetry the generated code does not have, so any of them
  keeps the machine interpreted (a watchdog is engine-level and stays
  allowed, as does the engine-level :class:`repro.obs.profile.Profiler`);
* **no switching under in-flight events**: pending events hold bound
  methods captured under the old classes; the backend only flips when the
  event queue is empty (:meth:`sync` is a no-op otherwise).

If elaboration fails (unsupported topology, unwritable cache dir with a
broken generator, ...) the machine silently stays interpreted — ``auto``
never breaks a run; an explicit ``elab`` request warns.
"""

from __future__ import annotations

import os
import warnings

BACKENDS = ("auto", "interp", "elab")


def backend_name(pref=None) -> str:
    """Resolve the backend choice: explicit preference > environment > auto."""
    name = pref or os.environ.get("NUMACHINE_BACKEND") or "auto"
    name = str(name).strip().lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}: expected one of {', '.join(BACKENDS)}"
        )
    return name


def hooks_active(machine) -> bool:
    """Any hook attached that the generated core cannot honour: monitor,
    verifier, fault injection, or observability (tracer / probes /
    telemetry stream)?

    Scans component hook slots directly (not just the Machine-level
    attributes) so hooks installed by hand in tests are honoured too.
    """
    if (
        machine.monitor is not None
        or machine.verifier is not None
        or machine.fault is not None
        or machine.obs is not None
    ):
        return True
    for st in machine.stations:
        sri = st.ring_interface
        if (
            sri.verifier is not None
            or sri.fault_filter is not None
            or sri.tracer is not None
        ):
            return True
        for mod in (st.memory, st.nc):
            if (
                mod.monitor is not None
                or mod.verifier is not None
                or mod.tracer is not None
            ):
                return True
        for cpu in st.cpus:
            if cpu.verifier is not None or cpu.tracer is not None:
                return True
    for iri in machine.net.iris:
        if iri.tracer is not None:
            return True
    return False


# ----------------------------------------------------------------------
def sync(machine) -> None:
    """Bring the machine's active backend in line with the selection and
    the hook state.  Called on entry to :meth:`Machine.run`; a no-op when
    nothing changed or events are in flight."""
    name = backend_name(machine._backend_pref)
    want_elab = not (
        name == "interp"
        or getattr(machine, "_elab_failed", False)
        or hooks_active(machine)
    )
    if want_elab == machine._elab_applied:
        return
    if machine.engine.pending:
        return  # pending events hold old bound methods; never swap now
    if not want_elab:
        _revert(machine)
        machine._elab_applied = False
        return
    try:
        from .ir import MachineIR
        from .store import load_module

        _specialize(machine, load_module(MachineIR.from_machine(machine)))
    except Exception as exc:
        machine._elab_failed = True
        if name == "elab":
            warnings.warn(
                f"NUMACHINE_BACKEND=elab unavailable ({exc}); "
                "running interpreted",
                RuntimeWarning,
                stacklevel=2,
            )
        return
    machine._elab_applied = True


def ensure_interp(machine) -> None:
    """Force the interpreted classes back in place (hook attachment)."""
    if not machine._elab_applied:
        return
    if machine.engine.pending:
        raise RuntimeError(
            "cannot attach hooks while elaborated events are in flight; "
            "drain the engine (run to completion) first"
        )
    _revert(machine)
    machine._elab_applied = False


# ----------------------------------------------------------------------
def _recapture(machine) -> None:
    """Re-capture the bound methods the ring interfaces hold: a bound
    method pins the function of the class *at capture time*, so it must be
    refreshed after every class swap (in either direction)."""
    for st in machine.stations:
        sri = st.ring_interface
        sri.bus_granter = st.bus.request
        sri.deliver_cb = st.deliver_from_ring


def _specialize(machine, mod) -> None:
    for st in machine.stations:
        st.__class__ = mod.ElabStation
        st.bus.__class__ = mod.ElabBus
        st.memory.__class__ = mod.ElabMem
        st.memory.out_port.__class__ = mod.ElabPort
        st.nc.__class__ = mod.ElabNC
        st.nc.out_port.__class__ = mod.ElabPort
        for cpu in st.cpus:
            cpu.__class__ = mod.ElabCPU
        st.ring_interface.__class__ = mod.SRI_CLASSES[st.station_id]
    for (level, _), ring in machine.net.rings.items():
        ring.__class__ = mod.RING_CLASSES[level]
    for iri in machine.net.iris:
        iri.__class__ = mod.IRI_CLASSES[iri.name]
    _recapture(machine)


def _revert(machine) -> None:
    from ..cpu.processor import Processor
    from ..interconnect.interfaces import (
        InterRingInterface,
        StationRingInterface,
    )
    from ..interconnect.ring import Ring
    from ..system.bus import Bus, OrderedPort
    from ..system.station import Station

    # the interpreted classes are the active protocol's engine classes,
    # not the protocol-agnostic bases
    proto = machine.protocol
    for st in machine.stations:
        st.__class__ = Station
        st.bus.__class__ = Bus
        st.memory.__class__ = proto.memory_class
        st.memory.out_port.__class__ = OrderedPort
        st.nc.__class__ = proto.nc_class
        st.nc.out_port.__class__ = OrderedPort
        for cpu in st.cpus:
            cpu.__class__ = Processor
        st.ring_interface.__class__ = StationRingInterface
    for ring in machine.net.rings.values():
        ring.__class__ = Ring
    for iri in machine.net.iris:
        iri.__class__ = InterRingInterface
    _recapture(machine)
    _resync_telemetry(machine)


def _resync_telemetry(machine) -> None:
    """The specialized core does not maintain the FIFO depth integral, so
    every fifo's ``_last_change`` clock is stale after an elab run.  Reset
    it to *now* before interpreted code resumes its ``depth_area`` updates,
    otherwise the first interp push/pop would integrate the whole elab era
    at the current depth."""
    now = machine.engine.now
    for f in _all_fifos(machine):
        f._last_change = now


def _all_fifos(machine):
    for st in machine.stations:
        sri = st.ring_interface
        yield from (st.memory.in_fifo, st.nc.in_fifo)
        yield from (sri.out_fifo, sri.in_fifo, sri.sink_q, sri.nonsink_q)
    for iri in machine.net.iris:
        yield from (iri.up_fifo, iri.down_fifo)
