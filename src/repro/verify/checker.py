"""The coherence invariant checker (see the package docstring).

Design constraints, in order:

1. **Read-only.**  The checker may look at any simulation state but never
   changes it, never schedules events and never draws from shared id/rng
   streams — this is what makes checked runs bit-identical to unchecked
   ones.
2. **Transient-aware.**  The protocol *by design* lets stale copies
   outlive a write (ack-free ordered invalidation: the writer proceeds
   once the multicast reaches its own station; downstream sharers see it
   later).  Naive "no readers while a writer exists" would fire on every
   contended write.  Each invariant below is formulated at a point where
   the protocol's own ordering makes it exact, with checker-maintained
   shadow sets covering the in-flight invalidation windows.
3. **Cheap.**  Checks touch only the line the current event is about plus
   the small per-station cache arrays; nothing scans the whole machine
   except the single-writer check at exclusive installs (misses only).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..core.states import CacheState, LineState
from ..interconnect.packet import MsgType, Packet
from ..sim.engine import SimulationError


class InvariantViolation(SimulationError):
    """A protocol invariant did not hold.

    Carries enough context to reproduce and localize the failure:
    ``invariant`` (the rule name), ``line_addr`` (the guilty line),
    ``where`` (module description), ``trace_id`` (packet pid that
    triggered the check, if any), ``seed`` (the run's replay seed, set by
    the harness via :meth:`CoherenceChecker.set_seed`), plus the engine
    ``now`` / ``events_run`` at detection time.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        line_addr: Optional[int] = None,
        where: str = "?",
        now: int = 0,
        events_run: int = 0,
        trace_id: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.invariant = invariant
        self.line_addr = line_addr
        self.where = where
        self.now = now
        self.events_run = events_run
        self.trace_id = trace_id
        self.seed = seed
        line = f"{line_addr:#x}" if line_addr is not None else "?"
        super().__init__(
            f"[{invariant}] {message} (line={line} at={where} now={now} "
            f"events={events_run} pid={trace_id} seed={seed})"
        )


def _default_policy():
    """Fallback mask/transition policy for checkers attached before a
    machine resolved its protocol (direct unit-test construction)."""
    from ..protocol import get_protocol

    return get_protocol("numachine")


class CoherenceChecker:
    """Runtime invariant checker attached across a whole machine."""

    def __init__(
        self,
        max_locked_ticks: int = 3_000_000,
        seed: Optional[int] = None,
    ) -> None:
        #: locked-liveness bound: a line continuously locked for more sim
        #: ticks than this (~1 ms at the default 3 ticks/ns) is stuck
        self.max_locked_ticks = max_locked_ticks
        self.seed = seed
        self.machine = None
        #: mask/transition policy: the machine's coherence-protocol plug-in
        #: (set at attach; per-protocol invariants live on the plug-in)
        self._policy = None
        #: per-invariant count of checks performed (not violations)
        self.checks: Dict[str, int] = {}
        # last observed (state, locked) per (kind, station, line)
        self._last: Dict[Tuple[str, int, int], Tuple[LineState, bool]] = {}
        # tick of the first observation of each continuously-locked line
        self._locked_since: Dict[Tuple[str, int, int], int] = {}
        # cpu ids with a bus invalidation delivered after the mask cleared
        self._pending_inval: Dict[Tuple[int, int], Set[int]] = {}
        # in-flight ordered-multicast invalidations per (station, line)
        self._inval_inflight: Dict[Tuple[int, int], int] = {}
        # outstanding miss per cpu: cpu_id -> (line, issue_tick)
        self._cpu_out: Dict[int, Tuple[int, int]] = {}
        self._last_complete: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, machine) -> "CoherenceChecker":
        """Install the checker on every hook point of ``machine``."""
        self.machine = machine
        self._policy = getattr(machine, "protocol", None) or _default_policy()
        machine.verifier = self
        for cpu in machine.cpus:
            cpu.verifier = self
        for st in machine.stations:
            st.memory.verifier = self
            st.nc.verifier = self
            st.ring_interface.verifier = self
        return self

    def detach(self) -> None:
        machine = self.machine
        if machine is None:
            return
        machine.verifier = None
        for cpu in machine.cpus:
            cpu.verifier = None
        for st in machine.stations:
            st.memory.verifier = None
            st.nc.verifier = None
            st.ring_interface.verifier = None
        self.machine = None

    def set_seed(self, seed: Optional[int]) -> None:
        """Record the replay seed violations should carry."""
        self.seed = seed

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _count(self, invariant: str) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + 1

    def _violate(
        self,
        invariant: str,
        message: str,
        *,
        la: Optional[int] = None,
        where: str = "?",
        pkt: Optional[Packet] = None,
    ) -> None:
        engine = self.machine.engine if self.machine is not None else None
        raise InvariantViolation(
            invariant,
            message,
            line_addr=la,
            where=where,
            now=engine.now if engine is not None else 0,
            events_run=engine.events_run if engine is not None else 0,
            trace_id=pkt.pid if pkt is not None else None,
            seed=self.seed,
        )

    # ------------------------------------------------------------------
    # shared transition / lock bookkeeping
    # ------------------------------------------------------------------
    def _observe(
        self,
        kind: str,
        station_id: int,
        la: int,
        state: Optional[LineState],
        locked: bool,
        pkt: Optional[Packet],
    ) -> None:
        key = (kind, station_id, la)
        where = f"{kind}@S{station_id}"
        if state is None:
            # line evicted / never present: epoch reset
            self._last.pop(key, None)
            self._locked_since.pop(key, None)
            return
        prev = self._last.get(key)
        self._count("legal-transition")
        if prev is not None:
            pstate, plocked = prev
            if plocked and locked and pstate is not state:
                self._violate(
                    "legal-transition",
                    f"locked line changed state {pstate.value}->{state.value}",
                    la=la, where=where, pkt=pkt,
                )
            policy = self._policy
            illegal = policy.illegal_mem if kind == "mem" else policy.illegal_nc
            if not plocked and (pstate, state) in illegal:
                self._violate(
                    "legal-transition",
                    f"illegal transition {pstate.value}->{state.value}",
                    la=la, where=where, pkt=pkt,
                )
        self._last[key] = (state, locked)
        now = self.machine.engine.now
        self._count("locked-liveness")
        if locked:
            since = self._locked_since.setdefault(key, now)
            if now - since > self.max_locked_ticks:
                self._violate(
                    "locked-liveness",
                    f"line locked for {now - since} ticks "
                    f"(bound {self.max_locked_ticks})",
                    la=la, where=where, pkt=pkt,
                )
        else:
            self._locked_since.pop(key, None)

    # ------------------------------------------------------------------
    # memory module hooks
    # ------------------------------------------------------------------
    def mem_event(self, mem, pkt: Packet) -> None:
        """After the memory module dispatched ``pkt``."""
        la = mem.config.line_addr(pkt.addr)
        if pkt.mtype is MsgType.INVALIDATE:
            self._inval_delivered(mem.station_id, la)
        entry = mem.directory.peek(la)
        if entry is None:
            return
        self._observe("mem", mem.station_id, la, entry.state, entry.locked, pkt)
        if not entry.locked:
            self._check_mem_masks(mem, la, entry, pkt)

    def mem_settled(self, mem, addr: int) -> None:
        """After an out-of-dispatch directory mutation (bus intervention
        answers land via :meth:`MemoryModule._local_intervention_done`)."""
        la = mem.config.line_addr(addr)
        entry = mem.directory.peek(la)
        if entry is None:
            return
        self._observe("mem", mem.station_id, la, entry.state, entry.locked, None)
        if not entry.locked:
            self._check_mem_masks(mem, la, entry, None)

    def _check_mem_masks(self, mem, la: int, entry, pkt: Optional[Packet]) -> None:
        # what a valid mask *is* depends on the protocol (hierarchical
        # routing masks vs a flat full map): the plug-in owns the rule
        self._policy.check_mem_masks(self, mem, la, entry, pkt)

    def note_invalidate_sent(self, mem, inv: Packet) -> None:
        """Home memory launched an ordered-multicast invalidation."""
        la = mem.config.line_addr(inv.addr)
        for s in mem.codec.stations(inv.dest_mask):
            key = (s, la)
            self._inval_inflight[key] = self._inval_inflight.get(key, 0) + 1

    def _inval_delivered(self, station_id: int, la: int) -> None:
        key = (station_id, la)
        n = self._inval_inflight.get(key)
        if n is not None:
            if n <= 1:
                del self._inval_inflight[key]
            else:
                self._inval_inflight[key] = n - 1

    # ------------------------------------------------------------------
    # network cache hooks
    # ------------------------------------------------------------------
    def nc_event(self, nc, pkt: Packet) -> None:
        """After the network cache dispatched ``pkt``."""
        la = nc.config.line_addr(pkt.addr)
        if pkt.mtype is MsgType.INVALIDATE:
            self._inval_delivered(nc.station_id, la)
        if not nc.enabled:
            return
        line = nc.array.probe(la)
        if line is None:
            self._observe("nc", nc.station_id, la, None, False, pkt)
            return
        self._observe("nc", nc.station_id, la, line.state, line.locked, pkt)
        if not line.locked:
            self._check_nc_masks(nc, la, line, pkt)

    def nc_settled(self, nc, addr: int) -> None:
        la = nc.config.line_addr(addr)
        line = nc.array.probe(la)
        if line is None:
            self._observe("nc", nc.station_id, la, None, False, None)
            return
        self._observe("nc", nc.station_id, la, line.state, line.locked, None)
        if not line.locked:
            self._check_nc_masks(nc, la, line, None)

    def _check_nc_masks(self, nc, la: int, line, pkt: Optional[Packet]) -> None:
        self._policy.check_nc_masks(self, nc, la, line, pkt)

    # ------------------------------------------------------------------
    # local bus invalidation shadow
    # ------------------------------------------------------------------
    def note_local_inval(self, station_id: int, addr: int, cpu_ids) -> None:
        """A module cleared mask bits and put an invalidation on the bus;
        until each victim processes it, its copy is legitimately uncovered."""
        la = self.machine.config.line_addr(addr)
        key = (station_id, la)
        pend = self._pending_inval.get(key)
        if pend is None:
            pend = self._pending_inval[key] = set()
        pend.update(cpu_ids)

    def cpu_invalidated(self, cpu, la: int) -> None:
        """A bus invalidation reached ``cpu`` (whatever its outcome)."""
        key = (cpu.station.station_id, la)
        pend = self._pending_inval.get(key)
        if pend is not None:
            pend.discard(cpu.cpu_id)
            if not pend:
                del self._pending_inval[key]

    # ------------------------------------------------------------------
    # processor hooks (sc-blocking + single-writer)
    # ------------------------------------------------------------------
    def cpu_issue(self, cpu, la: int) -> None:
        self._count("sc-blocking")
        now = self.machine.engine.now
        out = self._cpu_out.get(cpu.cpu_id)
        if out is not None:
            self._violate(
                "sc-blocking",
                f"P{cpu.cpu_id} issued a miss for {la:#x} while "
                f"{out[0]:#x} (issued at {out[1]}) is still outstanding",
                la=la, where=f"P{cpu.cpu_id}",
            )
        self._cpu_out[cpu.cpu_id] = (la, now)

    def cpu_local_complete(self, cpu) -> None:
        self._cpu_out.pop(cpu.cpu_id, None)

    def cpu_fill(self, cpu, la: int, exclusive: bool, consumed: bool) -> None:
        now = self.machine.engine.now
        if consumed:
            self._count("sc-blocking")
            self._cpu_out.pop(cpu.cpu_id, None)
            last = self._last_complete.get(cpu.cpu_id)
            if last is not None and now < last:
                self._violate(
                    "sc-blocking",
                    f"P{cpu.cpu_id} completed at {now} before its previous "
                    f"completion at {last}",
                    la=la, where=f"P{cpu.cpu_id}",
                )
            self._last_complete[cpu.cpu_id] = now
        self._count("single-writer")
        station = cpu.station
        if exclusive:
            for other in self.machine.cpus:
                if other is cpu:
                    continue
                line = other.l2.lookup(la)
                if line is None:
                    continue
                if line.state is CacheState.DIRTY:
                    self._violate(
                        "single-writer",
                        f"P{cpu.cpu_id} installed DIRTY while P{other.cpu_id} "
                        f"also holds the line DIRTY",
                        la=la, where=f"P{cpu.cpu_id}",
                    )
                if other.station is station and line.state.readable:
                    self._count("writer-reader-exclusion")
                    self._violate(
                        "writer-reader-exclusion",
                        f"P{cpu.cpu_id} installed DIRTY while same-station "
                        f"P{other.cpu_id} holds {line.state.value}",
                        la=la, where=f"P{cpu.cpu_id}",
                    )
            if station.nc.enabled:
                nline = station.nc.array.probe(la)
                if nline is not None and not nline.locked \
                        and nline.state in self._policy.valid_nc_states:
                    self._violate(
                        "single-writer",
                        f"P{cpu.cpu_id} installed DIRTY while its NC still "
                        f"claims {nline.state.value}",
                        la=la, where=f"P{cpu.cpu_id}",
                    )
        else:
            self._count("writer-reader-exclusion")
            for other in station.cpus:
                if other is cpu:
                    continue
                line = other.l2.lookup(la)
                if line is not None and line.state is CacheState.DIRTY:
                    self._violate(
                        "writer-reader-exclusion",
                        f"P{cpu.cpu_id} installed a readable copy while "
                        f"same-station P{other.cpu_id} holds the line DIRTY",
                        la=la, where=f"P{cpu.cpu_id}",
                    )

    # ------------------------------------------------------------------
    # ring interface hooks (deadlock-avoidance rules)
    # ------------------------------------------------------------------
    def ri_credit(self, ri) -> None:
        self._count("nonsink-priority")
        credits = ri._nonsink_credits
        if credits < 0 or credits > ri.nonsink_limit:
            self._violate(
                "nonsink-priority",
                f"S{ri.station_id} nonsinkable credits {credits} outside "
                f"[0, {ri.nonsink_limit}]",
                where=f"ri@S{ri.station_id}",
            )

    def ri_drain(self, ri, packet: Packet, kind: str) -> None:
        self._count("nonsink-priority")
        if kind == "nonsink" and not ri.sink_q.empty:
            self._violate(
                "nonsink-priority",
                f"S{ri.station_id} drained a nonsinkable message while "
                f"{len(ri.sink_q)} sinkable messages were queued",
                where=f"ri@S{ri.station_id}", pkt=packet,
            )

    # ------------------------------------------------------------------
    # end-of-run checks
    # ------------------------------------------------------------------
    def assert_quiescent(self) -> None:
        """After a drained run: no line anywhere may still be locked."""
        machine = self.machine
        if machine is None:
            return
        self._count("locked-liveness")
        for st in machine.stations:
            for la, entry in st.memory.directory.lines():
                if entry.locked:
                    self._violate(
                        "locked-liveness",
                        "line still locked after the run drained",
                        la=la, where=f"mem@S{st.station_id}",
                    )
            for line in st.nc.array.lines():
                if line.locked:
                    self._violate(
                        "locked-liveness",
                        "NC line still locked after the run drained",
                        la=line.addr, where=f"nc@S{st.station_id}",
                    )
