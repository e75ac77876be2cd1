"""Profiler site -> layer map.

``repro.obs.profile.Profiler`` keys every event by the ``__qualname__`` of
the handler it dispatched to: ``Bus._complete`` and ``NumachineNC._service``
under the interpreted backend, generated names such as ``_bus_complete``,
``ElabNC._service`` or ``_ElabSRI._out_done`` under the elab backend.  A
site maps by its first dotted component (a class or a module-level
function), so a handler renamed inside a known class keeps its layer,
while a new class or a new generated free function is an unknown site and
fails the traced run instead of drifting into ``sim.self_s``.

A site's time is inclusive: a bus completion that delivers a packet to a
memory module counts as ``system.bus``.  ``sim`` is what no site covers:
the engine loop, the scheduler and the profiler's own per-event cost.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Tuple

LAYERS = (
    "cpu",
    "system.bus",
    "cache.nc",
    "memory",
    "interconnect.ring",
    "interconnect.interfaces",
)

#: first qualname component -> layer
SITE_LAYER: Dict[str, str] = {
    # processors (workload programs run inside their events)
    "Processor": "cpu",
    "ElabCPU": "cpu",
    "_cpu_send_request": "cpu",
    # station bus, the ordered ports onto it, and station dispatch
    "Bus": "system.bus",
    "ElabBus": "system.bus",
    "OrderedPort": "system.bus",
    "ElabPort": "system.bus",
    "_bus_complete": "system.bus",
    "_port_issue": "system.bus",
    "Station": "system.bus",
    "ElabStation": "system.bus",
    # network cache, including the protocol plug-in's NC handlers
    "NetworkCache": "cache.nc",
    "NumachineNC": "cache.nc",
    "ElabNC": "cache.nc",
    "_nc_service_done": "cache.nc",
    # memory module, including the protocol plug-in's memory handlers
    "MemoryModule": "memory",
    "NumachineMemory": "memory",
    "ElabMem": "memory",
    "_mem_service_done": "memory",
    # slotted rings
    "Ring": "interconnect.ring",
    "_ring_arrive": "interconnect.ring",
    # station and inter-ring interfaces
    "StationRingInterface": "interconnect.interfaces",
    "InterRingInterface": "interconnect.interfaces",
    "_ElabSRI": "interconnect.interfaces",
    "_ElabIRI": "interconnect.interfaces",
}

#: per-instance generated classes: ElabRingL<level>, ElabSRI<station>,
#: ElabIRI<index>
_NUMBERED = (
    (re.compile(r"ElabRingL\d+"), "interconnect.ring"),
    (re.compile(r"ElabSRI\d+"), "interconnect.interfaces"),
    (re.compile(r"ElabIRI\d+"), "interconnect.interfaces"),
)


class UnmappedSiteError(RuntimeError):
    """A profiled handler no layer claims."""


def layer_of(site: str) -> str:
    head = site.split(".", 1)[0]
    layer = SITE_LAYER.get(head)
    if layer is not None:
        return layer
    for pattern, layer in _NUMBERED:
        if pattern.fullmatch(head):
            return layer
    raise UnmappedSiteError(
        f"profiler site {site!r} maps to no layer; add its class or "
        f"function to perfbench/layers.py"
    )


def attribute(sites: Iterable[Tuple[str, int, float]]) -> Dict[str, Dict[str, float]]:
    """Sum ``(site, events, wall_s)`` rows into ``{layer: {events, self_s}}``
    over every layer in :data:`LAYERS`; raises on an unmapped site."""
    out = {layer: {"events": 0, "self_s": 0.0} for layer in LAYERS}
    for site, events, wall_s in sites:
        row = out[layer_of(site)]
        row["events"] += events
        row["self_s"] += wall_s
    return out
