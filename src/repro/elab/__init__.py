"""Build-time elaboration: compile a MachineConfig into a specialized core.

The machine's behaviour is fully determined at build time by the config,
the routing-mask layout and the protocol transition tables, so instead of
interpreting it event by event through generic dispatch, this package
*elaborates* it once:

* :mod:`repro.elab.ir` extracts everything build-time-constant from a
  wired :class:`~repro.system.machine.Machine` into a small IR;
* :mod:`repro.elab.codegen` emits a specialized Python module from the IR
  (literal constants, fused pump loops, dense coherence dispatch, no hook
  checks);
* :mod:`repro.elab.store` caches generated modules on disk keyed by config
  fingerprint (under ``.numachine_cache/elab/``);
* :mod:`repro.elab.backend` selects and applies a backend per run
  (``NUMACHINE_BACKEND`` = ``auto`` | ``interp`` | ``elab``), falling back
  to the interpreter whenever any hook (monitor, verifier, fault
  injector, observability) is attached.
"""

from .backend import BACKENDS, backend_name, hooks_active, sync
from .ir import MachineIR, config_elab_fingerprint

__all__ = [
    "BACKENDS",
    "MachineIR",
    "backend_name",
    "config_elab_fingerprint",
    "hooks_active",
    "sync",
]
