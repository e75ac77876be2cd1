"""Benchmark self-test: a tiny traced point under both backends.

    python3 perfbench/selftest.py

Runs ``HotSpot(words=16, ops=40)`` at P=16 on the prototype, traced, once
under ``interp`` and once under ``elab``, and checks that

* the point matches its golden digest and reference count,
* the requested backend really ran,
* every profiler site maps to a layer and every layer saw events,
* the layer ``self_s`` values plus ``sim.self_s`` add up to the
  ``Machine.run`` span,
* an unknown site is refused.

``run.py --trace 1`` runs it before any traced sample; it exits non-zero
on the first failed check.
"""

from __future__ import annotations

import math
import sys

import layers
import sample


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"self-test failed: {what}")


def main() -> int:
    sample.check_pinned_env()
    for backend in ("interp", "elab"):
        s = sample.take("selftest", traced=True, backend=backend)
        (point,) = s["points"]
        check(point["error"] is None, f"{backend}: {point['error']}")
        check(point["backend"] == backend, f"{backend}: ran {point['backend']}")
        split = s["layers"]  # computing it already mapped every site
        for layer in layers.LAYERS:
            check(split[layer]["events"] > 0, f"{backend}: no {layer} events")
        total = sum(row["self_s"] for row in split.values())
        check(
            math.isclose(total, s["run_s"], rel_tol=1e-9, abs_tol=1e-9),
            f"{backend}: layers sum to {total} s, Machine.run took {s['run_s']} s",
        )
        check(split["sim"]["self_s"] >= 0.0, f"{backend}: negative sim.self_s")
        events = sum(split[layer]["events"] for layer in layers.LAYERS)
        ran = split["sim"]["events"]
        check(events == ran, f"{backend}: sites saw {events} events, engine ran {ran}")
    try:
        layers.layer_of("NoSuchComponent._handler")
    except layers.UnmappedSiteError:
        pass
    else:
        check(False, "an unknown site was mapped")
    print("perfbench self-test: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
