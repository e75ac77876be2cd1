"""Regenerate ``perfbench/golden.json``: the canonical-surface digest and
simulated reference count of every point the benchmark runs.

    python3 perfbench/make_golden.py

Each workload runs twice, in two fresh sample processes under the
benchmark's pinned environment; the two must agree point for point, and
the agreed values are stored.  No workload input depends on the
benchmark's ``--seed``, so these digests cover every seed.  Regenerate
only when a change is meant to alter simulated results: the digests are
what every timed run is checked against.
"""

from __future__ import annotations

import json
import shutil
import time

import run


def main() -> int:
    golden = {}
    work = run.WORK / "golden"
    runner = run.Runner(work, deadline=time.monotonic() + 3600.0)
    try:
        for workload in tuple(run.POINTS) + ("selftest",):
            seen = []
            for _ in range(2):
                sample = runner.sample(workload, traced=False)
                points = {}
                for point in sample["points"]:
                    if point["digest"] is None or point["refs"] is None:
                        raise SystemExit(f"{workload} {point['key']}: {point['error']}")
                    points[point["key"]] = {
                        "digest": point["digest"],
                        "refs": point["refs"],
                    }
                seen.append(points)
                print(f"{workload}: {len(points)} points, "
                      f"{sample['wall_s']:.2f}s", flush=True)
            if any(points != seen[0] for points in seen):
                raise SystemExit(f"{workload}: two runs disagree")
            golden[workload] = seen[0]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.HERE / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
