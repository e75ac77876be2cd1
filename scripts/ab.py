"""Interleaved A/B timing of two simulator checkouts on one perfbench workload.

    python scripts/ab.py --workload W --rounds N A=REV[,VAR=VAL...] B=REV[,VAR=VAL...]

An arm is a git revision (checked out into a temporary detached worktree)
or ``.`` for this checkout, plus ``NUMACHINE_*`` overrides.  Each round runs
one fresh ``perfbench/sample.py`` process per arm, in ABBA order.  Per
end-to-end metric it reports medians, quartile distances, the B/A ratio with
a bootstrap 95% interval (``unresolved`` when it contains 1.0) and B's wins;
the last line is JSON, also appended to ``BENCH_history.jsonl``.
``--min-speedup R`` exits 1 unless A/B ``wall_s`` is at least R with an
interval clear of 1.0 and no point failed.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import run as perfbench_run  # noqa: E402
from repro.perf import ledger  # noqa: E402

#: one sample, without sample.main's check that rejects the overrides
DRIVER = """import json, resource, sys
sys.path.insert(0, "perfbench")
import sample
s = sample.take(sys.argv[1], traced=False)
s["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps(s))
"""

#: seconds one sample may take
TIMEOUT_S = 600


@dataclass
class Arm:
    label: str
    rev: str
    overrides: dict = field(default_factory=dict)
    tree: Path = ROOT
    sha: str = ""


def parse_arm(spec: str) -> Arm:
    label, _, rest = spec.partition("=")
    rev, *pairs = rest.split(",")
    if not (label and rev):
        raise ValueError(f"arm {spec!r} is not LABEL=REV[,VAR=VAL...]")
    overrides = {}
    for pair in pairs:
        var, eq, val = pair.partition("=")
        if not (eq and var.startswith("NUMACHINE_")):
            raise ValueError(f"arm {spec!r}: {pair!r} is not NUMACHINE_VAR=VAL")
        overrides[var] = val
    return Arm(label, rev, overrides)


def die(message: str):
    print(f"ab: {message}", file=sys.stderr)
    raise SystemExit(2)


def abba_order(rounds: int) -> list:
    """Per round, the order the two arms (0 = A, 1 = B) run in."""
    return [(0, 1) if r % 2 == 0 else (1, 0) for r in range(rounds)]


def quartile_distance(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def bootstrap_ratio_ci(a, b, seed: int = 0, resamples: int = 2000) -> tuple:
    """95% interval of median(b) / median(a), resampling the paired rounds."""
    rng = random.Random(seed)
    ratios = []
    for _ in range(resamples):
        idx = [rng.randrange(len(a)) for _ in a]
        ratios.append(statistics.median(b[i] for i in idx)
                      / statistics.median(a[i] for i in idx))
    ratios.sort()
    return ratios[int(0.025 * resamples)], ratios[int(0.975 * resamples) - 1]


def pair_wins(a, b, better: str) -> int:
    """Rounds in which B beat A."""
    return sum((y < x) if better == "lower" else (y > x) for x, y in zip(a, b))


def compare(a_samples, b_samples) -> dict:
    """Per ``BENCHMARK.json`` end-to-end metric: both medians and quartile
    distances, the B/A ratio, its interval and B's wins."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sa = perfbench_run.end_to_end(a_samples)
    sb = perfbench_run.end_to_end(b_samples)
    out = {}
    for metric in spec["end_to_end"]:
        a, b = sa[metric["name"]], sb[metric["name"]]
        lo, hi = bootstrap_ratio_ci(a, b)
        out[metric["name"]] = {
            "a": {"median": statistics.median(a), "iqd": quartile_distance(a)},
            "b": {"median": statistics.median(b), "iqd": quartile_distance(b)},
            "ratio": statistics.median(b) / statistics.median(a),
            "ci": [lo, hi],
            "b_wins": pair_wins(a, b, metric["better"]),
            "resolved": not lo <= 1.0 <= hi,
        }
    return out


def gate(wall: dict, failed: int, min_speedup: float) -> list:
    """Why ``--min-speedup`` fails on ``compare()``'s ``wall_s`` entry and
    both arms' failed points; empty when it passes."""
    speedup = 1.0 / wall["ratio"]
    return [reason for bad, reason in (
        (speedup < min_speedup, f"wall_s speedup {speedup:.3f} < {min_speedup}"),
        (not wall["resolved"], "wall_s interval touches 1.0"),
        (failed, f"{failed} failed points"),
    ) if bad]


def git(*args) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, text=True, capture_output=True)
    if proc.returncode != 0:
        die(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def check_out(arms, tmp: Path, added: list) -> None:
    """One detached worktree per distinct revision; ``.`` is this tree."""
    for arm in arms:
        if arm.rev == ".":
            arm.sha = git("rev-parse", "HEAD") + "+worktree"
            continue
        arm.sha = git("rev-parse", "--verify", arm.rev + "^{commit}")
        arm.tree = tmp / arm.sha[:12]
        if arm.tree not in added:
            git("worktree", "add", "--detach", str(arm.tree), arm.sha)
            added.append(arm.tree)


def take(arm: Arm, workload: str, tmp: Path) -> dict:
    cache = Path(tempfile.mkdtemp(prefix="cache", dir=tmp))
    env = {**perfbench_run.pinned_env(cache), **arm.overrides}
    try:
        proc = subprocess.run([sys.executable, "-c", DRIVER, workload],
                              cwd=arm.tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{arm.label} sample ran out of time ({TIMEOUT_S} s)")
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0:
        die(f"{arm.label} sample exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(perfbench_run.POINTS))
    ap.add_argument("--rounds", type=int, default=6)
    ap.add_argument("--min-speedup", type=float)
    ap.add_argument("arms", nargs=2, type=parse_arm, metavar="LABEL=REV[,VAR=VAL...]")
    args = ap.parse_args(argv)
    arms = args.arms
    if arms[0].label == arms[1].label or args.rounds < 2:
        ap.error("two distinct arm labels and at least two rounds are needed")

    samples, added = ([], []), []
    # a terminated run still removes its worktrees (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = Path(tempfile.mkdtemp(prefix="numachine-ab-"))
    try:
        check_out(arms, tmp, added)
        for r, order in enumerate(abba_order(args.rounds)):
            for i in order:
                samples[i].append(take(arms[i], args.workload, tmp))
            print(f"# round {r + 1}/{args.rounds}: wall_s {samples[0][-1]['wall_s']:.3f}"
                  f" vs {samples[1][-1]['wall_s']:.3f}", flush=True)
    finally:
        for tree in added:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                           cwd=ROOT, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)

    result = {"workload": args.workload, "rounds": args.rounds, "arms": {
        arm.label: {"rev": arm.rev, "sha": arm.sha, "overrides": arm.overrides,
                    "failed": sum(map(perfbench_run.failed_points, s)),
                    "attempted": perfbench_run.POINTS[args.workload] * len(s)}
        for arm, s in zip(arms, samples)
    }, "metrics": compare(*samples)}
    a, b = arms
    print(f"{args.workload}: {b.label} / {a.label}, {args.rounds} ABBA rounds")
    for name, m in result["metrics"].items():
        print(f"  {name:<15} {a.label} {m['a']['median']:.6g} "
              f"(iqd {m['a']['iqd']:.3g})  {b.label} {m['b']['median']:.6g} "
              f"(iqd {m['b']['iqd']:.3g})  ratio {m['ratio']:.3f} "
              f"[{m['ci'][0]:.3f}, {m['ci'][1]:.3f}]  wins {m['b_wins']}/"
              f"{args.rounds}{'' if m['resolved'] else '  unresolved'}")
    print("  failed points   " + "  ".join(
        f"{label} {res['failed']}/{res['attempted']}"
        for label, res in result["arms"].items()))
    if args.min_speedup is not None:
        failed = sum(res["failed"] for res in result["arms"].values())
        reasons = gate(result["metrics"]["wall_s"], failed, args.min_speedup)
        result["gate"] = {"min_speedup": args.min_speedup, "failures": reasons}
        for reason in reasons:
            print(f"ab: gate failed: {reason}")
    ledger.append_entry("ab", result)
    print(json.dumps(result, sort_keys=True))
    return 1 if result.get("gate", {}).get("failures") else 0


if __name__ == "__main__":
    raise SystemExit(main())
