"""Statistics of the A/B timing driver (scripts/ab.py), on synthetic series:
no checkout, no subprocess."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import ab  # noqa: E402

BASE = [3.01, 2.95, 3.10, 2.98, 3.04, 3.07]
# a clean 1.3x slowdown with a little per-round noise of its own
SLOW = [x * 1.3 * f for x, f in zip(BASE, [1.01, 0.99, 1.0, 1.02, 0.98, 1.0])]


def test_abba_order_alternates_which_arm_runs_first():
    assert ab.abba_order(4) == [(0, 1), (1, 0), (0, 1), (1, 0)]
    assert ab.abba_order(1) == [(0, 1)]


def test_bootstrap_is_seeded_and_resolves_a_clean_speedup():
    ci = ab.bootstrap_ratio_ci(BASE, SLOW, seed=7)
    assert ci == ab.bootstrap_ratio_ci(BASE, SLOW, seed=7)
    assert 1.2 < ci[0] <= 1.3 <= ci[1] < 1.4


@pytest.mark.parametrize("other", [BASE, BASE[::-1]], ids=["same", "reordered"])
def test_bootstrap_interval_contains_one_for_identical_arms(other):
    lo, hi = ab.bootstrap_ratio_ci(BASE, other, seed=0)
    assert lo <= 1.0 <= hi


def test_pair_wins_follow_the_metric_direction():
    assert ab.pair_wins(SLOW, BASE, "lower") == 6
    assert ab.pair_wins(SLOW, BASE, "higher") == 0
    assert ab.pair_wins([1, 2, 3], [2, 2, 1], "lower") == 1


def _wall(a, b):
    def samples(walls):
        return [{"wall_s": w, "refs": 9, "setup_s": 0.1, "peak_rss_mb": 30.0}
                for w in walls]
    return ab.compare(samples(a), samples(b))["wall_s"]


def test_min_speedup_verdict():
    fast = _wall(SLOW, BASE)  # B is 1.3x faster than A
    assert fast["resolved"] and fast["b_wins"] == 6
    assert ab.gate(fast, failed=0, min_speedup=1.1) == []
    assert ab.gate(fast, failed=0, min_speedup=1.5)  # too slow a speedup
    assert ab.gate(fast, failed=1, min_speedup=1.1)  # a failed point
    tie = _wall(BASE, BASE[::-1])
    assert not tie["resolved"]
    assert "wall_s interval touches 1.0" in ab.gate(tie, failed=0, min_speedup=0.5)


def test_parse_arm():
    arm = ab.parse_arm("interp=HEAD~1,NUMACHINE_BACKEND=interp")
    assert (arm.label, arm.rev, arm.overrides) == (
        "interp", "HEAD~1", {"NUMACHINE_BACKEND": "interp"})
    for bad in ("HEAD", "a=", "a=HEAD,PATH=/tmp", "a=HEAD,NUMACHINE_X"):
        with pytest.raises(ValueError):
            ab.parse_arm(bad)
