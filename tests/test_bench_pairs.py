"""``tools/bench_pairs.py`` summarises pairs of runs."""
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(wall):
    return {"exit": 0, "metrics": {"wall_s": wall}} if wall else {"exit": 1}


def test_ratios_and_wins_skip_pairs_with_a_failed_run():
    tool = runpy.run_path(str(ROOT / "tools" / "bench_pairs.py"))
    parent = [_run(w) for w in (2.0, 4.0, None, 1.0)]
    change = [_run(w) for w in (1.0, 4.0, 9.0, 1.5)]
    assert tool["change_wins"](parent, change) == {"wall_s": 1}
    assert tool["change_ratio"](parent, change) == {
        "wall_s": {"median": 1.0, "q1": 0.75, "q3": 1.25, "ratios": [0.5, 1.0, 1.5]}}
