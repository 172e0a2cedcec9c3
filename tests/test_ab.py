"""`scripts/ab.py` runs end to end: A/A on one acceptance unit, and a tree
whose reports differ stops it with exit 1. Its `sizes` shape reports each
n apart, beside its own A/A."""

import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "scripts" / "ab.py"

sys.path.insert(0, str(AB.parent))

import ab as ab_script  # noqa: E402  (scripts/ab.py)


def ab(other: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(AB), str(other), "--shape", "acceptance", "--rounds", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_ab_against_this_tree_prints_every_timer_and_pair():
    done = ab(ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    timers = ("run_scenario", "check_all")
    pairs = ("other/this", "this/this")
    assert [line.split()[:3] for line in lines] == [
        ["acceptance", timer, pair] for timer in timers for pair in pairs
    ]
    assert all(line.rsplit("wins ", 1)[1].endswith("/6") for line in lines)  # 6 scenarios


def test_ab_names_the_first_difference(tmp_path):
    shutil.copytree(ROOT / "src" / "ssurb", tmp_path / "src" / "ssurb")
    checker = tmp_path / "src" / "ssurb" / "checker.py"
    checker.write_text(checker.read_text().replace('"integrity", "PASS"', '"integrity", "FAIL"'))
    done = ab(tmp_path)
    assert done.returncode == 1
    assert done.stdout.splitlines() == ["acceptance scenario 0: other reports differ from this tree's"]


def test_sizes_reports_each_n_beside_its_own_a_a():
    cfgs = [SimpleNamespace(n=n) for n in (16, 32, 64)]
    rounds = 3
    # other is twice as slow as this at n = 64 only; this2 matches this
    this = [float(k + 1) for k in range(rounds * len(cfgs))]
    other = [t * (2 if k % 3 == 2 else 1) for k, t in enumerate(this)]
    times = {}
    for timer in ab_script.TIMERS:
        times["this", timer], times["this2", timer], times["other", timer] = this, this, other
    lines = ab_script.report("sizes", cfgs, times)
    assert [line.split()[:3] for line in lines] == [
        [f"sizes/n{n}", timer, pair]
        for n in (16, 32, 64)
        for timer in ab_script.TIMERS
        for pair in ("other/this", "this/this")
    ]
    for line in lines:
        size, pair = line.split()[0], line.split()[2]
        expected = "2.000" if (size, pair) == ("sizes/n64", "other/this") else "1.000"
        assert line.split("sum ")[1].startswith(expected + " ")
        assert line.endswith(f"/{rounds}")  # one pair per round at each n


def test_other_shapes_pool_their_scenarios():
    cfgs = [SimpleNamespace(n=3)] * 2
    times = {(side, timer): [1.0, 2.0] for side in ab_script.TREES for timer in ab_script.TIMERS}
    lines = ab_script.report("acceptance", cfgs, times)
    assert [line.split()[:3] for line in lines] == [
        ["acceptance", timer, pair] for timer in ab_script.TIMERS for pair in ("other/this", "this/this")
    ]
    assert all(line.endswith("wins 0/2") for line in lines)
