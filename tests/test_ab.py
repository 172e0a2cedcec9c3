"""`scripts/ab.py` runs end to end: A/A on one acceptance unit, and a tree
whose reports differ stops it with exit 1."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "scripts" / "ab.py"


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
