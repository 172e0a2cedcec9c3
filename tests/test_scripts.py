"""The scripts under `scripts/` start, `complexity.py` writes its tables
in the shape the old per-experiment scripts wrote them, and `sample.py`
charges a run's samples to `ssurb` functions, lines and layers."""

import json
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

sys.path.insert(0, str(ROOT / "scripts"))

import complexity  # noqa: E402  (scripts/complexity.py)
import digest_battery  # noqa: E402  (scripts/digest_battery.py)
import sample  # noqa: E402  (scripts/sample.py)


def script(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_every_script_starts(path):
    done = script(path, "--help")
    assert done.returncode == 0, done.stderr


def test_the_golden_battery_holds_a_line_per_scenario_and_the_first_runs_reproduce():
    golden = Path(digest_battery.GOLDEN).read_text().splitlines()
    names = [name for name, _ in digest_battery.scenarios()]
    assert [json.loads(line).get("scenario") for line in golden] == names + [None]  # the sweep's last
    # the whole battery is CI's step; the six smallest runs are a fast tripwire here
    lines = digest_battery.battery_lines()
    first = [next(lines) for _ in range(6)]
    lines.close()  # removes its temporary directory
    assert first == golden[:6]


def test_stabilization_writes_the_window_table(tmp_path):
    out = tmp_path / "stab.json"
    done = script(ROOT / "scripts" / "complexity.py", "stabilization", "--windows", "1,2", "--seeds", "1", "--out", out)
    assert done.returncode == 0, done.stderr
    table = json.loads(out.read_text())
    assert list(table) == ["1", "2"]
    for row in table.values():
        assert set(row) == {"median_cycles", "max_cycles", "runs", "unstabilized"}
    assert done.stdout.splitlines()[-1] == f"wrote {out}"


def test_cost_writes_the_size_table(tmp_path):
    out = tmp_path / "cost.json"
    done = script(ROOT / "scripts" / "complexity.py", "cost", "--sizes", "2,3", "--seeds", "1", "--out", out)
    assert done.returncode == 0, done.stderr
    table = json.loads(out.read_text())
    assert list(table) == ["2", "3"]
    for row in table.values():
        assert set(row) == {"max_msgs_per_broadcast", "ratio_over_n2", "max_latency_cycles"}
    assert done.stdout.splitlines()[-1] == f"wrote {out}"


class Report:
    def __init__(self, cycles):
        self.verdict = "PASS" if cycles is not None else "FAIL"
        self.measured = {"cycles": cycles} if cycles is not None else None


def runs(b, cycles):
    return [{"config": {"buffer_unit_size": b}, "reports": {"stabilization-time": Report(c)}} for c in cycles]


def test_a_window_where_no_run_stabilizes_fails_the_trend():
    table = complexity.stabilization_table(
        runs(1, [3, 3]) + runs(2, [3, 4, 5]) + runs(4, [None, None]) + runs(8, [3, None])
    )
    assert table == {
        1: {"median_cycles": 3.0, "max_cycles": 3, "runs": 2, "unstabilized": 0},
        2: {"median_cycles": 4, "max_cycles": 5, "runs": 3, "unstabilized": 0},
        4: {"median_cycles": None, "max_cycles": None, "runs": 0, "unstabilized": 2},
        8: {"median_cycles": 3, "max_cycles": 3, "runs": 1, "unstabilized": 1},
    }
    slope, intercept, checks = complexity.trend(table)
    assert (slope, intercept) == (1.0, 2.0)
    assert checks == [(4, None, 12.0, False), (8, 3, 20.0, True)]


def test_a_fitted_window_without_a_median_fails_every_check():
    table = {
        1: {"median_cycles": None},
        2: {"median_cycles": 3},
        4: {"median_cycles": 3},
    }
    assert complexity.trend(table) == (None, None, [(4, 3, None, False)])


def test_the_trend_fits_the_first_two_windows_at_their_sizes():
    """Through (2, 3) and (4, 5) the line is B + 1, so B=8 is bounded by 18;
    a fit that took the windows for B=1 and B=2 would allow 34."""
    table = {b: {"median_cycles": m} for b, m in {2: 3, 4: 5, 8: 20}.items()}
    assert complexity.trend(table) == (1.0, 1.0, [(8, 20, 18.0, False)])


def test_the_sampler_charges_one_scenario_to_ssurb():
    cfgs = sample.ab.scenarios(sample.config, "acceptance", 0)[:1]
    before = signal.getsignal(signal.SIGALRM)
    samples, seconds = sample.sampled(lambda: sample.run_unit(cfgs * 3), 0.0005)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    functions, lines = sample.tables(samples)
    assert sum(functions.values()) == sum(lines.values()) == sum(samples.values()) > 0 and seconds > 0
    assert "sim.py:Simulation._steps" in functions
    by_layer = sample.layers(samples)  # every pattern matched and _steps anchor found once, or a ValueError
    assert list(by_layer) == [layer for layer, _, _ in sample.LAYERS] + [sample.OTHER]
    assert sum(by_layer.values()) == sum(functions.values())
    assert all(key == sample.OUTSIDE or key.split(":")[1].split()[0].isdigit() for key in lines)


def test_a_layer_pattern_that_matches_no_function_is_an_error(monkeypatch):
    assert "sim.py:Simulation._steps" in sample.package_functions()
    sample.check_patterns()  # every current pattern matches
    stale = (("scheduler draw", ("sim.py:WeightTree.*", "sim.py:Simulation._gone"), ()),)
    monkeypatch.setattr(sample, "LAYERS", sample.LAYERS + stale)
    with pytest.raises(ValueError, match="'sim.py:Simulation._gone' matches no function"):
        sample.layers(Counter())
