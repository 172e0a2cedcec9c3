import json
import threading

import pytest

from ssurb import cli, config, sim
from ssurb.cli import main


def write_scenario(tmp_path, **kw):
    raw = {
        "n": 3,
        "buffer_unit_size": 4,
        "seed": 3,
        "max_steps": 6000,
        "broadcasts": [
            {"node": 1, "payload": "a"},
            {"node": 2, "step": 25, "payload": "b"},
        ],
    }
    raw.update(kw)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path


def test_run_writes_three_outputs(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    for name in ("trace.jsonl", "metrics.json", "report.json"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert {r["name"] for r in report} >= {"validity", "integrity", "termination", "quiescence"}
    assert "validity: PASS" in capsys.readouterr().out


def test_run_config_error_exits_2(tmp_path, capsys):
    scenario = write_scenario(tmp_path, fault_plan={"omission_prob": 1.0})
    code = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "fault_plan.omission_prob" in capsys.readouterr().err


def test_run_missing_scenario_exits_2(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_check_reproduces_run_report(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario), "--out", str(out)])
    run_report = json.loads((out / "report.json").read_text())
    capsys.readouterr()
    out2 = tmp_path / "out2"
    assert main(["check", "--trace", str(out / "trace.jsonl"), "--out", str(out2)]) == 0
    check_report = json.loads((out2 / "report.json").read_text())
    assert check_report == run_report


def test_consecutive_main_calls_share_no_arguments(tmp_path, capsys):
    # the parser is built once per process; no call may see an earlier one's values
    scenario = write_scenario(tmp_path)
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["run", "--scenario", str(scenario), "--out", str(first), "--seed", "11"]
    assert main(argv + ["--set", "buffer_unit_size=2"]) == 0
    assert main(["run", "--scenario", str(scenario), "--out", str(second)]) == 0
    headers = [
        json.loads((out / "trace.jsonl").read_text().splitlines()[0]) for out in (first, second)
    ]
    assert (headers[0]["seed"], headers[0]["buffer_unit_size"]) == (11, 2)
    assert (headers[1]["seed"], headers[1]["buffer_unit_size"]) == (3, 4)
    (second / "report.json").unlink()
    capsys.readouterr()
    assert main(["check", "--trace", str(first / "trace.jsonl")]) == 0
    assert "validity: PASS" in capsys.readouterr().out
    assert not (second / "report.json").exists()  # `check` got no --out of its own


def test_check_rejects_non_trace(tmp_path):
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text('{"type": "something"}\n')
    assert main(["check", "--trace", str(bogus)]) == 2


def test_check_flags_corrupted_trace(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario), "--out", str(out)])
    trace_path = out / "trace.jsonl"
    lines = trace_path.read_text().splitlines()
    deliver = next(line for line in lines if '"DELIVER"' in line)
    lines.append(deliver)  # duplicate delivery at the end
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["check", "--trace", str(trace_path)]) == 1


def test_set_override_applies(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["run", "--scenario", str(scenario), "--out", str(out),
         "--set", "fault_plan.omission_prob=0.25", "--seed", "9"]
    )
    assert code == 0
    trace_head = (out / "trace.jsonl").read_text().splitlines()[0]
    assert '"seed":9' in trace_head.replace(" ", "")


def test_run_determinism_across_invocations(tmp_path):
    scenario = write_scenario(tmp_path)
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["run", "--scenario", str(scenario), "--out", str(out)])
        digests.append(json.loads((out / "metrics.json").read_text())["trace_digest"])
    assert digests[0] == digests[1]


def test_sweep_grid_and_summary(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "--scenario", str(scenario), "--out", str(out),
         "--seeds", "0:3", "--vary", "buffer_unit_size=2,4"]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["cells"]) == 2
    assert summary["seeds"] == [0, 1, 2]
    assert all(len(cell["runs"]) == 3 for cell in summary["cells"])
    assert summary["all_pass"]


def test_sweep_rejects_an_empty_seed_list(tmp_path, capsys):
    # an empty range and an empty comma list would run nothing and pass
    scenario = write_scenario(tmp_path)
    for spec in ("5:3", ","):
        out = tmp_path / f"sweep{len(spec)}"
        assert main(["sweep", "--scenario", str(scenario), "--out", str(out), "--seeds", spec]) == 2
        assert "--seeds" in capsys.readouterr().err
        assert not out.exists()
    with pytest.raises(ValueError, match="--seeds"):
        cli.sweep(config.load(str(scenario)), {}, [])


def test_sweep_rejects_a_malformed_seed_list(tmp_path, capsys):
    # a third range bound and a non-integer name the flag and the piece; a
    # repeated seed would count its run twice in every aggregate
    scenario = write_scenario(tmp_path)
    for spec, piece in (("3:5:7", "'5:7'"), ("a", "'a'"), ("1,1", "seed 1")):
        out = tmp_path / f"sweep-{spec}"
        assert main(["sweep", "--scenario", str(scenario), "--out", str(out), "--seeds", spec]) == 2
        err = capsys.readouterr().err
        assert "--seeds" in err and piece in err, err
        assert not out.exists()


def test_sweep_empty_grid_is_single_cell(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario), "--out", str(out), "--seeds", "0:2"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["cells"]) == 1
    assert summary["cells"][0]["overrides"] == {}


def test_two_sweeps_give_identical_summaries(tmp_path):
    scenario = write_scenario(tmp_path)
    summaries = []
    for name in ("first", "second"):
        out = tmp_path / name
        main(["sweep", "--scenario", str(scenario), "--out", str(out),
              "--seeds", "0:4", "--vary", "buffer_unit_size=2,4"])
        summaries.append((out / "summary.json").read_text())
    assert summaries[0] == summaries[1]


def test_sweep_runs_each_cell_in_the_calling_thread(tmp_path, monkeypatch):
    # every run, branched off a shared trunk or not, ends in Simulation.run
    threads = []
    original = sim.Simulation.run

    def recording(self):
        threads.append(threading.get_ident())
        return original(self)

    monkeypatch.setattr(sim.Simulation, "run", recording)
    base = config.load(str(write_scenario(tmp_path)))
    kinds = ("WINDOW-SKEW", "SEQ-REGRESSION")
    grid = {
        "buffer_unit_size": [2, 3],
        "fault_plan.corruptions": [[{"node": 2, "step": 40, "kind": kind}] for kind in kinds],
    }
    summary = cli.sweep(base, grid, [0, 1], workers=4)
    assert len(summary["cells"]) == 4
    assert threads == [threading.get_ident()] * 8
    # `workers` is accepted and has no effect
    assert cli.sweep(base, grid, [0, 1]) == summary


def test_sweep_vary_takes_list_valued_cells(tmp_path):
    # commas inside JSON brackets, braces and strings do not cut a cell, so
    # the CLI runs the corruption grid that cli.sweep takes as a dict
    scenario = write_scenario(tmp_path)
    plans = [[{"node": 2, "step": 40, "kind": kind}] for kind in ("RANDOMIZE-ALL", "WINDOW-SKEW")]
    out = tmp_path / "sweep"
    vary = "fault_plan.corruptions=" + ",".join(json.dumps(plan) for plan in plans)
    code = main(["sweep", "--scenario", str(scenario), "--out", str(out), "--seeds", "0:2", "--vary", vary])
    expected = cli.sweep(config.load(str(scenario)), {"fault_plan.corruptions": plans}, [0, 1])
    assert len(expected["cells"]) == 2
    assert code == (0 if expected["all_pass"] else 1)
    assert (out / "summary.json").read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_sweep_vary_scalar_forms_parse_as_before():
    grid = cli._parse_grid(["b=1,2", "p=uniform, reorder-heavy", "x= 3 ,true,", "e=", "s=a b,1.5"])
    assert grid == {
        "b": [1, 2],
        "p": ["uniform", " reorder-heavy"],
        "x": [3, True, ""],
        "e": [""],
        "s": ["a b", 1.5],
    }
    assert cli._parse_grid(['q="a,b",[1,{"k":"]"}]']) == {"q": ["a,b", [1, {"k": "]"}]]}


def test_sweep_config_error_in_the_grid_exits_2_without_the_crash_dump(tmp_path, capsys, monkeypatch):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "sweep"
    vary = 'fault_plan.corruptions=[{"node":9,"step":1,"kind":"RANDOMIZE-ALL"}]'
    assert main(["sweep", "--scenario", str(scenario), "--out", str(out), "--vary", vary]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: fault_plan.corruptions") and "crashed" not in err, err
    # a real crash still dumps the base config
    monkeypatch.setattr(cli, "sweep", lambda *a: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        main(["sweep", "--scenario", str(scenario), "--out", str(out)])
    assert capsys.readouterr().err.startswith("sweep cell crashed under base config:")


def test_verify_replay_passes(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out), "--verify-replay"]) == 0


def test_run_names_the_scheduled_faults_it_ended_before(tmp_path, capsys):
    scenario = write_scenario(
        tmp_path,
        broadcasts=[{"node": 1, "payload": "a"}],
        stop_mode="stabilized",
        fault_plan={"corruptions": [{"node": 2, "step": 5000, "kind": "RANDOMIZE-ALL"}]},
    )
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "stabilized" in err[0] and "RANDOMIZE-ALL of node 2 at step 5000" in err[0]
    trace = (tmp_path / "o" / "trace.jsonl").read_text()
    assert '"type":"CORRUPT"' not in trace

    scenario = write_scenario(
        tmp_path,
        broadcasts=[{"node": 1, "payload": "a"}],
        stop_mode="complete-delivery",
        fault_plan={
            "corruptions": [{"node": 2, "step": 5000, "kind": "RANDOMIZE-ALL"}],
            "crashes": [{"node": 3, "step": 6000}],
        },
    )
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o2")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "crash of node 3 at step 6000" in err[0]
    assert "RANDOMIZE-ALL of node 2 at step 5000" in err[0]

    # a run whose faults all fired says nothing
    scenario = write_scenario(
        tmp_path, fault_plan={"corruptions": [{"node": 2, "step": 10, "kind": "RANDOMIZE-ALL"}]}
    )
    main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o3")])
    assert capsys.readouterr().err == ""


def test_run_refuses_an_unknown_field_below_the_root(tmp_path, capsys):
    # a misspelt fault field, a crash list that is a string and a misspelt
    # broadcast step once ran fault-free with an as-soon-as-possible broadcast
    scenario = write_scenario(
        tmp_path,
        fault_plan={"omision_prob": 0.2, "crashes": ""},
        broadcasts=[{"node": 1, "payload": "x", "stp": 5}],
    )
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: broadcasts[0].stp: unknown field\n"


@pytest.mark.parametrize("doctor, error", [
    (lambda header: header.pop("buffer_unit_size"), "header field buffer_unit_size: missing required field"),
    (lambda header: header.update(n="3"), "header field n: expected integer, got '3'"),
])
def test_check_names_a_header_field_missing_or_of_the_wrong_type(tmp_path, capsys, doctor, error):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(write_scenario(tmp_path)), "--out", str(out)]) == 0
    path = out / "trace.jsonl"
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    doctor(header)
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    capsys.readouterr()
    assert main(["check", "--trace", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:1: {error}\n"


def test_sweep_takes_its_seeds_from_seeds_only(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    argv = ["sweep", "--scenario", str(scenario), "--out", str(tmp_path / "sweep"), "--seeds", "0:2"]
    with pytest.raises(SystemExit) as exit_:  # no `--seed` flag, nor `--seeds` abbreviated
        main(argv + ["--seed", "3"])
    assert exit_.value.code == 2 and "--seed 3" in capsys.readouterr().err
    for extra, flag in ((["--vary", "seed=1,2"], "--vary seed"), (["--set", "seed=4"], "--set seed")):
        assert main(argv + extra) == 2
        assert capsys.readouterr().err == f"config error: {flag}: a sweep takes its seeds from --seeds\n"
    with pytest.raises(config.ConfigError, match="^--vary seed: "):
        cli.sweep(config.load(str(scenario)), {"seed": [1, 2]}, [0])
    assert not (tmp_path / "sweep").exists()


def test_run_refuses_an_integer_too_large_for_a_float_field(tmp_path, capsys):
    # float() of a 401-digit integer overflows: once a traceback and exit 1
    scenario = write_scenario(tmp_path, fault_plan={"omission_prob": 10**400})
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: fault_plan.omission_prob: integer too large for a float\n"


def test_check_names_the_file_when_the_first_line_is_not_json(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    path.write_text("not json\n")
    assert main(["check", "--trace", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:1: Expecting value: line 1 column 1 (char 0)\n"
