import contextlib
import io
import json
import re
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_check_prints_no_report_when_its_out_path_cannot_be_made(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario), "--out", str(out)])
    capsys.readouterr()
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    assert main(["check", "--trace", str(out / "trace.jsonl"), "--out", str(taken)]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert str(taken) in printed.err


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


def test_an_output_path_that_is_a_file_exits_2(tmp_path, capsys):
    # once a FileExistsError traceback and exit 1
    scenario = write_scenario(tmp_path)
    assert main(["run", "--scenario", str(scenario), "--out", str(scenario)]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 17] File exists:")


@pytest.mark.parametrize("doctor, error", [
    (lambda line: "[1, 2]" if '"CYCLE"' in line else line, "a record that cannot be read: AttributeError"),
    (lambda line: line.replace('"channels"', '"chan"'), "a record that cannot be read: KeyError('channels')"),
    (lambda line: line.replace('"mid"', '"mud"') if '"DELIVER"' in line else line,
     "a record the checks cannot read: KeyError('mid')"),
], ids=["not-an-object", "snapshot-without-channels", "deliver-without-mid"])
def test_check_names_the_file_for_a_record_it_cannot_read(tmp_path, capsys, doctor, error):
    # once a traceback and exit 1
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(write_scenario(tmp_path)), "--out", str(out)]) == 0
    path = out / "trace.jsonl"
    path.write_text("".join(doctor(line) + "\n" for line in path.read_text().splitlines()))
    capsys.readouterr()
    assert main(["check", "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and error in err, err


# -- the exit-status contract as a property --------------------------------------

# small JSON values of every type; the ints an override of n or max_steps may
# take are drawn apart, so that no draw asks for a large run
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 300), st.just(10**400), st.text(max_size=4),
    st.floats(allow_nan=True, allow_infinity=True),
)
json_values = st.recursive(json_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=2), st.dictionaries(st.text(max_size=4), inner, max_size=2)), max_leaves=4)
not_ints = json_values.filter(lambda v: type(v) is not int)
BOUNDED = {"n": st.one_of(st.integers(-2, 4), not_ints), "max_steps": st.one_of(st.integers(-2, 300), not_ints)}
KEYS = ("n", "max_steps", "buffer_unit_size", "channel_capacity", "maxint", "seed", "fifo_enabled",
        "bounded_mode", "snapshot_interval", "quiescence_window_cycles", "scheduler_profile",
        "stop_mode", "broadcasts", "fault_plan", "fault_plan.omission_prob", "fault_plan.crashes",
        "fault_plan.corruptions", "fault_plan.detection_latency", "bogus")


def value_for(key):
    return BOUNDED.get(key, json_values)


overrides = st.lists(st.sampled_from(KEYS).flatmap(lambda k: st.tuples(st.just(k), value_for(k))), max_size=2)


@st.composite
def scenario_texts(draw):
    """A small valid scenario with a few fields overridden or deleted, or
    its JSON text cut short."""
    n = draw(st.integers(1, 4))
    raw = {
        "n": n,
        "seed": draw(st.integers(0, 50)),
        "max_steps": draw(st.integers(1, 300)),
        "broadcasts": [{"node": draw(st.integers(1, n)), "payload": "a"}],
        "fault_plan": {},
    }
    for key, value in draw(overrides):
        *parent, last = key.split(".")
        target = raw.get("fault_plan") if parent else raw
        if not isinstance(target, dict):
            continue
        if draw(st.booleans()):
            target[last] = value
        else:
            target.pop(last, None)
    text = json.dumps(raw)
    return text[: draw(st.integers(0, len(text)))] if draw(st.integers(0, 3)) == 0 else text


def flags(command):
    max_steps = st.one_of(st.integers(-2, 300).map(str), st.sampled_from(["x", "1.5", ""]))
    pieces = [
        st.tuples(st.just("--max-steps"), max_steps),
        st.tuples(st.just("--profile"), st.sampled_from(["uniform", "starve-one-node", "fast", ""])),
        st.sampled_from(KEYS).flatmap(
            lambda k: value_for(k).map(lambda v: ("--set", f"{k}={json.dumps(v)}"))),
        st.sampled_from([("--bogus",), ("--set",), ("--set", "novalue"), ("--scenario",)]),
    ]
    if command == "run":
        pieces += [st.tuples(st.just("--seed"), st.sampled_from(["3", "-1", "x", str(2**64)])),
                   st.just(("--verify-replay",))]
    else:
        pieces += [
            st.tuples(st.just("--seeds"), st.sampled_from(["0:2", "1", "2,2", "3:1", "a", "", "0:2:3"])),
            st.sampled_from(KEYS).flatmap(lambda k: st.lists(value_for(k), min_size=1, max_size=2).map(
                lambda vs: ("--vary", f"{k}={','.join(json.dumps(v) for v in vs)}"))),
        ]
    return st.lists(st.one_of(pieces), max_size=3).map(lambda ps: [a for p in ps for a in p])


@st.composite
def doctored_traces(draw, lines):
    """The lines of a small run's trace, cut short, with a line dropped or
    repeated, or with one field of a line replaced or deleted."""
    lines = list(lines)
    others = [k for k, line in enumerate(lines) if '"SEND"' not in line and '"RECV"' not in line]
    pos = draw(st.one_of(st.integers(0, len(lines) - 1), st.sampled_from(others)))  # packets are most lines
    how = draw(st.sampled_from(["cut", "drop", "repeat", "field"]))
    if how == "cut":
        text = "\n".join(lines)
        return text[: draw(st.integers(0, len(text)))]
    if how == "drop":
        del lines[pos]
    elif how == "repeat":
        lines.insert(draw(st.integers(0, len(lines))), lines[pos])
    else:
        record = json.loads(lines[pos])
        key = draw(st.sampled_from(sorted(record)))
        if draw(st.booleans()):
            record[key] = draw(value_for(key))  # a header's n stays small
        else:
            del record[key]
        lines[pos] = json.dumps(record)
    return "\n".join(lines) + "\n"


TRACE_RAW = {"n": 3, "seed": 2, "max_steps": 300, "snapshot_interval": 40,
             "broadcasts": [{"node": 1, "payload": "a"}, {"node": 3, "payload": "b", "step": 20}],
             "fault_plan": {"corruptions": [{"node": 2, "step": 60, "kind": "CHANNEL-GARBAGE"}]}}

def trace_text(raw) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        sim.run_scenario(config.from_dict(raw)).trace.write(str(path))
        return path.read_text()


TRACE_TEXT = trace_text(TRACE_RAW)


def call(argv):
    """(status, stdout, stderr) of `main(argv)`; an exception that escapes
    `main` would reach the user as a traceback, so it fails the property."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse's usage errors, and --help
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def assert_contract(status, out, err):
    assert status in (0, 1, 2), status
    if status == 1:
        assert re.search(r"^\S+: FAIL|failures=[1-9]", out, re.M), out
    assert "Traceback" not in err, err


@given(command=st.sampled_from(["run", "sweep"]), data=st.data())
@settings(max_examples=150)
def test_run_and_sweep_keep_the_exit_status_contract(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(data.draw(scenario_texts()))
        out = Path(tmp) / data.draw(st.sampled_from(["out", "scenario.json", "scenario.json/out"]))
        argv = [command, "--scenario", str(scenario), "--out", str(out)]
        if command == "sweep":
            argv += ["--seeds", "0:2"]
        assert_contract(*call(argv + data.draw(flags(command))))


@given(data=st.data())
@settings(max_examples=150)
def test_check_keeps_the_exit_status_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        path.write_text(data.draw(doctored_traces(TRACE_TEXT.splitlines())))
        argv = ["check", "--trace", str(path)]
        argv += data.draw(st.sampled_from([[], ["--out", tmp + "/out"], ["--out", str(path)], ["--bogus"]]))
        assert_contract(*call(argv))
