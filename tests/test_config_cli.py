import copy
import csv
import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import SCENARIOS

from fidelitylab import cli, engine
from fidelitylab import config as config_mod

from fidelitylab.cli import (
    EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, _run_one_batch_child, cmd_batch, cmd_classify, cmd_run,
    main,
)
from fidelitylab.config import load_config, parse_config, scenario_to_config
from fidelitylab.errors import ConfigurationError

ROOT = Path(__file__).parent.parent
CONFIGS = ROOT / "configs"
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the benchmark's config generator)

MINIMAL = {
    "schema_version": 1,
    "name": "minimal",
    "duration": 5.0,
    "dt": 0.1,
    "seed": 7,
    "environment": {
        "figures": [
            {"name": "load", "initial": 2.0, "process": {"kind": "constant"}}
        ]
    },
    "nodes": [
        {
            "name": "n0",
            "channel": {"sampling_period": 0.1},
            "contract": {"kind": "hard", "threshold": 0.1},
            "behavior": {"kind": "passive"},
        }
    ],
}

LEARNING = {
    "schema_version": 1,
    "name": "learning",
    "duration": 40.0,
    "dt": 0.1,
    "seed": 3,
    "environment": {
        "figures": [{"name": "load", "initial": 0.0, "process": {"kind": "constant"}}]
    },
    "shocks": [
        {"at": 10.0, "figure": 0, "magnitude": 10.0, "recovery_window": 5.0},
        {"at": 25.0, "figure": 0, "magnitude": -10.0, "recovery_window": 5.0},
    ],
    "nodes": [
        {
            "name": "n0",
            "channel": {"gain": 1.1, "nominal_gain": 1.0, "sampling_period": 0.1},
            "contract": {"kind": "hard", "threshold": 0.1, "window": 20},
            "detector": {"slack": 0.02, "threshold": 0.2},
            "behavior": {"kind": "reactive", "gain": 0.2},
            "controller": {
                "catalog": [
                    {"id": "firm", "kind": "reconfigure",
                     "behavior": {"kind": "reactive", "gain": 1.0}},
                    {"id": "weak", "kind": "reconfigure",
                     "behavior": {"kind": "reactive", "gain": 0.05}},
                ]
            },
        }
    ],
}


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_limited(*args):
    """``python *args`` in a child whose address space alone is capped at
    1.5 GB, with one BLAS thread, so that its address space does not grow
    with the host's core count."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, resource.RLIM_INFINITY))

    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120, preexec_fn=limit)


#: Each contract kind with valid values of its own levels.
CONTRACT_LEVELS = {
    "hard": {"threshold": 0.1},
    "soft": {"mean": 0.05, "std": 0.05},
    "best_effort": {"bound": 0.2},
}


class TestParseConfig:
    def test_minimal_parses_with_defaults(self):
        scenario = parse_config(MINIMAL)
        assert scenario.name == "minimal"
        assert scenario.dt == 0.1
        assert scenario.nodes[0].contract.window == 100  # default materialized

    def test_unknown_key_rejected_with_path(self):
        doc = dict(MINIMAL) | {"tempo": 1}
        with pytest.raises(ConfigurationError) as exc:
            parse_config(doc)
        assert any("config.tempo" in p for p in exc.value.problems)

    def test_nested_unknown_key_rejected(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["nodes"][0]["channel"]["jitter"] = 0.1
        with pytest.raises(ConfigurationError) as exc:
            parse_config(doc)
        assert any("nodes[0].channel.jitter" in p for p in exc.value.problems)

    @pytest.mark.parametrize("kind, key", [
        (kind, key) for kind in CONTRACT_LEVELS for other in CONTRACT_LEVELS
        if other != kind for key in CONTRACT_LEVELS[other]
    ])
    def test_a_foreign_contract_level_is_an_unknown_key(self, kind, key):
        doc = copy.deepcopy(MINIMAL)
        doc["nodes"][0]["contract"] = {"kind": kind, **CONTRACT_LEVELS[kind], key: 9.0}
        with pytest.raises(ConfigurationError) as exc:
            parse_config(doc)
        assert exc.value.problems == [f"nodes[0].contract.{key}: unknown key"]

    @pytest.mark.parametrize("kind", CONTRACT_LEVELS)
    def test_every_contract_kind_takes_the_guard_keys(self, kind):
        doc = copy.deepcopy(MINIMAL)
        doc["nodes"][0]["contract"] = {"kind": kind, **CONTRACT_LEVELS[kind],
                                       "window": 7, "at_risk_margin": 0.5}
        contract = parse_config(doc).nodes[0].contract
        assert (contract.window, contract.at_risk_margin) == (7, 0.5)

    def test_schema_version_checked(self):
        doc = dict(MINIMAL) | {"schema_version": 99}
        with pytest.raises(ConfigurationError) as exc:
            parse_config(doc)
        assert any("schema_version" in p for p in exc.value.problems)

    def test_all_problems_reported_at_once(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["schema_version"] = 2
        doc["nodes"][0]["channel"]["sampling_period"] = -1.0
        doc["nodes"][0]["contract"]["threshold"] = -0.5
        with pytest.raises(ConfigurationError) as exc:
            parse_config(doc)
        text = "\n".join(exc.value.problems)
        assert "schema_version" in text
        assert "sampling_period" in text
        assert "contract" in text

    def test_seed_override(self):
        scenario = parse_config(MINIMAL, seed_override=123)
        assert scenario.seed == 123

    def test_parsing_allocates_no_run_state(self):
        # A history ring of 10**9 rows would take 44.7 GiB; parsing builds
        # none, so the demo parses under a 1.5 GB address-space limit, set
        # in the child process alone. Running such a window is not tested.
        script = (
            "import sys, yaml\n"
            "from fidelitylab.config import parse_config\n"
            "doc = yaml.safe_load(open(sys.argv[1], encoding='utf-8'))\n"
            "doc['nodes'][0]['controller']['catalog'][2]['behavior']['window'] = 10**9\n"
            "print(parse_config(doc).nodes[0].controller.catalog[2].behavior)\n"
        )
        done = run_limited("-c", script, str(CONFIGS / "demo.yaml"))
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "Predictive(k=1, window=1000000000)\n"

    @pytest.mark.parametrize("source", ["learning", *sorted(SCENARIOS), *workloads.WORKLOADS])
    def test_echo_round_trips_exactly(self, source, tmp_path):
        if source == "learning":
            scenarios = [parse_config(LEARNING)]
        elif source in SCENARIOS:
            scenarios = [SCENARIOS[source]()]
        else:  # every config one round of the benchmark workload runs
            runs = workloads.generate(source, 1, str(ROOT), str(tmp_path))
            scenarios = [load_config(path) for path in sorted({run.config for run in runs})]
        for scenario in scenarios:
            echo = scenario_to_config(scenario)
            again = parse_config(echo)
            assert scenario_to_config(again) == echo

    @pytest.mark.parametrize("key, value", [("dt", math.nan), ("duration", math.inf),
                                            ("duration", -math.inf), ("dt", 10 ** 400)])
    def test_non_finite_number_rejected_with_its_path(self, key, value):
        with pytest.raises(ConfigurationError) as exc:
            parse_config(dict(MINIMAL, **{key: value}))
        assert exc.value.problems == [f"{key}: expected a finite number, got {value!r}"]


class TestCmdRun:
    def test_minimal_run_writes_three_files(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert cmd_run(str(config), out=str(out)) == EXIT_OK
        for name in ("ticks.csv", "episodes.csv", "report.json"):
            assert (out / name).exists()

    def test_invalid_config_exits_2_naming_the_key(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MINIMAL))
        doc["nodes"][0]["channel"]["sampling_period"] = -0.5
        config = write_config(tmp_path, doc)
        assert cmd_run(str(config), out=str(tmp_path / "out")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sampling_period" in err
        assert not (tmp_path / "out" / "ticks.csv").exists()

    def test_same_seed_same_report_checksum(self, tmp_path):
        config = write_config(tmp_path, LEARNING)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cmd_run(str(config), seed=42, out=str(out_a)) == EXIT_OK
        assert cmd_run(str(config), seed=42, out=str(out_b)) == EXIT_OK
        assert sha256(out_a / "report.json") == sha256(out_b / "report.json")
        assert sha256(out_a / "ticks.csv") == sha256(out_b / "ticks.csv")

    def test_report_echo_reproduces_run(self, tmp_path):
        config = write_config(tmp_path, LEARNING)
        out_a = tmp_path / "a"
        assert cmd_run(str(config), out=str(out_a)) == EXIT_OK
        report = json.loads((out_a / "report.json").read_text())
        echoed = write_config(tmp_path, report["config"], name="echo.yaml")
        out_b = tmp_path / "b"
        assert cmd_run(str(echoed), out=str(out_b)) == EXIT_OK
        assert sha256(out_a / "ticks.csv") == sha256(out_b / "ticks.csv")
        assert sha256(out_a / "episodes.csv") == sha256(out_b / "episodes.csv")

    # numpy must not warn about the overflow that precedes the divergence
    # (pyproject.toml turns every RuntimeWarning into an error).
    def test_divergence_exits_1_naming_node_and_tick(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MINIMAL)) | {"duration": 110.0}
        doc["nodes"][0]["behavior"] = {
            "kind": "active_non_purposeful", "schedule": [{"gain": 2.0}],
        }
        config = write_config(tmp_path, doc)
        assert cmd_run(str(config), out=str(tmp_path / "out")) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "'n0'" in err
        assert "non-finite delta at tick 1024 (t=102.4)" in err

    def test_a_run_validates_the_scenario_twice(self, tmp_path, monkeypatch):
        calls = []
        real = engine.validate_scenario

        def counting(scenario):
            calls.append(scenario)
            return real(scenario)

        monkeypatch.setattr(engine, "validate_scenario", counting)
        monkeypatch.setattr(config_mod, "validate_scenario", counting)
        config = write_config(tmp_path, LEARNING)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_OK
        # Once as load_config parses the file, once as run_scenario starts.
        assert len(calls) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert cmd_run(str(tmp_path / "absent.yaml")) == EXIT_CONFIG

    def test_resume_learning_state(self, tmp_path):
        config = write_config(tmp_path, LEARNING)
        out_a = tmp_path / "a"
        assert cmd_run(str(config), out=str(out_a)) == EXIT_OK
        state = out_a / "learning_state.json"
        assert state.exists()
        out_b = tmp_path / "b"
        assert cmd_run(str(config), out=str(out_b), resume=str(state)) == EXIT_OK
        resumed = json.loads((out_b / "learning_state.json").read_text())
        fresh = json.loads(state.read_text())
        # pulls accumulated across the resumed run
        total = lambda doc: sum(
            arm["pulls"]
            for regimes in doc["n0"]["regimes"].values()
            for arm in regimes
        )
        assert total(resumed) > total(fresh)


def run_cli(*args):
    """The command line in a fresh interpreter, as a user runs it: its exit
    code and its standard error."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "fidelitylab.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    return done.returncode, done.stderr


class TestRunBounds:
    """A run has at most ``engine.MAX_TICKS`` ticks, a window longer than
    the run costs no memory per entry, and a fired detector's window
    statistic that overflows is a divergence, not an ``Infinity`` export."""

    def test_the_most_ticks_parse(self):
        assert engine.MAX_TICKS == 10**7
        assert parse_config(MINIMAL | {"duration": 1e6}).duration == 1e6  # dt 0.1

    def test_one_tick_more_is_rejected(self):
        with pytest.raises(ConfigurationError) as exc:
            parse_config(MINIMAL | {"duration": 1e6 + 0.1})
        assert exc.value.problems == ["duration: must be at most 10000000 ticks of dt"]

    def test_an_endless_run_exits_2_and_leaves_no_out(self, tmp_path):
        config = write_config(tmp_path, MINIMAL | {"duration": 1e300})
        out = tmp_path / "out"
        code, err = run_cli("run", "--config", str(config), "--out", str(out))
        assert (code, err) == (EXIT_CONFIG, "error: duration: must be at most 10000000 ticks of dt\n")
        assert not out.exists()

    def test_windows_beyond_the_run_export_what_the_run_length_exports(self, tmp_path):
        # The demo runs 2,000 ticks. At 10**7 a list of views per ring end
        # (2 * 10**7 + 1 of them) took the child past its limit.
        doc = yaml.safe_load((CONFIGS / "demo.yaml").read_text(encoding="utf-8"))
        outs = []
        for window in (10**7, 2000):
            doc["environment"]["regime_window"] = doc["nodes"][0]["contract"]["window"] = window
            config = write_config(tmp_path, doc, name=f"demo{window}.yaml")
            outs.append(tmp_path / f"out{window}")
            done = run_limited("-m", "fidelitylab.cli", "run", "--config", str(config),
                               "--out", str(outs[-1]))
            assert (done.returncode, done.stderr) == (EXIT_OK, "")
        for name in ("ticks.csv", "episodes.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_an_overflowing_detector_window_exits_1_naming_node_and_tick(self, tmp_path):
        # Deltas of about 1e299 stay finite; the fired detector's window std
        # does not.
        doc = yaml.safe_load((CONFIGS / "demo.yaml").read_text(encoding="utf-8"))
        doc["shocks"][0]["magnitude"] = 1e300
        config = write_config(tmp_path, doc)
        code, err = run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"))
        assert code == EXIT_RUNTIME
        assert err == ("error: node 'n0' diverged: non-finite detector window statistic "
                       "at tick 200 (t=20.0)\n")


class TestNegativeSeeds:
    """np.random.SeedSequence takes no negative seed, so every entry point
    rejects one as input, before anything runs."""

    def test_a_negative_document_seed_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, MINIMAL | {"seed": -1})
        out = tmp_path / "out"
        assert cmd_run(str(config), out=str(out)) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: seed: must be >= 0\n"
        assert not out.exists()

    def test_run_seed_minus_one_exits_2_and_leaves_no_out(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out"
        code, err = run_cli("run", "--config", str(config), "--seed", "-1", "--out", str(out))
        assert (code, err) == (EXIT_CONFIG, "error: seed: must be >= 0\n")
        assert not out.exists()

    def test_batch_refuses_a_negative_seed_base_before_any_run(self, tmp_path, capsys):
        write_config(tmp_path, MINIMAL)
        out = tmp_path / "batch"
        argv = ["batch", "--glob", str(tmp_path / "*.yaml"), "--reps", "2",
                "--seed-base", "-1", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: --seed-base must be >= 0\n"
        assert not out.exists()


class TestCliFailures:
    @pytest.mark.parametrize("under", [False, True], ids=["file", "path_under_a_file"])
    def test_out_on_a_file_exits_1_naming_the_path(self, tmp_path, under):
        config = write_config(tmp_path, MINIMAL)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / "out" if under else blocker
        code, err = run_cli("run", "--config", str(config), "--out", str(out))
        assert code == EXIT_RUNTIME
        assert err.startswith("error: ") and str(out) in err
        assert "Traceback" not in err
        assert blocker.read_text() == "not a directory\n"

    def test_batch_out_on_a_file_exits_1(self, tmp_path):
        write_config(tmp_path, MINIMAL)
        blocker = tmp_path / "taken"
        blocker.write_text("")
        code, err = run_cli("batch", "--glob", str(tmp_path / "*.yaml"), "--reps", "1",
                            "--out", str(blocker))
        assert code == EXIT_RUNTIME
        assert f"error: cannot write the summary to {blocker}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("under", [False, True], ids=["file", "path_under_a_file"])
    def test_out_on_a_file_fails_before_the_run(self, tmp_path, monkeypatch, capsys, under):
        def no_run(*args, **kwargs):
            raise AssertionError("the scenario ran")

        monkeypatch.setattr(cli, "run_scenario", no_run)
        config = write_config(tmp_path, MINIMAL)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / "out" if under else blocker
        assert cmd_run(str(config), out=str(out)) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith(f"error: cannot write exports to {out}: ")

    @pytest.mark.parametrize("damage", ["missing_key", "node_entry_list",
                                        "arm_entry_not_mapping", "pulls_string"])
    def test_malformed_resume_exits_2_naming_the_key(self, tmp_path, damage):
        config = write_config(tmp_path, LEARNING)
        assert cmd_run(str(config), out=str(tmp_path / "a")) == EXIT_OK
        doc = json.loads((tmp_path / "a" / "learning_state.json").read_text())
        regime, arms = next(iter(doc["n0"]["regimes"].items()))
        arm = f"n0.regimes.{regime}[0]"
        if damage == "missing_key":
            del arms[0]["mean"]
            expected = f"{arm}.mean: required"
        elif damage == "node_entry_list":
            doc["n0"] = [doc["n0"]]
            expected = "n0: expected a mapping"
        elif damage == "arm_entry_not_mapping":
            arms[0] = 3
            expected = f"{arm}: expected a mapping"
        else:
            arms[0]["pulls"] = "3"
            expected = f"{arm}.pulls: expected an integer, got '3'"
        state = tmp_path / "state.json"
        state.write_text(json.dumps(doc))
        code, err = run_cli("run", "--config", str(config), "--out", str(tmp_path / "b"),
                            "--resume", str(state))
        assert code == EXIT_CONFIG
        assert err == f"error: {state}: {expected}\n"
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("damage", ["ghost", "catalog", "version", "no_learning"])
    def test_mismatched_resume_exits_2_before_any_run(self, tmp_path, monkeypatch, capsys,
                                                      damage):
        config = write_config(tmp_path, LEARNING)
        assert cmd_run(str(config), out=str(tmp_path / "a")) == EXIT_OK
        doc = json.loads((tmp_path / "a" / "learning_state.json").read_text())
        if damage == "ghost":
            doc["ghost"] = doc.pop("n0")
            expected = "ghost: no node of that name in the scenario"
        elif damage == "catalog":
            doc["n0"]["catalog"] = ["a", "b", "c"]
            expected = "n0.catalog: expected the scenario's ['firm', 'weak']"
        elif damage == "version":
            doc["n0"]["version"] = 2
            expected = "n0.version: expected 1, got 2"
        else:
            config = write_config(tmp_path, MINIMAL)
            expected = "n0: the node has no strategy catalog to learn over"
        state = tmp_path / "state.json"
        state.write_text(json.dumps(doc))

        def no_run(*args, **kwargs):
            raise AssertionError("the scenario ran")

        monkeypatch.setattr(engine, "_execute", no_run)
        code = cmd_run(str(config), out=str(tmp_path / "b"), resume=str(state))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {state}: {expected}\n"

    @pytest.mark.parametrize("existing", [False, True], ids=["new_out", "existing_out"])
    def test_mismatched_resume_leaves_out_as_it_was(self, tmp_path, existing):
        config = write_config(tmp_path, LEARNING)
        assert cmd_run(str(config), out=str(tmp_path / "a")) == EXIT_OK
        doc = json.loads((tmp_path / "a" / "learning_state.json").read_text())
        doc["ghost"] = doc.pop("n0")
        state = tmp_path / "ghost.json"
        state.write_text(json.dumps(doc))
        out = tmp_path / "b"
        if existing:
            out.mkdir()
            (out / "kept.txt").write_text("kept")
        assert cmd_run(str(config), out=str(out), resume=str(state)) == EXIT_CONFIG
        if existing:
            assert sorted(p.name for p in out.iterdir()) == ["kept.txt"]
            assert (out / "kept.txt").read_text() == "kept"
        else:
            assert not out.exists()

    def test_truncated_resume_exits_2_naming_line_and_column(self, tmp_path):
        config = write_config(tmp_path, LEARNING)
        state = tmp_path / "state.json"
        state.write_text('{\n  "n0": {"regimes": ')
        code, err = run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"),
                            "--resume", str(state))
        assert code == EXIT_CONFIG
        assert err == f"error: {state}:2:21: Expecting value\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, command", [
        ("bad.yaml", ["run", "--config", "{bad}", "--out", "{out}"]),
        ("bad.json", ["run", "--config", "{bad}", "--out", "{out}"]),
        ("state.json", ["run", "--config", "{config}", "--out", "{out}", "--resume", "{bad}"]),
        ("trace.csv", ["classify", "--trace", "{bad}", "--hard", "0.1"]),
    ], ids=["run_config_yaml", "run_config_json", "run_resume", "classify_trace"])
    def test_a_non_utf8_file_is_one_error_line_naming_it(self, tmp_path, name, command):
        bad = tmp_path / name
        bad.write_bytes(b"\xff\n")
        paths = {"bad": bad, "config": write_config(tmp_path, MINIMAL), "out": tmp_path / "out"}
        code, err = run_cli(*(arg.format(**paths) for arg in command))
        assert code == EXIT_CONFIG
        assert err == f"error: {bad}: not UTF-8 text (byte 0: invalid start byte)\n"
        assert not (tmp_path / "out").exists()


class TestCmdClassify:
    def write_trace(self, tmp_path, deltas, name="trace.csv"):
        path = tmp_path / name
        lines = ["time,figure,raw,quale,delta"]
        for i, d in enumerate(deltas):
            lines.append(f"{0.1 * i},0,0.0,0.0,{d}")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_all_zero_hard(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path, [0.0] * 50)
        assert cmd_classify(str(trace), hard=0.1) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["class"] == "HardRT"
        assert out["parameters"] == {"threshold": 0.1}
        assert out["window_stats"]["samples"] == 50

    def test_soft_multiset_example(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path, [0.02] * 97 + [0.5] * 3)
        assert cmd_classify(str(trace), soft=(0.1, 0.12), window=100) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["class"] == "SoftRT"
        assert out["window_stats"]["mean_abs"] == pytest.approx(0.0344)

    def test_empty_file_exits_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert cmd_classify(str(path), hard=0.1) == EXIT_CONFIG

    def test_malformed_row_names_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("time,figure,raw,quale,delta\n0.0,0,0,0,0.1\nnonsense\n")
        assert cmd_classify(str(path), hard=0.1) == EXIT_CONFIG
        assert ":3:" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_delta_names_line_number(self, tmp_path, capsys, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"time,figure,raw,quale,delta\n0.0,0,0,0,0.1\n0.1,0,0,0,{cell}\n")
        assert main(["classify", "--trace", str(path), "--hard", "0.1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {path}:3: non-finite delta\n"

    def test_window_takes_the_trailing_samples(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path, [5.0] * 50 + [0.0] * 50)
        assert cmd_classify(str(trace), hard=0.1, window=50) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["class"] == "HardRT" and out["window_stats"]["samples"] == 50

    def test_window_longer_than_trace_rejected(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path, [0.0] * 4)
        assert cmd_classify(str(trace), hard=0.1, window=5) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: window 5 exceeds trace length 4\n"

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_exits_2(self, tmp_path, capsys, window):
        trace = self.write_trace(tmp_path, [0.0] * 4)
        code = main(["classify", "--trace", str(trace), "--hard", "0.1",
                     "--window", str(window)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr() == ("", "error: --window must be >= 1\n")

    @pytest.mark.parametrize("levels", [
        ["--hard", "0"], ["--hard", "-0.1"], ["--soft", "0.1", "0"], ["--soft", "-1", "0.1"],
        ["--best-effort", "0"],
    ])
    def test_a_non_positive_level_names_its_flag(self, tmp_path, capsys, levels):
        # The trace is never read: it does not exist.
        code = main(["classify", "--trace", str(tmp_path / "absent.csv"), *levels])
        assert code == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: {levels[0]}: must be > 0\n")

    def test_exactly_one_contract_flag(self, tmp_path):
        trace = self.write_trace(tmp_path, [0.0])
        assert cmd_classify(str(trace)) == EXIT_CONFIG
        assert cmd_classify(str(trace), hard=0.1, best_effort=0.2) == EXIT_CONFIG

    def test_through_main(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path, [0.01] * 10)
        code = main(["classify", "--trace", str(trace), "--hard", "0.1"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["class"] == "HardRT"


class TestCmdBatch:
    def test_one_config_three_reps(self, tmp_path):
        write_config(tmp_path, LEARNING, name="scenario.yaml")
        out = tmp_path / "batch"
        code = cmd_batch(str(tmp_path / "*.yaml"), reps=3, seed_base=100, out=str(out))
        assert code == EXIT_OK
        run_dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert run_dirs == ["scenario-seed100", "scenario-seed101", "scenario-seed102"]
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert summary[0] == ("config,scenario,seed,verdict,normalized_slope,mean_episode_cost,"
                              "exit_code,error")
        assert len(summary) == 4

    def test_a_failed_run_gets_a_row_with_its_exit_code_and_error(self, tmp_path, capsys):
        write_config(tmp_path, MINIMAL, name="good.yaml")
        bad = copy.deepcopy(MINIMAL)
        bad["dt"] = "x"
        write_config(tmp_path, bad, name="bad.yaml")
        out = tmp_path / "batch"
        code = cmd_batch(str(tmp_path / "*.yaml"), reps=1, seed_base=5, out=str(out))
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "error: 1 of 2 runs failed" in err
        with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
            failed, passed = csv.DictReader(fh)
        assert (failed["config"], failed["scenario"], failed["seed"], failed["exit_code"]) == (
            str(tmp_path / "bad.yaml"), "", "5", "2")
        assert failed["verdict"] == failed["normalized_slope"] == failed["mean_episode_cost"] == ""
        assert failed["error"].startswith("dt: ") and f"error: {failed['error']}" in err
        assert (passed["config"], passed["scenario"], passed["seed"], passed["exit_code"]) == (
            str(tmp_path / "good.yaml"), "minimal", "5", "0")
        assert passed["error"] == ""

    def test_a_run_that_fails_after_parsing_keeps_its_scenario_name(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL)) | {"duration": 110.0}
        doc["nodes"][0]["behavior"] = {
            "kind": "active_non_purposeful", "schedule": [{"gain": 2.0}],
        }
        write_config(tmp_path, doc, name="diverges.yaml")
        out = tmp_path / "batch"
        assert cmd_batch(str(tmp_path / "*.yaml"), reps=1, out=str(out)) == EXIT_RUNTIME
        with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
            [row] = csv.DictReader(fh)
        assert (row["scenario"], row["exit_code"]) == ("minimal", "1")

    def test_configs_that_share_a_scenario_name_get_a_row_each(self, tmp_path):
        for name in ("b.yaml", "a.yaml"):
            write_config(tmp_path, MINIMAL, name=name)
        out = tmp_path / "batch"
        assert cmd_batch(str(tmp_path / "*.yaml"), reps=2, seed_base=3, out=str(out)) == EXIT_OK
        with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
            rows = [(r["config"], r["scenario"], r["seed"]) for r in csv.DictReader(fh)]
        a, b = str(tmp_path / "a.yaml"), str(tmp_path / "b.yaml")
        assert rows == [(a, "minimal", "3"), (a, "minimal", "4"),
                        (b, "minimal", "3"), (b, "minimal", "4")]
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == [
            "a-seed3", "a-seed4", "b-seed3", "b-seed4"]

    @pytest.mark.parametrize("names, pattern", [(("x.json", "x.yaml"), "*.*"),
                                                (("a/x.yaml", "b/x.yaml"), "*/*.yaml")])
    def test_configs_that_share_a_stem_exit_2_before_any_run(self, tmp_path, monkeypatch,
                                                             capsys, names, pattern):
        def no_run(*args, **kwargs):
            raise AssertionError("a config ran")

        monkeypatch.setattr(cli, "_run", no_run)
        for name in names:
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(json.dumps(MINIMAL))
        out = tmp_path / "batch"
        code = cmd_batch(str(tmp_path / pattern), reps=1, out=str(out))
        assert code == EXIT_CONFIG
        paths = ", ".join(str(tmp_path / name) for name in names)
        assert capsys.readouterr().err == (
            f"error: {paths}: configs share a file stem, so their runs would write "
            "to the same directories\n")
        assert not out.exists()

    def test_a_run_hands_back_only_its_summary_row(self, tmp_path):
        config = write_config(tmp_path, LEARNING, name="scenario.yaml")
        out = tmp_path / "batch"
        assert cmd_batch(str(config), reps=1, seed_base=3, out=str(out)) == EXIT_OK
        row = _run_one_batch_child((str(config), 3, str(tmp_path / "solo")))
        with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh))[1] == [str(cell) for cell in row]

    def test_empty_glob_exits_2(self, tmp_path):
        assert cmd_batch(str(tmp_path / "*.yaml"), reps=1) == EXIT_CONFIG

    def test_batch_rows_reproducible_via_cmd_run(self, tmp_path):
        config = write_config(tmp_path, LEARNING, name="scenario.yaml")
        out = tmp_path / "batch"
        assert cmd_batch(str(tmp_path / "*.yaml"), reps=2, seed_base=100, out=str(out)) == EXIT_OK
        solo = tmp_path / "solo"
        assert cmd_run(str(config), seed=101, out=str(solo)) == EXIT_OK
        assert sha256(out / "scenario-seed101" / "report.json") == sha256(solo / "report.json")

    def test_parallel_jobs_match_sequential(self, tmp_path):
        write_config(tmp_path, LEARNING, name="scenario.yaml")
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert cmd_batch(str(tmp_path / "*.yaml"), reps=2, seed_base=7, out=str(seq)) == EXIT_OK
        assert cmd_batch(str(tmp_path / "*.yaml"), reps=2, seed_base=7, jobs=2, out=str(par)) == EXIT_OK
        assert sha256(seq / "summary.csv") == sha256(par / "summary.csv")
        assert sha256(seq / "scenario-seed8" / "ticks.csv") == sha256(par / "scenario-seed8" / "ticks.csv")

    @pytest.mark.parametrize("cpus, expected", [(64, 3), (2, 2), (None, None)])
    def test_jobs_clamped_to_runs_and_cores(self, tmp_path, monkeypatch, cpus, expected):
        import concurrent.futures

        started = []

        class RecordingExecutor:
            """Runs the map in process; records the worker count asked for."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        write_config(tmp_path, MINIMAL, name="scenario.yaml")
        out = tmp_path / "batch"
        code = cmd_batch(str(tmp_path / "*.yaml"), reps=3, jobs=10_000, out=str(out))
        assert code == EXIT_OK
        # An unknown core count runs the batch in process, with no pool.
        assert started == ([] if expected is None else [expected])
        assert len((out / "summary.csv").read_text().strip().splitlines()) == 4

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, jobs):
        write_config(tmp_path, MINIMAL, name="scenario.yaml")
        assert cmd_batch(str(tmp_path / "*.yaml"), reps=1, jobs=jobs) == EXIT_CONFIG
        assert "--jobs must be >= 1" in capsys.readouterr().err


class TestLoadFromDiskFormats:
    def test_json_config_accepted(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(MINIMAL))
        scenario = load_config(path)
        assert scenario.name == "minimal"

    def test_json_exponent_numbers_are_floats(self, tmp_path):
        # PyYAML's YAML 1.1 resolver reads these as strings.
        doc = json.loads(json.dumps(MINIMAL))
        doc["nodes"][0]["channel"]["noise_std"] = "@noise"
        doc["environment"]["figures"][0]["initial"] = "@initial"
        doc["duration"] = "@duration"
        text = json.dumps(doc)
        for token, literal in (("@noise", "1e-05"), ("@initial", "1E5"), ("@duration", "2.5e3")):
            text = text.replace(f'"{token}"', literal)
        path = tmp_path / "config.json"
        path.write_text(text)
        scenario = load_config(path)
        values = (scenario.nodes[0].channel.noise_std, scenario.figures[0].initial,
                  scenario.duration)
        assert values == (1e-05, 1e5, 2500.0)
        assert all(type(v) is float for v in values)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key, expected", [("dt", "expected a finite number"),
                                               ("name", "expected a string")])
    def test_non_finite_json_literal_exits_2_naming_its_key(self, tmp_path, capsys, literal,
                                                            key, expected):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(MINIMAL, **{key: "@"})).replace('"@"', literal))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        value = float(literal.replace("Infinity", "inf"))
        assert capsys.readouterr().err == f"error: {key}: {expected}, got {value!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, where", [
        ('{\n  "schema_version": 1,\n  "name": "x",,\n}', "line 3, column 15: Expecting "
         "property name enclosed in double quotes"),
        ("# a YAML comment\nschema_version: 1\n", "line 1, column 1: Expecting value"),
        ('{"name": unquoted}', "line 1, column 10: Expecting value"),
    ], ids=["truncated", "yaml_comment", "unquoted_string"])
    def test_malformed_json_is_one_error_line_with_line_and_column(self, tmp_path, text,
                                                                   where):
        path = tmp_path / "broken.json"
        path.write_text(text)
        code, err = run_cli("run", "--config", str(path), "--out", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert err == f"error: config: not parseable JSON ({where})\n"

    def test_a_json_only_process_never_imports_yaml(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(MINIMAL))
        out = tmp_path / "out"
        script = (
            "import sys\n"
            "from fidelitylab.cli import main\n"
            "from fidelitylab.config import load_config\n"
            f"load_config({str(config)!r})\n"
            f"assert main(['run', '--config', {str(config)!r}, '--out', {str(out)!r}]) == 0\n"
            f"assert main(['classify', '--trace', {str(out / 'ticks.csv')!r},"
            " '--hard', '0.1']) == 0\n"
            "print('yaml' in sys.modules)\n"
            f"load_config({str(CONFIGS / 'demo.yaml')!r})\n"
            "print('yaml' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        assert done.stdout.splitlines()[-2:] == ["False", "True"]

    @staticmethod
    def _json_and_yaml_echoes(tmp_path, doc):
        """The echoes of ``doc`` loaded from a .json file and from its YAML dump."""
        as_json, as_yaml = tmp_path / "doc.json", tmp_path / "doc.yaml"
        as_json.write_text(json.dumps(doc))
        as_yaml.write_text(yaml.safe_dump(doc))
        return [repr(scenario_to_config(load_config(path))) for path in (as_json, as_yaml)]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_json_and_yaml_decode_alike_on_golden_scenarios(self, tmp_path, name):
        echo, again = self._json_and_yaml_echoes(tmp_path, scenario_to_config(SCENARIOS[name]()))
        assert echo == again

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_json_and_yaml_decode_alike_on_benchmark_documents(self, tmp_path, workload):
        runs = workloads.generate(workload, 1, str(ROOT), str(tmp_path))
        generated = sorted({run.config for run in runs if run.config.endswith(".json")})
        assert generated
        for path in generated:
            with open(path, encoding="utf-8") as fh:
                echo, again = self._json_and_yaml_echoes(tmp_path, json.load(fh))
            assert echo == again, path

    def test_report_echo_with_a_small_float_reloads_from_json(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["nodes"][0]["channel"]["noise_std"] = 1e-05
        out = tmp_path / "out"
        assert cmd_run(str(write_config(tmp_path, doc)), out=str(out)) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        echoed = tmp_path / "echo.json"
        echoed.write_text(json.dumps(report["config"]))
        assert "1e-05" in echoed.read_text()
        assert scenario_to_config(load_config(echoed)) == report["config"]

    def test_unparseable_file_reports_config_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("nodes: [unclosed\n  - ]")
        with pytest.raises(ConfigurationError):
            load_config(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_pure_python_loader_rejects_it_too(self, tmp_path, monkeypatch):
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        self.test_unparseable_file_reports_config_error(tmp_path)

    @pytest.mark.parametrize("text, detail", [
        ("a: [1, 2\nb: 3\n", "line 2, column 2: did not find expected ',' or ']'"),
        ("a: \x01\n", "unacceptable character #x0001: control characters are not allowed"),
    ], ids=["unclosed_flow_sequence", "control_character"])
    def test_malformed_yaml_is_one_error_line(self, tmp_path, text, detail):
        path = tmp_path / "broken.yaml"
        path.write_text(text)
        code, err = run_cli("run", "--config", str(path), "--out", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert err == f"error: config: not parseable YAML ({detail})\n"

    def test_malformed_yaml_is_the_batch_rows_one_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("a: [1, 2\nb: 3\n")
        message = "config: not parseable YAML (line 2, column 2: did not find expected ',' or ']')"
        out = tmp_path / "batch"
        code, err = run_cli("batch", "--glob", str(path), "--reps", "1", "--out", str(out))
        assert code == EXIT_RUNTIME
        assert err == f"error: {message}\nerror: 1 of 1 runs failed\n"
        with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
            [row] = csv.DictReader(fh)
        assert (row["exit_code"], row["error"]) == ("2", message)

    def test_libyaml_loader_is_used_when_present(self, monkeypatch):
        used = []
        real = yaml.load

        def recording(stream, Loader):
            used.append(Loader)
            return real(stream, Loader=Loader)

        monkeypatch.setattr(yaml, "load", recording)
        load_config(CONFIGS / "demo.yaml")
        assert used == [getattr(yaml, "CSafeLoader", yaml.SafeLoader)]

    @staticmethod
    def population(tmp_path, nodes=128):
        """A large generated population config, written as JSON."""
        kinds = [{"kind": "hard", "threshold": 0.1, "window": 20},
                 {"kind": "soft", "mean": 0.05, "std": 0.05, "window": 20},
                 {"kind": "best_effort", "bound": 0.1, "window": 20}]
        doc = dict(MINIMAL, name="population", duration=10.0)
        doc["environment"] = {"figures": [{"name": f"f{i}", "initial": 0.0} for i in range(8)]}
        doc["pool"] = {"total": nodes / 8, "join_allocation": 0.1, "solo_capacity": 0.0,
                       "floor": 0.1, "assist_quantum": 0.02, "calm_window": 600}
        doc["nodes"] = [
            {"name": f"n{i}", "figure": i % 8,
             "channel": {"gain": 1.1, "nominal_gain": 1.0, "sampling_period": 0.1},
             "contract": dict(kinds[i % 3]),
             "behavior": {"kind": "predictive", "k": 1, "window": 8} if i % 4 == 2
             else {"kind": "reactive", "gain": 1.0},
             "social": ("cooperative", "neutral", "individualistic")[i % 3],
             "member": True}
            for i in range(nodes)
        ]
        path = tmp_path / "population.json"
        path.write_text(json.dumps(doc, indent=1))
        return path

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.yaml"))
                             + ["population.json"])
    def test_both_loaders_decode_alike(self, tmp_path, monkeypatch, name):
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML built without libyaml")
        if name == "population.json":
            path = self.population(tmp_path)
        else:
            path = CONFIGS / name
        text = path.read_text()
        decoded = [yaml.load(text, Loader=yaml.CSafeLoader), yaml.load(text, Loader=yaml.SafeLoader)]
        if path.suffix == ".json":
            decoded.append(json.loads(text))
        # repr tells 1 from 1.0 and keeps key order, where == would not.
        assert len({repr(doc) for doc in decoded}) == 1
        # load_config reads a .json file as JSON, and the copy as YAML with
        # libyaml's loader, then with the pure-Python one.
        copy = tmp_path / "copy.yaml"
        copy.write_text(text)
        echoes = [repr(scenario_to_config(load_config(p))) for p in (path, copy)]
        monkeypatch.delattr(yaml, "CSafeLoader")
        echoes.append(repr(scenario_to_config(load_config(copy))))
        assert len(set(echoes)) == 1


#: A small population touching every section of the schema: a regime-
#: switching figure, a drifting channel, every contract kind, a detector, and
#: a controller whose catalog restages a behavior and a channel, grabs and
#: assists.
SOCIAL_POPULATION = {
    "schema_version": 1,
    "name": "social",
    "duration": 20.0,
    "dt": 0.1,
    "seed": 5,
    "environment": {
        "turbulence_threshold": 0.05,
        "regime_window": 10,
        "figures": [
            {"name": "load", "unit": "rps", "initial": 0.0,
             "process": {"kind": "regime_switching", "calm": {"kind": "constant"},
                         "turbulent": {"kind": "random_walk", "std": 0.1}, "hazard": 0.05}},
            {"name": "heat", "initial": 1.0, "process": {"kind": "linear", "rate": 0.01}},
        ],
    },
    "shocks": [{"at": 5.0, "figure": 0, "magnitude": 5.0, "recovery_window": 4.0}],
    "pool": {"total": 1.0, "join_allocation": 0.25, "solo_capacity": 0.5, "floor": 0.0,
             "assist_quantum": 0.1, "reciprocation_weight": 2.0, "calm_window": 20},
    "nodes": [
        {"name": "a", "figure": 0, "social": "cooperative", "member": True,
         "channel": {"gain": 1.1, "nominal_gain": 1.0, "noise_std": 0.01,
                     "bias_drift": {"kind": "random_walk", "std": 0.01}},
         "contract": {"kind": "hard", "threshold": 0.1, "window": 20},
         "detector": {"slack": 0.02, "threshold": 0.2, "reference": 0.0, "window": 50},
         "behavior": {"kind": "predictive", "k": 1, "window": 8},
         "controller": {
             "smoothing": 0.1, "hysteresis": 5,
             "safety": {"turbulence_threshold": 0.05, "horizon": 10},
             "learning": {"enabled": True, "algorithm": "ucb1", "exploration": 1.0,
                          "epsilon": 0.1},
             "catalog": [
                 {"id": "firm", "kind": "reconfigure",
                  "behavior": {"kind": "reactive", "gain": 1.0},
                  "channel": {"gain": 1.0, "sampling_period": 0.2}},
                 {"id": "grab", "kind": "social", "action": {"kind": "grab", "amount": 0.25}},
                 {"id": "help", "kind": "social",
                  "action": {"kind": "assist", "amount": 0.1, "target": "b"}},
             ]}},
        {"name": "b", "figure": 1, "social": "individualistic", "member": True,
         "contract": {"kind": "soft", "mean": 0.1, "std": 0.1, "at_risk_margin": 0.7},
         "behavior": {"kind": "active_non_purposeful",
                      "schedule": [{"bias": 0.01, "gain": 1.0, "resample": 0.2}]}},
        {"name": "c", "figure": 1,
         "contract": {"kind": "best_effort", "bound": 0.2},
         "behavior": {"kind": "purposeful_non_teleological", "policy": {"bias": 0.0}}},
    ],
    "report": {"antifragility_threshold": 0.02, "record_identity": False},
}

MUTATION_BASES = {
    "demo": yaml.safe_load((CONFIGS / "demo.yaml").read_text()),
    "social": SOCIAL_POPULATION,
}

#: Replacement values: a string, a list, a mapping, a bool, None, NaN, and a
#: float where an integer goes.
RETYPES = ["x", [1], {"a": 1}, True, None, math.nan, 1.5]

#: A problem line: a document path (a top-level key, then keys and indexes),
#: ": ", a message.
PROBLEM = re.compile(
    r"(config|schema_version|name|duration|dt|seed|environment|shocks|pool|nodes|report)"
    r"(\.\w+|\[\d+\])*: \S"
)


def _locations(node, path=()):
    """The path of every value in a document, at any depth."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _locations(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _mutants(draw):
    """A base document with one key deleted, one value retyped or one
    unknown key added, at any depth."""
    doc = copy.deepcopy(MUTATION_BASES[draw(st.sampled_from(sorted(MUTATION_BASES)))])
    op = draw(st.sampled_from(["delete", "retype", "add"]))
    if op == "add":
        mappings = [p for p in _locations(doc) if isinstance(_at(doc, p), dict)]
        _at(doc, draw(st.sampled_from(mappings)))["zz_unknown"] = 1
        return doc
    path = draw(st.sampled_from([p for p in _locations(doc) if p]))
    parent = _at(doc, path[:-1])
    if op == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(RETYPES))
    return doc


class TestConfigMutations:
    def test_bases_parse(self):
        for doc in MUTATION_BASES.values():
            parse_config(doc)

    @settings(max_examples=400, deadline=None)
    @given(_mutants())
    def test_a_mutant_parses_or_names_each_problem_once(self, doc):
        try:
            parse_config(doc)
        except ConfigurationError as exc:
            problems = exc.problems
            assert problems and len(set(problems)) == len(problems), problems
            for problem in problems:
                assert PROBLEM.match(problem), problem

    #: The single changes to configs/demo.yaml that each give one problem:
    #: (description, path to the changed key, new value, expected error path).
    CATALOG = ("nodes", 0, "controller", "catalog")
    DEMO_MUTANTS = {
        "catalog_behavior_kind": (CATALOG + (0, "behavior"), {"kind": "nope"},
                                  "nodes[0].controller.catalog[0].behavior.kind"),
        "catalog_channel_gain": (CATALOG + (0, "channel"), {"gain": "abc"},
                                 "nodes[0].controller.catalog[0].channel.gain"),
        "catalog_channel_period": (CATALOG + (0, "channel"), {"sampling_period": -1},
                                   "nodes[0].controller.catalog[0].channel.sampling_period"),
        "social_action_kind": (CATALOG + (3,), {"id": "s", "kind": "social",
                                                "action": {"kind": "steal"}},
                               "nodes[0].controller.catalog[3].action.kind"),
        "social_action_amount": (CATALOG + (3,), {"id": "s", "kind": "social",
                                                  "action": {"kind": "grab", "amount": "lots"}},
                                 "nodes[0].controller.catalog[3].action.amount"),
        "node_behavior_gain": (("nodes", 0, "behavior"), {"kind": "reactive", "gain": "x"},
                               "nodes[0].behavior.gain"),
        "figure_process_rate": (("environment", "figures", 0, "process"),
                                {"kind": "linear", "rate": "x"},
                                "environment.figures[0].process.rate"),
        "schedule_entry": (("nodes", 0, "behavior"),
                           {"kind": "active_non_purposeful", "schedule": ["a"]},
                           "nodes[0].behavior.schedule[0]"),
        "predictive_k": (CATALOG + (2, "behavior", "k"), 1.5,
                         "nodes[0].controller.catalog[2].behavior.k"),
        "predictive_k_negative": (CATALOG + (2, "behavior", "k"), -5,
                                  "nodes[0].controller.catalog[2].behavior.k"),
        "predictive_window_negative": (CATALOG + (2, "behavior", "window"), -1,
                                       "nodes[0].controller.catalog[2].behavior.window"),
        "dt_nan": (("dt",), math.nan, "dt"),
        "duration_inf": (("duration",), math.inf, "duration"),
        "learning_algorithm": (("nodes", 0, "controller", "learning", "algorithm"), "greedy",
                               "nodes[0].controller.learning.algorithm"),
    }

    @staticmethod
    def demo_mutant(tmp_path, name):
        path, value, _ = TestConfigMutations.DEMO_MUTANTS[name]
        doc = copy.deepcopy(MUTATION_BASES["demo"])
        if path[-1] == 3:  # a social strategy, on a cooperative pool member
            doc["pool"] = {"total": 1.0}
            doc["nodes"][0] |= {"social": "cooperative", "member": True}
            _at(doc, path[:-1]).append(value)
        else:
            _at(doc, path[:-1])[path[-1]] = value
        return write_config(tmp_path, doc)

    @pytest.mark.parametrize("name", sorted(DEMO_MUTANTS))
    def test_one_change_to_the_demo_is_one_error_line(self, tmp_path, capsys, name):
        config = self.demo_mutant(tmp_path, name)
        assert cmd_run(str(config), out=str(tmp_path / "out")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("error: ") == 1
        assert err.startswith(f"error: {self.DEMO_MUTANTS[name][2]}: ")

    @pytest.mark.parametrize("name", ["catalog_behavior_kind", "social_action_amount",
                                      "duration_inf"])
    def test_a_mutant_run_prints_no_traceback(self, tmp_path, name):
        config = self.demo_mutant(tmp_path, name)
        code, err = run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"))
        assert code in (EXIT_OK, EXIT_CONFIG)
        assert "Traceback" not in err

    #: One out-of-range value for each entry of ``engine.VALUE_RULES``, keyed
    #: by (spec class, document key): the base document, the path to the
    #: key and the value. ``minimal`` has no shock for a negative duration
    #: to push past the run.
    NODE_A, NODE_B = ("nodes", 0), ("nodes", 1)
    PROCESS = ("environment", "figures", 0, "process")
    RANGE_CASES = {
        ("Scenario", "dt"): ("social", ("dt",), -0.1),
        ("Scenario", "duration"): ("minimal", ("duration",), -1.0),
        ("Scenario", "seed"): ("demo", ("seed",), -1),
        ("Scenario", "environment.turbulence_threshold"):
            ("social", ("environment", "turbulence_threshold"), 0.0),
        ("Scenario", "environment.regime_window"):
            ("social", ("environment", "regime_window"), 0),
        ("RandomWalk", "std"): ("social", PROCESS + ("turbulent", "std"), -0.1),
        ("RegimeSwitching", "hazard"): ("social", PROCESS + ("hazard",), 1.5),
        ("ShockEvent", "recovery_window"): ("demo", ("shocks", 0, "recovery_window"), -8.0),
        ("PoolSpec", "total"): ("social", ("pool", "total"), 0.0),
        ("PoolSpec", "join_allocation"): ("social", ("pool", "join_allocation"), -0.25),
        ("PoolSpec", "solo_capacity"): ("social", ("pool", "solo_capacity"), -0.5),
        ("PoolSpec", "floor"): ("social", ("pool", "floor"), -0.1),
        ("PoolSpec", "assist_quantum"): ("social", ("pool", "assist_quantum"), 0.0),
        ("PoolSpec", "calm_window"): ("social", ("pool", "calm_window"), 0),
        ("IdentityClass", "threshold"): ("demo", NODE_A + ("contract", "threshold"), 0.0),
        ("IdentityClass", "mean"): ("social", NODE_B + ("contract", "mean"), -0.1),
        ("IdentityClass", "std"): ("social", NODE_B + ("contract", "std"), 0.0),
        ("IdentityClass", "bound"): ("social", ("nodes", 2, "contract", "bound"), -0.2),
        ("ContractSpec", "window"): ("demo", NODE_A + ("contract", "window"), 0),
        ("DetectorConfig", "slack"): ("demo", NODE_A + ("detector", "slack"), -0.02),
        ("DetectorConfig", "threshold"): ("demo", NODE_A + ("detector", "threshold"), -1.0),
        ("DetectorConfig", "window"): ("social", NODE_A + ("detector", "window"), 0),
        ("CorrectiveAction", "gain"):
            ("social", NODE_B + ("behavior", "schedule", 0, "gain"), 0.0),
        ("CorrectiveAction", "resample"):
            ("social", NODE_B + ("behavior", "schedule", 0, "resample"), -0.2),
        ("Reactive", "gain"): ("demo", NODE_A + ("behavior", "gain"), 2.5),
        ("Predictive", "k"): ("demo", CATALOG + (2, "behavior", "k"), 0),
        ("ControllerSpec", "smoothing"): ("social", NODE_A + ("controller", "smoothing"), 1.5),
        ("ControllerSpec", "hysteresis"): ("demo", NODE_A + ("controller", "hysteresis"), 0),
        ("SafetyPredicate", "turbulence_threshold"):
            ("social", NODE_A + ("controller", "safety", "turbulence_threshold"), -0.05),
        ("SafetyPredicate", "horizon"):
            ("social", NODE_A + ("controller", "safety", "horizon"), 0),
    }

    def test_every_range_rule_has_a_case(self):
        assert set(self.RANGE_CASES) == {
            (cls.__name__, key) for cls, rules in engine.VALUE_RULES.items() for key in rules
        }

    @pytest.mark.parametrize("entry", sorted(RANGE_CASES), ids=".".join)
    def test_each_range_rule_is_one_error_line_at_its_key(self, tmp_path, capsys, entry):
        base, path, value = self.RANGE_CASES[entry]
        doc = copy.deepcopy({"minimal": MINIMAL, **MUTATION_BASES}[base])
        _at(doc, path[:-1])[path[-1]] = value
        config = write_config(tmp_path, doc)
        assert cmd_run(str(config), out=str(tmp_path / "out")) == EXIT_CONFIG
        rules = {cls.__name__: rules for cls, rules in engine.VALUE_RULES.items()}
        message = rules[entry[0]][entry[1]][0]
        key = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]
        assert capsys.readouterr().err == f"error: {key}: {message}\n"

    @pytest.mark.parametrize("path, value, lines", [
        (NODE_A + ("detector",), {"slack": "x", "threshold": -1}, [
            "nodes[0].detector.slack: expected a finite number, got 'x'",
            "nodes[0].detector.threshold: must be > 0",
        ]),
        (PROCESS, {"kind": "regime_switching", "calm": {"kind": "random_walk", "std": -1},
                   "turbulent": {"kind": "random_walk", "std": "x"}}, [
            "environment.figures[0].process.turbulent.std: expected a finite number, got 'x'",
            "environment.figures[0].process.calm.std: must be >= 0",
        ]),
    ], ids=["detector", "regime_switching"])
    def test_a_mistyped_key_hides_no_range_problem_on_a_sibling(self, tmp_path, capsys,
                                                                path, value, lines):
        doc = copy.deepcopy(SOCIAL_POPULATION)
        _at(doc, path[:-1])[path[-1]] = value
        assert cmd_run(str(write_config(tmp_path, doc)), out=str(tmp_path / "out")) == EXIT_CONFIG
        assert capsys.readouterr().err == "".join(f"error: {line}\n" for line in lines)
