import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from fidelitylab import config as config_mod

from fidelitylab.cli import (
    EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, cmd_batch, cmd_classify, cmd_run, main,
)
from fidelitylab.config import load_config, parse_config, scenario_to_config
from fidelitylab.errors import ConfigurationError

CONFIGS = Path(__file__).parent.parent / "configs"
SRC = Path(__file__).parent.parent / "src"

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

    def test_echo_round_trips_exactly(self):
        scenario = parse_config(LEARNING)
        echo = scenario_to_config(scenario)
        again = parse_config(echo)
        assert scenario_to_config(again) == echo


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

    def test_truncated_resume_exits_2_naming_line_and_column(self, tmp_path):
        config = write_config(tmp_path, LEARNING)
        state = tmp_path / "state.json"
        state.write_text('{\n  "n0": {"regimes": ')
        code, err = run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"),
                            "--resume", str(state))
        assert code == EXIT_CONFIG
        assert err == f"error: {state}:2:21: Expecting value\n"
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
        assert summary[0] == "scenario,seed,verdict,normalized_slope,mean_episode_cost"
        assert len(summary) == 4

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

    def test_unparseable_file_reports_config_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("nodes: [unclosed\n  - ]")
        with pytest.raises(ConfigurationError):
            load_config(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_pure_python_loader_rejects_it_too(self, tmp_path, monkeypatch):
        monkeypatch.setattr(config_mod, "SAFE_LOADER", yaml.SafeLoader)
        self.test_unparseable_file_reports_config_error(tmp_path)

    def test_libyaml_loader_is_used_when_present(self):
        assert config_mod.SAFE_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)

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
        # repr tells 1 from 1.0 and keeps key order, where == would not.
        assert (repr(yaml.load(text, Loader=yaml.CSafeLoader))
                == repr(yaml.load(text, Loader=yaml.SafeLoader)))
        echoes = []
        for loader in (yaml.CSafeLoader, yaml.SafeLoader):
            monkeypatch.setattr(config_mod, "SAFE_LOADER", loader)
            echoes.append(repr(scenario_to_config(load_config(path))))
        assert echoes[0] == echoes[1]
