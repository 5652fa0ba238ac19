"""The fidelitylab benchmark: one workload, closed loop, outputs checked.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Each run is one in-process ``fidelity-lab run --config F --seed S --out D``
(``fidelitylab.cli.main``); the next starts when it returns. A pass repeats
rounds of the workload's runs (``workloads.py``) until their wall time
reaches ``--seconds``. Everything runs in this one process, except
the set-up probe, which needs a fresh interpreter each time.

While the timed runs go, a timer signal times a small fixed probe every
25 ms (``yardstick.py``); end-to-end times are each run's wall time, less
the probes, rescaled by the mean probe time over it to a host of steady
speed. This cancels the shared host's slow spells.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs an untraced
pass for half the time, replays the same runs under the outside-in tracer
(``tracer.py``), checks that both produced the same bytes, and prints the
per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")

#: Fresh interpreters timed per run; setup_s is their median.
SETUP_REPEATS = 7
#: The exports the determinism digest covers (criterion 9's set).
DIGEST_FILES = ("ticks.csv", "episodes.csv", "report.json")
#: Failed runs listed by name; a broken program would otherwise list hundreds.
MAX_FAILURE_LINES = 20

sys.path.insert(0, HERE)

from workloads import WORKLOADS, RunSpec, generate, run_seed  # noqa: E402
from yardstick import REFERENCE_S, HostSampler  # noqa: E402


@dataclass
class Outcome:
    spec: RunSpec
    seed: int
    wall: float
    problems: list[str] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)  # export name -> sha256
    started: float = 0.0  # time.perf_counter() when the run began
    probes_s: float = 0.0  # host probes taken during the run (HostSampler)
    host: float = 0.0  # their mean time; 0 when the run was not sampled

    @property
    def program_s(self) -> float:
        """Wall time less the probes taken during the run."""
        return self.wall - self.probes_s

    @property
    def scaled(self) -> float:
        """program_s rescaled to a host where a probe takes REFERENCE_S."""
        return self.program_s * REFERENCE_S / self.host if self.host else self.program_s


def file_digests(out: str) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def check_outputs(spec: RunSpec, out: str) -> list[str]:
    """The per-run output checks; an empty list means the run passed."""
    try:
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        with open(os.path.join(out, "episodes.csv"), encoding="utf-8") as fh:
            episode_rows = sum(1 for _ in fh) - 1
    except (OSError, ValueError) as exc:
        return [f"unreadable exports: {exc}"]
    problems = []
    if report.get("pool_violations") != 0:
        problems.append(f"pool_violations = {report.get('pool_violations')}")
    if episode_rows != spec.nodes * spec.shocks:
        problems.append(f"episodes.csv has {episode_rows} rows, expected "
                        f"{spec.nodes} nodes x {spec.shocks} shocks")
    if spec.shocks >= 4 and "verdict" not in report.get("antifragility", {}):
        problems.append("no antifragility verdict with >= 4 shocks")
    return problems


def run_one(cli, spec: RunSpec, seed: int, out: str, tracer=None) -> Outcome:
    """One closed-loop run; only the `fidelity-lab run` call is timed."""
    shutil.rmtree(out, ignore_errors=True)
    argv = ["run", "--config", spec.config, "--seed", str(seed), "--out", out]
    span = tracer.begin("run") if tracer is not None else None
    started = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a raising run is a failed run, not a failed benchmark
        traceback.print_exc()
        code = "an exception"
    finally:
        wall = time.perf_counter() - started
        if span is not None:
            tracer.finish(span)
    outcome = Outcome(spec, seed, wall, started=started)
    if code != 0:
        outcome.problems.append(f"exited with {code}")
    else:
        outcome.problems.extend(check_outputs(spec, out))
        outcome.files = file_digests(out)
    return outcome


def closed_loop(cli, round_specs, seed: int, budget: float, out: str,
                host: Optional[HostSampler] = None) -> list[Outcome]:
    """Whole rounds of runs until their wall time reaches budget; with the
    host sampled, each run gets the probes taken during it."""
    outcomes: list[Outcome] = []
    spent = 0.0
    index = 0
    while spent < budget:
        for spec in round_specs:
            outcome = run_one(cli, spec, run_seed(seed, index), out)
            if host is not None:
                outcome.probes_s, outcome.host = host.over(
                    outcome.started, outcome.started + outcome.wall)
            outcomes.append(outcome)
            spent += outcome.wall
        index += 1
    return outcomes


def compare_exports(expected: Outcome, got: Outcome, what: str) -> None:
    """Fail `got` when its exports differ from those of an identical run."""
    if not got.problems and got.files != expected.files:
        changed = sorted(n for n in set(expected.files) | set(got.files)
                         if expected.files.get(n) != got.files.get(n))
        got.problems.append(f"{what}: {', '.join(changed)} differ")


def export_digest(outcomes: list[Outcome], count: int) -> str:
    """SHA-256 over the digest files of the pass's first `count` runs."""
    h = hashlib.sha256()
    for outcome in outcomes[:count]:
        for name in DIGEST_FILES:
            h.update(f"{name}:{outcome.files.get(name, '-')}\n".encode())
    return h.hexdigest()


def measure_setup(configs: list[str]) -> list[tuple[float, float]]:
    """(wall less probes, mean probe time) of fresh interpreters that import
    and load every config, each sampling the host as it goes."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, *configs]
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr.decode()}")
        host = json.loads(proc.stdout.decode().splitlines()[-1])
        samples.append((wall - host["probes_s"], host["host"]))
    return samples


def us_per_node_tick(outcomes: list[Outcome]) -> float:
    """Median over runs of wall time per node-tick, in microseconds."""
    return statistics.median(o.scaled / (o.spec.nodes * o.spec.ticks) for o in outcomes) * 1e6


def growth_ratios(outcomes: list[Outcome]) -> list[float]:
    """Each large run's cost per node-tick over that of the small runs just
    before it: neighbours in time, so slow drift of the host cancels."""
    ratios, small = [], []
    for outcome in outcomes:
        if outcome.spec.large:
            ratios.append(us_per_node_tick([outcome]) / us_per_node_tick(small))
            small = []
        else:
            small.append(outcome)
    return ratios


def describe(outcomes: list[Outcome]) -> str:
    spec = outcomes[0].spec
    return f"{spec.nodes} node(s) x {spec.ticks} ticks, {len(outcomes)} runs"


# -- metrics ------------------------------------------------------------------


def end_to_end(outcomes, setup_samples, lines) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics. Every time in them is rescaled (Outcome.scaled)."""
    large = [o for o in outcomes if o.spec.large]
    small = [o for o in outcomes if not o.spec.large]
    rounds: dict[int, list[Outcome]] = {}
    for o in outcomes:
        rounds.setdefault(o.seed, []).append(o)
    # Node-ticks per second of each round, then the median over rounds, so a
    # burst of contention on the host costs one round, not the whole pass.
    round_rates = [sum(o.spec.nodes * o.spec.ticks for o in runs) / sum(o.scaled for o in runs)
                   for runs in rounds.values()]
    node_ticks = sum(o.spec.nodes * o.spec.ticks for o in outcomes)
    wall = sum(o.program_s for o in outcomes)
    setup = [wall * REFERENCE_S / host if host else wall for wall, host in setup_samples]
    hosts = [o.host for o in outcomes if o.host]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "node_ticks_per_s": (statistics.median(round_rates), "node-ticks/s"),
        "scenario_s.p50": (statistics.median(o.scaled for o in large), "s"),
        "node_tick_growth": (statistics.median(growth_ratios(outcomes)), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    if hosts:
        lines.append(f"  host speed: mean probe {statistics.median(hosts) * 1e3:.3f} ms, median "
                     f"over runs (range {min(hosts) * 1e3:.3f}-{max(hosts) * 1e3:.3f}); times are "
                     f"rescaled to {REFERENCE_S * 1e3:g} ms; probes took "
                     f"{sum(o.probes_s for o in outcomes):.3f} s")
    lines.append(f"  setup_s: median of {len(setup)} fresh interpreters; unscaled median "
                 f"{statistics.median(w for w, _ in setup_samples):.4f} s")
    lines.append(f"  node_ticks_per_s: median of {len(rounds)} rounds; {node_ticks} node-ticks "
                 f"in {wall:.3f} s unscaled over {len(outcomes)} timed runs")
    lines.append(f"  scenario_s.p50: n = {len(large)} runs ({describe(large)}); unscaled "
                 f"median {statistics.median(o.program_s for o in large):.4f} s")
    lines.append(f"  node_tick_growth: median of {len(large)} large/small pairs; medians "
                 f"{us_per_node_tick(large):.1f} us/node-tick at {describe(large)}, "
                 f"{us_per_node_tick(small):.1f} at {describe(small)}")
    return metrics


def per_layer(summary, counters, overhead_s, traced_wall, failed, attempted, absent, lines):
    def calls(span):
        return summary.get(span, {}).get("calls", 0)

    def self_s(span):
        return summary.get(span, {}).get("self_s", 0.0)

    def share(part, whole):
        return part / whole if whole else 0.0

    by_kind = [v for k, v in summary.items() if k.startswith("identity.check_contract.")]
    summary["identity.check_contract"] = {"calls": sum(v["calls"] for v in by_kind),
                                          "self_s": sum(v["self_s"] for v in by_kind)}

    m: dict[str, tuple[float, str]] = {}

    def timed(span, with_calls=True):
        if with_calls:
            m[f"{span}.calls"] = (calls(span), "count")
        m[f"{span}.self_s"] = (self_s(span), "s")

    timed("environment.label_regime")
    m["environment.label_regime.states_scanned"] = (
        counters["environment.label_regime.states_scanned"], "count")
    timed("environment.step_environment")
    timed("reflection.sense")
    timed("identity.check_contract")
    timed("identity.contract_utilization")
    for kind in ("hard", "soft", "best_effort"):
        timed(f"identity.check_contract.{kind}", with_calls=False)
    all_node_ticks = counters["engine.node_ticks"] + counters["engine.calibration_node_ticks"]
    window_passes = calls("identity.check_contract") + calls("identity.contract_utilization")
    m["identity.samples_scanned"] = (counters["identity.samples_scanned"], "count")
    m["identity.checks_per_node_tick"] = (share(window_passes, all_node_ticks), "ratio")
    timed("identity.classify_trace")
    timed("identity.detector_update")
    m["identity.detector_update.fired"] = (counters["identity.detector_update.fired"], "count")
    timed("behavior.reactive.act")
    timed("behavior.predictive.act")
    m["behavior.predictive.fallback_ratio"] = (
        share(counters["behavior.predictive.fallbacks"], calls("behavior.predictive.act")), "ratio")
    for op in ("monitor_step", "assess_safety", "mode_step", "select", "update"):
        timed(f"controller.{op}")
    m["controller.mode_switches"] = (counters["controller.mode_switches"], "count")
    m["controller.resilient_share"] = (
        share(counters["controller.resilient_steps"], calls("controller.mode_step")), "ratio")
    timed("collective.decide_social_action")
    timed("collective.apply_social_action")
    m["collective.apply_social_action.accepted_ratio"] = (
        share(counters["collective.apply_social_action.accepted"],
              calls("collective.apply_social_action")), "ratio")
    for op in ("free_capacity", "reserve", "grab", "assist", "join", "leave", "conserved"):
        timed(f"collective.pool.{op}")
    m["engine.node_ticks"] = (counters["engine.node_ticks"], "count")
    m["engine.calibration_node_ticks"] = (counters["engine.calibration_node_ticks"], "count")
    m["engine.calibration_s"] = (summary.get("engine.calibration", {}).get("total_s", 0.0), "s")
    for span in ("engine.run_scenario", "engine.episode_cost",
                 "engine.compute_recovery_metrics", "engine.antifragility_score",
                 "config.load_config", "config.scenario_to_config",
                 "reporting.write_ticks_csv", "reporting.write_episodes_csv",
                 "reporting.write_pool_csv", "reporting.write_report_json",
                 "reporting.write_learning_state"):
        timed(span, with_calls=False)
    m["reporting.bytes_written"] = (counters["reporting.bytes_written"], "bytes")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.absent_targets"] = (len(absent), "count")
    m["failed_share"] = (share(failed, attempted), "ratio")

    lines.append(f"  traced pass {traced_wall:.3f} s; shares of it: "
                 f"calibration {share(m['engine.calibration_s'][0], traced_wall):.1%}, "
                 f"label_regime self {share(self_s('environment.label_regime'), traced_wall):.1%}, "
                 f"check_contract+contract_utilization self "
                 f"{share(self_s('identity.check_contract') + self_s('identity.contract_utilization'), traced_wall):.1%}")
    if all_node_ticks:
        lines.append(f"  {share(traced_wall * 1e6, counters['engine.node_ticks']):.1f} "
                     f"us per main-run node-tick (traced)")
    for name in absent:
        lines.append(f"  absent: {name}")
    return m


# -- the command --------------------------------------------------------------


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(args: argparse.Namespace, work: str) -> dict:
    from fidelitylab import cli

    round_specs = generate(args.workload, args.seed, ROOT, work)
    configs = sorted({spec.config for spec in round_specs})
    out = os.path.join(work, "out")
    lines = [f"fidelitylab benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}"]

    # Warm-up run, untimed; the pass starts with the same run, so the two
    # are compared byte for byte (criterion 9).
    warm = run_one(cli, round_specs[0], run_seed(args.seed, 0), out)
    if args.trace:
        untraced = closed_loop(cli, round_specs, args.seed, args.seconds / 2, out)
        from tracer import Tracer

        tracer = Tracer()
        with tracer:
            traced = []
            for index, outcome in enumerate(untraced):
                tracer.run_id = index
                traced.append(run_one(cli, outcome.spec, outcome.seed, out, tracer))
        spans_path = os.path.join(STATE_DIR, f"trace-{args.workload}.npz")
        tracer.write(spans_path)
        for plain, with_trace in zip(untraced, traced):
            compare_exports(plain, with_trace, "traced exports differ from the untraced run")
        outcomes = [warm, *untraced, *traced]
        timed = untraced
    else:
        setup_samples = measure_setup(configs)
        with HostSampler() as host:
            timed = closed_loop(cli, round_specs, args.seed, args.seconds, out, host)
        outcomes = [warm, *timed]
    compare_exports(warm, timed[0], "rerun of the same scenario and seed")

    failed = sum(1 for o in outcomes if o.problems)
    if args.trace:
        untraced_wall = sum(o.wall for o in untraced)
        traced_wall = sum(o.wall for o in traced)
        metrics = per_layer(tracer.summary(), tracer.counters, traced_wall - untraced_wall,
                            traced_wall, failed, len(outcomes), tracer.absent, lines)
        lines.append(f"  spans: {len(tracer.start)} written to {os.path.relpath(spans_path, ROOT)}")
    else:
        metrics = end_to_end(timed, setup_samples, lines)
    lines.append(f"  failed_share: {failed} failed of {len(outcomes)} attempted")
    lines.append(f"  export digest (round 0: {', '.join(DIGEST_FILES)}): "
                 f"sha256:{export_digest(timed, len(round_specs))}")
    failures = [f"  FAILED {os.path.basename(o.spec.config)} seed {o.seed}: {problem}"
                for o in outcomes for problem in o.problems]
    lines.extend(failures[:MAX_FAILURE_LINES])
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:<{width}}  {value:.6g} {unit}")
    print("\n".join(lines))
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fidelitylab", "__init__.py")):
        print(f"error: no fidelitylab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(STATE_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=STATE_DIR)
    try:
        result = bench(args, work)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
