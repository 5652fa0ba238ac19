"""Command-line entry point: run scenarios, classify traces, batch experiments.

Exit codes are the only success/failure channel: 0 on success, 2 for
configuration/validation problems, 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import glob as globmod
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .config import check_learning_state, load_config, scenario_to_config
from .engine import check_run, run_scenario
from .errors import ConfigurationError, FidelityLabError
from .identity import IdentityClass, classify_trace, mean_std
from .reporting import export_run

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _load_resume(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError([f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"])
    return check_learning_state(doc, path)


def cmd_run(
    config_path: str,
    seed: Optional[int] = None,
    out: str = ".",
    resume: Optional[str] = None,
) -> int:
    try:
        scenario = load_config(config_path, seed_override=seed)
        resume_doc = _load_resume(resume) if resume else None
    except ConfigurationError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # The inputs are checked, and an --out that cannot be a directory
        # fails, before the run; a failed check leaves no directory behind.
        check_run(scenario, resume_doc, resume)
        os.makedirs(out, exist_ok=True)
        result = run_scenario(scenario, resume_learning=resume_doc, resume_source=resume)
        result.config_echo = scenario_to_config(scenario)
        export_run(result, out)
    except ConfigurationError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except FidelityLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: cannot write exports to {out}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _parse_trace_csv(path: str) -> list[float]:
    """Read the deltas of a trace; needs a header with time and delta
    columns, and checks every row."""
    deltas = []
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline().strip()
        if not header_line:
            raise ConfigurationError([f"{path}:1: empty trace file"])
        header = [h.strip() for h in header_line.split(",")]
        if "time" not in header or "delta" not in header:
            raise ConfigurationError(
                [f"{path}:1: header must contain time and delta columns"]
            )
        t_idx = header.index("time")
        d_idx = header.index("delta")
        f_idx = header.index("figure") if "figure" in header else None
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                float(cells[t_idx])
                if f_idx is not None:
                    int(cells[f_idx])
                delta = float(cells[d_idx])
            except (IndexError, ValueError):
                raise ConfigurationError([f"{path}:{lineno}: malformed trace row"])
            if not math.isfinite(delta):
                raise ConfigurationError([f"{path}:{lineno}: non-finite delta"])
            deltas.append(delta)
    if not deltas:
        raise ConfigurationError([f"{path}: trace holds no samples"])
    return deltas


def cmd_classify(
    trace_path: str,
    hard: Optional[float] = None,
    soft: Optional[tuple[float, float]] = None,
    best_effort: Optional[float] = None,
    window: Optional[int] = None,
) -> int:
    given = [v for v in (hard, soft, best_effort) if v is not None]
    if len(given) != 1:
        print("error: exactly one of --hard / --soft / --best-effort", file=sys.stderr)
        return EXIT_CONFIG
    if hard is not None:
        candidate = IdentityClass.hard(hard)
        params = {"threshold": hard}
    elif soft is not None:
        candidate = IdentityClass.soft(soft[0], soft[1])
        params = {"mean": soft[0], "std": soft[1]}
    else:
        candidate = IdentityClass.best_effort(best_effort)
        params = {"bound": best_effort}
    problems = candidate.validate()
    if window is not None and window < 1:
        problems.append("--window must be >= 1")
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        deltas = _parse_trace_csv(trace_path)
        if window is not None:
            if window > len(deltas):
                raise ConfigurationError([f"window {window} exceeds trace length {len(deltas)}"])
            deltas = deltas[-window:]
        mags = np.abs(deltas)
        mean, std = mean_std(mags)
        print(
            json.dumps(
                {
                    "class": classify_trace(mags, candidate).value,
                    "parameters": params,
                    "window_stats": {
                        "samples": len(mags),
                        "max_abs": float(mags.max()),
                        "mean_abs": float(mean),
                        "std_abs": float(std),
                    },
                },
                sort_keys=True,
            )
        )
    except ConfigurationError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def _run_one_batch_child(args: tuple) -> tuple[str, int, Optional[dict]]:
    """One (config, seed) run for the batch command; returns summary fields."""
    config_path, seed, outdir = args
    code = cmd_run(config_path, seed=seed, out=outdir)
    if code != EXIT_OK:
        return config_path, code, None
    with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    return config_path, code, report


def cmd_batch(
    pattern: str,
    reps: int,
    seed_base: int = 0,
    jobs: int = 1,
    out: str = "batch-out",
) -> int:
    configs = sorted(globmod.glob(pattern))
    if not configs:
        print(f"error: no configs match {pattern!r}", file=sys.stderr)
        return EXIT_CONFIG
    if reps < 1:
        print("error: --reps must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    tasks = []
    for config_path in configs:
        stem = os.path.splitext(os.path.basename(config_path))[0]
        for rep in range(reps):
            seed = seed_base + rep
            outdir = os.path.join(out, f"{stem}-seed{seed}")
            tasks.append((config_path, seed, outdir))

    # More workers than runs or cores only costs forks.
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    results = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one_batch_child, tasks))
    else:
        results = [_run_one_batch_child(task) for task in tasks]

    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot write the summary to {out}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    failures = 0
    rows = []
    for (config_path, seed, outdir), (_, code, report) in zip(tasks, results):
        if code != EXIT_OK or report is None:
            failures += 1
            continue
        anti = report.get("antifragility", {})
        costs = _mean_episode_cost(outdir)
        rows.append(
            (
                report.get("scenario", os.path.basename(config_path)),
                seed,
                anti.get("verdict", ""),
                anti.get("normalized_slope", ""),
                costs,
            )
        )
    rows.sort(key=lambda r: (r[0], r[1]))
    summary = os.path.join(out, "summary.csv")
    with open(summary, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("scenario,seed,verdict,normalized_slope,mean_episode_cost\n")
        for scenario, seed, verdict, slope, cost in rows:
            slope_cell = repr(float(slope)) if slope != "" else ""
            cost_cell = repr(float(cost)) if cost is not None else ""
            fh.write(f"{scenario},{seed},{verdict},{slope_cell},{cost_cell}\n")
    if failures:
        print(f"error: {failures} of {len(tasks)} runs failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _mean_episode_cost(outdir: str) -> Optional[float]:
    path = os.path.join(outdir, "episodes.csv")
    if not os.path.exists(path):
        return None
    costs = []
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            cells = line.strip().split(",")
            if len(cells) >= 3 and cells[2]:
                costs.append(float(cells[2]))
    if not costs:
        return None
    return sum(costs) / len(costs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fidelity-lab",
        description="Deterministic open-system fidelity and resilience lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one scenario")
    run.add_argument("--config", required=True, help="scenario file (YAML or JSON)")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--out", default=".", help="output directory")
    run.add_argument("--resume", default=None, help="learning state JSON to reload")

    classify = sub.add_parser("classify", help="classify a delta-trace CSV")
    classify.add_argument("--trace", required=True)
    group = classify.add_mutually_exclusive_group(required=True)
    group.add_argument("--hard", type=float, metavar="T")
    group.add_argument("--soft", type=float, nargs=2, metavar=("T", "SIGMA"))
    group.add_argument("--best-effort", type=float, metavar="B")
    classify.add_argument("--window", type=int, default=None)

    batch = sub.add_parser("batch", help="run a glob of configs with repeated seeds")
    batch.add_argument("--glob", required=True, dest="pattern")
    batch.add_argument("--reps", type=int, required=True)
    batch.add_argument("--seed-base", type=int, default=0)
    batch.add_argument("--jobs", type=int, default=1)
    batch.add_argument("--out", default="batch-out")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, seed=args.seed, out=args.out, resume=args.resume)
    if args.command == "classify":
        soft = tuple(args.soft) if args.soft is not None else None
        return cmd_classify(
            args.trace, hard=args.hard, soft=soft,
            best_effort=args.best_effort, window=args.window,
        )
    return cmd_batch(
        args.pattern, reps=args.reps, seed_base=args.seed_base,
        jobs=args.jobs, out=args.out,
    )


if __name__ == "__main__":
    sys.exit(main())
