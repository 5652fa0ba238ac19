"""Command-line entry point: run scenarios, classify traces, batch experiments.

Exit codes are the only success/failure channel: 0 on success, 2 for
configuration/validation problems, 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import glob as globmod
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .config import check_learning_state, load_config, read_text, scenario_to_config
from .engine import RunResult, Scenario, run_scenario, validate_resume
from .errors import ConfigurationError, FidelityLabError
from .identity import CONTRACT_LEVELS, IdentityClass, IdentityKind, classify_trace, mean_std
from .reporting import export_run

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _fail(problems, code: int = EXIT_CONFIG) -> int:
    """Print each problem as an ``error:`` line; return the exit code."""
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return code


def _load_resume(path: str) -> dict:
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigurationError([f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"])
    return check_learning_state(doc, path)


def cmd_run(config_path: str, seed: Optional[int] = None, out: str = ".",
            resume: Optional[str] = None) -> int:
    code, problems, _, _ = _run(config_path, seed, out, resume)
    return _fail(problems, code)


def _run(config_path: str, seed: Optional[int], out: str, resume: Optional[str] = None
         ) -> tuple[int, list[str], Optional[Scenario], Optional[RunResult]]:
    """``cmd_run``'s exit code and the problems it prints, the scenario
    once its file parsed, and the run's result once it is exported."""
    scenario = None
    try:
        # load_config has validated the scenario. The resume document is
        # checked against it, and an --out that cannot be a directory fails,
        # before the run, so a failed check leaves no directory behind.
        scenario = load_config(config_path, seed_override=seed)
        resume_doc = _load_resume(resume) if resume else None
        if resume_doc:
            problems = validate_resume(scenario, resume_doc)
            if problems:
                raise ConfigurationError([f"{resume}: {p}" for p in problems])
    except ConfigurationError as exc:
        return EXIT_CONFIG, exc.problems, scenario, None
    except OSError as exc:
        return EXIT_CONFIG, [str(exc)], scenario, None
    try:
        os.makedirs(out, exist_ok=True)
        result = run_scenario(scenario, resume_learning=resume_doc, resume_source=resume)
        result.config_echo = scenario_to_config(scenario)
        export_run(result, out)
    except ConfigurationError as exc:
        return EXIT_CONFIG, exc.problems, scenario, None
    except FidelityLabError as exc:
        return EXIT_RUNTIME, [str(exc)], scenario, None
    except OSError as exc:
        return EXIT_RUNTIME, [f"cannot write exports to {out}: {exc}"], scenario, None
    return EXIT_OK, [], scenario, result


def _parse_trace_csv(path: str) -> list[float]:
    """Read the deltas of a trace; needs a header with time and delta
    columns, and checks every row."""
    deltas = []
    header_line, *rows = read_text(path).split("\n")
    header_line = header_line.strip()
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
    for lineno, line in enumerate(rows, start=2):
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
    flags = {"--hard": (IdentityKind.HARD_RT, hard), "--soft": (IdentityKind.SOFT_RT, soft),
             "--best-effort": (IdentityKind.BEST_EFFORT, best_effort)}
    given = [(flag, *spec) for flag, spec in flags.items() if spec[1] is not None]
    if len(given) != 1:
        return _fail(["exactly one of --hard / --soft / --best-effort"])
    [(flag, kind, value)] = given
    levels = tuple(value) if kind is IdentityKind.SOFT_RT else (value,)
    pairs = list(zip(CONTRACT_LEVELS[kind], levels))
    candidate = IdentityClass(kind, **{field: v for (_, field), v in pairs})
    params = {key: v for (key, _), v in pairs}
    problems = [] if all(v > 0 for v in levels) else [f"{flag}: must be > 0"]
    if window is not None and window < 1:
        problems.append("--window must be >= 1")
    if problems:
        return _fail(problems)
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
        return _fail(exc.problems)
    except OSError as exc:
        return _fail([exc])
    return EXIT_OK


def _run_one_batch_child(args: tuple) -> tuple:
    """One (config, seed) run for the batch command: its ``summary.csv``
    row, which is all a batch keeps of the run. It prints the run's error
    messages, and a failed run's row holds them with empty result cells."""
    config_path, seed, outdir = args
    code, problems, scenario, result = _run(config_path, seed, outdir)
    _fail(problems)
    name = scenario.name if scenario is not None else ""
    if result is None:
        return (config_path, name, seed, "", "", "", code, "; ".join(problems))
    anti, costs = result.antifragility, [float(m.cost) for m in result.recovery]
    return (
        config_path, name, seed,
        anti.verdict if anti else "", repr(float(anti.normalized_slope)) if anti else "",
        repr(sum(costs) / len(costs)) if costs else "", code, "",
    )


def cmd_batch(
    pattern: str,
    reps: int,
    seed_base: int = 0,
    jobs: int = 1,
    out: str = "batch-out",
) -> int:
    configs = sorted(globmod.glob(pattern))
    if not configs:
        return _fail([f"no configs match {pattern!r}"])
    if reps < 1:
        return _fail(["--reps must be >= 1"])
    if jobs < 1:
        return _fail(["--jobs must be >= 1"])
    if seed_base < 0:
        return _fail(["--seed-base must be >= 0"])
    # Each run writes to {stem}-seed{seed}, so configs that share a stem
    # would overwrite each other's exports.
    stems: dict[str, list[str]] = {}
    for config_path in configs:
        stem = os.path.splitext(os.path.basename(config_path))[0]
        stems.setdefault(stem, []).append(config_path)
    clashes = [paths for paths in stems.values() if len(paths) > 1]
    if clashes:
        return _fail([f"{', '.join(paths)}: configs share a file stem, so their runs "
                      f"would write to the same directories" for paths in clashes])
    tasks = [
        (config_path, seed_base + rep, os.path.join(out, f"{stem}-seed{seed_base + rep}"))
        for stem, [config_path] in stems.items()
        for rep in range(reps)
    ]

    # More workers than runs or cores only costs forks.
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_one_batch_child, tasks))
    else:
        rows = [_run_one_batch_child(task) for task in tasks]

    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        return _fail([f"cannot write the summary to {out}: {exc}"], EXIT_RUNTIME)
    # Every (config, seed) gets a row; a failed run's holds its exit code and errors.
    rows.sort(key=lambda r: (r[0], r[2]))
    failures = sum(row[6] != EXIT_OK for row in rows)
    with open(os.path.join(out, "summary.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("config", "scenario", "seed", "verdict", "normalized_slope",
                         "mean_episode_cost", "exit_code", "error"))
        writer.writerows(rows)
    if failures:
        return _fail([f"{failures} of {len(tasks)} runs failed"], EXIT_RUNTIME)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fidelity-lab",
        description="Deterministic open-system fidelity and resilience lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one scenario")
    run.add_argument("--config", required=True,
                     help="scenario file (.json is read as JSON, anything else as YAML)")
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
