"""Run exports: ticks.csv, episodes.csv, report.json (and friends).

All files are written to a temporary name in the target directory and
renamed into place, so a failed export never leaves a partial file. Float
cells use repr (shortest round-trip), which makes same-seed runs
byte-identical.
"""

from __future__ import annotations

import json
import os
import tempfile
from enum import Enum
from typing import Callable, Optional

from .engine import RunResult

TICKS_HEADER = "time,node,figure,raw,quale,delta,mode,contract_status"
EPISODES_HEADER = "episode,node,cost,restoration_time,strategy"
POOL_HEADER = "time,node,allocation,reserve"


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _label(value: Optional[Enum]) -> str:
    return "" if value is None else value.value


def _atomic_write(path: str, write: Callable) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_ticks_csv(result: RunResult, path: str) -> None:
    """One row per tick and node: the traces walked tick by tick, then node
    by node in scenario order."""
    def write(fh):
        fh.write(TICKS_HEADER + "\n")
        heads = [f"{name},{trace.figure}" for name, trace in result.traces.items()]
        columns = [
            zip(trace.times, trace.raws, trace.quales, trace.deltas, trace.modes, trace.statuses)
            for trace in result.traces.values()
        ]
        for tick in zip(*columns):
            for head, (time, raw, quale, delta, mode, status) in zip(heads, tick):
                fh.write(
                    f"{_fmt(float(time))},{head},{_fmt(float(raw))},{_fmt(float(quale))},"
                    f"{_fmt(float(delta))},{_label(mode)},{_label(status)}\n"
                )

    _atomic_write(path, write)


def write_episodes_csv(result: RunResult, path: str) -> None:
    def write(fh):
        fh.write(EPISODES_HEADER + "\n")
        for m in result.recovery:
            fh.write(
                ",".join(
                    [
                        str(m.episode),
                        m.node,
                        _fmt(float(m.cost)),
                        _fmt(float(m.restoration_time))
                        if m.restoration_time is not None
                        else "not_restored",
                        m.strategy or "",
                    ]
                )
                + "\n"
            )

    _atomic_write(path, write)


def write_pool_csv(result: RunResult, path: str) -> None:
    def write(fh):
        fh.write(POOL_HEADER + "\n")
        for t, node, allocation, reserve in result.pool_log:
            fh.write(
                f"{_fmt(float(t))},{node},{_fmt(float(allocation))},{_fmt(float(reserve))}\n"
            )

    _atomic_write(path, write)


def build_report(result: RunResult) -> dict:
    report: dict = {
        "schema_version": 1,
        "scenario": result.scenario_name,
        "seed": result.seed,
        "episodes": sorted({m.episode for m in result.recovery}),
        "baselines": dict(sorted(result.baselines.items())),
        "overhead_counters": dict(sorted(result.overhead_counters.items())),
        "pool_violations": result.pool_violations,
        "identity_failures": [
            {
                "node": node,
                "time": event.time,
                "figure": event.figure,
                "previous_class": event.previous_class.label(),
                "max_abs_delta": event.max_abs_delta,
                "window_mean": event.window_mean,
                "window_std": event.window_std,
            }
            for node, event in result.failure_events
        ],
        "changes": [
            {
                "time": c.time,
                "node": c.node,
                "strategy": c.strategy_id,
                "kind": c.kind,
                "ok": c.ok,
            }
            for c in result.changes
        ],
    }
    if result.antifragility is not None:
        report["antifragility"] = {
            "slope": result.antifragility.slope,
            "normalized_slope": result.antifragility.normalized_slope,
            "verdict": result.antifragility.verdict,
            "episodes": result.antifragility.episodes,
        }
        report["node_antifragility"] = {
            node: {
                "slope": r.slope,
                "normalized_slope": r.normalized_slope,
                "verdict": r.verdict,
            }
            for node, r in sorted(result.node_antifragility.items())
        }
    if result.learning_docs:
        report["learning"] = {
            node: {
                "regimes": doc["regimes"],
                "ranks": doc["ranks"],
            }
            for node, doc in sorted(result.learning_docs.items())
        }
    if result.config_echo is not None:
        report["config"] = result.config_echo
    return report


def write_report_json(result: RunResult, path: str) -> None:
    report = build_report(result)

    def write(fh):
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")

    _atomic_write(path, write)


def write_learning_state(result: RunResult, path: str) -> None:
    def write(fh):
        json.dump(result.learning_docs, fh, sort_keys=True, indent=2)
        fh.write("\n")

    _atomic_write(path, write)


def export_run(result: RunResult, outdir: str) -> list[str]:
    """Write every export for one run; returns the paths written."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    ticks = os.path.join(outdir, "ticks.csv")
    write_ticks_csv(result, ticks)
    paths.append(ticks)
    episodes = os.path.join(outdir, "episodes.csv")
    write_episodes_csv(result, episodes)
    paths.append(episodes)
    report = os.path.join(outdir, "report.json")
    write_report_json(result, report)
    paths.append(report)
    if result.pool_log:
        pool = os.path.join(outdir, "pool.csv")
        write_pool_csv(result, pool)
        paths.append(pool)
    if result.learning_docs:
        learning = os.path.join(outdir, "learning_state.json")
        write_learning_state(result, learning)
        paths.append(learning)
    return paths
