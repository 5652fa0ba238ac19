"""Set-up probe, run in a fresh interpreter by the benchmark to time set-up.

    python3 perfbench/setup_probe.py SRC_DIR SCENARIO_FILE...

Imports fidelitylab from SRC_DIR, then loads and validates every scenario
file with ``load_config`` (which raises on any problem). The host is sampled
meanwhile (``yardstick.HostSampler``); the last line printed is
``{"probes_s": seconds spent in probes, "host": mean probe seconds}``.
"""

import json
import statistics
import sys

from yardstick import HostSampler

sys.path.insert(0, sys.argv[1])

with HostSampler() as host:
    import fidelitylab  # noqa: F401
    from fidelitylab.config import load_config

    for path in sys.argv[2:]:
        load_config(path)

print(json.dumps({
    "probes_s": host.warmup_s + sum(host.durations),
    "host": statistics.mean(host.durations) if host.durations else 0.0,
}))
