"""The benchmark's tracer (perfbench/tracer.py) patches the program's names
where they are bound, and reports a name it cannot find as absent. A change
that unbinds one fails here, not first in a benchmark run."""

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

from tracer import Tracer  # noqa: E402


def test_the_benchmark_tracer_finds_every_target():
    with Tracer() as tracer:
        assert tracer.absent == []
