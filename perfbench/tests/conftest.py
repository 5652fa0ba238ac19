import os
import sys

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)

for path in (os.path.join(ROOT, "src"), PERFBENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
