"""Make the harness modules and the program importable for these tests.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf/tests`` (the
suite sits outside tier-1's ``testpaths``).
"""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent.parent
ROOT = PERF.parent.parent

for path in (ROOT / "src", PERF):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
