"""Figure-regenerator suite configuration.

Each test runs one experiment at the ``quick`` preset exactly once,
prints the paper-style table (``pytest benchmarks/ -q -s`` shows them)
and asserts the figure's shape.  Nothing here is timed: how fast the
simulator regenerates a figure is ``bench/``'s question.
"""

import sys
from pathlib import Path

# Make `src` and the benchmarks package importable regardless of how
# pytest was invoked (the repo installs via a .pth in CI-less setups).
ROOT = Path(__file__).parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
