"""Tests of the benchmark itself: ``pytest bench/tests -q``.

Not part of the repo's tier-1 ``testpaths``; they cover the ruler, not
the program.
"""

import sys

from bench import ROOT, ensure_repro_importable

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
ensure_repro_importable()
