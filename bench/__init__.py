"""The repo's benchmark of record (see ``bench/README.md``).

Four frozen workloads drive the simulator through its public seams and
report five end-to-end metrics untraced plus per-package layer
attribution from a separate traced run.  ``BENCHMARK.json`` at the repo
root registers it; ``python3 -m bench list`` prints the same document.

Nothing here is imported by ``src/repro``: the benchmark measures the
layers from outside, so a refactor inside a package cannot move the
ruler it is measured with.
"""

from __future__ import annotations

import sys
from pathlib import Path

__all__ = ["BENCH_DIR", "OUT_DIR", "ROOT", "ensure_repro_importable"]

#: ``bench/`` itself, the checkout root above it, and the git-ignored
#: scratch directory every run writes to.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def ensure_repro_importable() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    The benchmark's command may not name ``src`` (it lies outside the
    benchmark's own directory), so the path is derived from this file.
    Raises :class:`SystemExit` with a non-zero code when the program
    under test is not there — a benchmark without its program has
    nothing to measure and must not print a result.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"bench: no program to measure: {src / 'repro'} is missing"
        )
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
