"""``python3 -m bench <command>`` — see ``bench/README.md``."""

import time

_T0 = time.perf_counter()  # first line of the process: set-up time starts here

import sys  # noqa: E402

from bench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], _T0))
