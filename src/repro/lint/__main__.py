"""simlint command line.

Usage::

    python -m repro.lint                     # lint the installed repro package
    python -m repro.lint src/repro           # lint a source tree
    python -m repro.lint --list-rules        # show every rule id and summary
    python -m repro.lint --select SIM001,SIM005 src/repro
    python -m repro.lint --format json src/repro > findings.json

Every run is a cold whole-program pass (about three seconds on the
shipped tree).  Exit-status contract (CI keys on it):

* ``0`` — clean: no findings.
* ``1`` — findings were reported.
* ``2`` — usage error: an unknown flag, an unreadable path, or a file
  that does not parse.

Every non-``--list-rules`` run ends with a one-line summary count on
stdout (text format) or stderr (json, keeping the payload pure).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.core import all_rules, lint_paths

USAGE_ERROR = 2


def _default_target() -> str:
    import repro

    return str(Path(repro.__file__).parent)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Whole-program simulator-correctness linter for repro.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="finding output format (default: text)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.summary}")
        return 0

    select = None
    if args.select:
        select = [
            part.strip().upper()
            for part in args.select.split(",")
            if part.strip()
        ]
    paths = args.paths or [_default_target()]

    try:
        findings = lint_paths(paths, select=select)
    except (OSError, SyntaxError) as exc:
        print(f"simlint: cannot lint {paths}: {exc}", file=sys.stderr)
        return USAGE_ERROR

    summary_stream = sys.stdout if args.format == "text" else sys.stderr
    if args.format == "json":
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
    count = len(findings)
    print(
        f"simlint: {count} finding(s)" if count else "simlint: no findings",
        file=summary_stream,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
