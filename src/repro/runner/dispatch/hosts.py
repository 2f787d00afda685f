"""Host-list configuration for the dispatch fleet.

The dispatcher itself only ever speaks the frame protocol to whatever
connects to its listener; *how a worker process comes to exist* is the
host config's job.  Each :class:`HostSpec` names a host, a worker
count, and a spawn-command template; the backend formats the template
per worker and hands it to ``subprocess.Popen``.  For the local host
the template defaults to::

    {python} -m repro.runner.dispatch.worker
        --connect {addr} --worker {worker} --heartbeat {heartbeat}

and for a real fleet a JSON host file swaps the front of the command
for ``ssh``/``pdsh``/a container runner without touching the backend —
the template is the seam.  Placeholders:

``{python}``     this interpreter (``sys.executable``)
``{addr}``       the dispatcher's ``host:port``
``{worker}``     the worker's unique name (``<host><index>``)
``{host}``       the host's name
``{heartbeat}``  the heartbeat interval in seconds

The ``--hosts`` CLI grammar accepts either ``local:N`` (N local
workers, the default) or a path to a JSON file::

    [{"name": "node-a", "workers": 8,
      "spawn": ["ssh", "node-a", "python3", "-m",
                "repro.runner.dispatch.worker",
                "--connect", "{addr}", "--worker", "{worker}"]},
     {"name": "node-b", "workers": 8}]

A host entry without ``spawn`` gets the local template — useful for
tests that want several "hosts" on one machine, say one that cannot
start a worker beside one that can.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["DEFAULT_SPAWN", "HostSpec", "default_hosts", "parse_hosts"]

#: the local spawn template (see module docstring for placeholders).
DEFAULT_SPAWN: tuple[str, ...] = (
    "{python}",
    "-m",
    "repro.runner.dispatch.worker",
    "--connect",
    "{addr}",
    "--worker",
    "{worker}",
    "--heartbeat",
    "{heartbeat}",
)


@dataclass(frozen=True)
class HostSpec:
    """One host's name, worker count, and spawn-command template."""

    name: str
    workers: int
    spawn: tuple[str, ...] = field(default=DEFAULT_SPAWN)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("host name must be non-empty")
        if self.workers < 1:
            raise ValueError(f"host {self.name!r}: workers must be >= 1")
        if not self.spawn:
            raise ValueError(f"host {self.name!r}: spawn template is empty")

    def command(self, addr: str, worker: str, heartbeat: float = 0.5) -> list[str]:
        """The concrete argv for one worker on this host."""
        mapping = {
            "python": sys.executable,
            "addr": addr,
            "worker": worker,
            "host": self.name,
            "heartbeat": heartbeat,
        }
        return [part.format(**mapping) for part in self.spawn]


def default_hosts(jobs: int) -> list[HostSpec]:
    """The single-machine fleet: ``jobs`` local workers."""
    return [HostSpec("local", max(1, int(jobs)))]


def parse_hosts(spec: str) -> list[HostSpec]:
    """Parse a ``--hosts`` value: ``local``, ``local:N`` with N >= 1, or
    else the path of a JSON host file."""
    spec = spec.strip()
    if not spec:
        raise ValueError("--hosts must not be empty")
    if spec == "local" or spec.startswith("local:"):
        _, sep, count = spec.partition(":")
        try:
            workers = int(count) if sep else 1
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(
                f"bad --hosts spec {spec!r} (grammar: local:N with N >= 1, "
                "or a JSON host-file path)"
            )
        return default_hosts(workers)
    path = Path(spec)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"--hosts {spec!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"--hosts {spec!r} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError(f"--hosts {spec!r}: JSON nests too deeply") from None
    if not isinstance(doc, list) or not doc:
        raise ValueError(f"--hosts {spec!r}: expected a non-empty JSON array")
    hosts: list[HostSpec] = []
    for index, entry in enumerate(doc):
        try:
            host = _host_entry(entry)
            if host.name in (h.name for h in hosts):
                raise ValueError(f"duplicate host 'name' {host.name!r}")
        except ValueError as exc:
            raise ValueError(f"--hosts {spec!r}: host {index}: {exc}") from None
        hosts.append(host)
    return hosts


def _host_entry(entry: object) -> HostSpec:
    """One host-file object; a ValueError names the offending field."""
    if not isinstance(entry, dict):
        raise ValueError(f"entries must be objects, not {entry!r}")
    unknown = set(entry) - {"name", "workers", "spawn"}
    if unknown:
        raise ValueError(f"unknown key(s) {sorted(unknown)}")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError(f"'name' must be a non-empty string, not {name!r}")
    workers = entry.get("workers", 1)
    # bool is an int subclass; a float or string is not a count either
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"'workers' must be an integer >= 1, not {workers!r}")
    spawn = entry.get("spawn", DEFAULT_SPAWN)
    if not (
        isinstance(spawn, (list, tuple))
        and spawn
        and all(isinstance(part, str) for part in spawn)
    ):
        raise ValueError(
            f"'spawn' must be a non-empty list of strings, not {spawn!r}"
        )
    return HostSpec(name, workers, tuple(spawn))
