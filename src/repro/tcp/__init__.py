"""Transport substrate: TCP senders, sinks, and the protocol registry.

The base machinery (:mod:`repro.tcp.base`) implements NS2-style
segment-level TCP Reno; variants subclass it:

* :class:`~repro.tcp.reno.RenoSource` — the paper's "legacy TCP".
* :class:`~repro.tcp.cubic.CubicSource` — Linux default, testbed baseline.
* :class:`~repro.tcp.dctcp.DctcpSource` — ECN-based comparison.
* :class:`~repro.tcp.l2dct.L2dctSource` — LAS-weighted DCTCP comparison.
* :class:`~repro.tcp.gip.GipSource` — restart-at-2 ablation baseline.
* ``TrimSource`` (in :mod:`repro.core.trim`) — the paper's contribution.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tcp.base import Message as Message
    from repro.tcp.base import TcpConfig as TcpConfig
    from repro.tcp.base import TcpSink as TcpSink
    from repro.tcp.base import TcpSource as TcpSource
    from repro.tcp.cubic import CubicSource as CubicSource
    from repro.tcp.d2tcp import D2tcpSource as D2tcpSource
    from repro.tcp.dctcp import DctcpSource as DctcpSource
    from repro.tcp.factory import ECN_PROTOCOLS as ECN_PROTOCOLS
    from repro.tcp.factory import PROTOCOLS as PROTOCOLS
    from repro.tcp.factory import default_config as default_config
    from repro.tcp.factory import make_connection as make_connection
    from repro.tcp.factory import source_class as source_class
    from repro.tcp.gip import GipSource as GipSource
    from repro.tcp.l2dct import L2dctSource as L2dctSource
    from repro.tcp.reno import RenoSource as RenoSource
    from repro.tcp.rtt import EwmaRtt as EwmaRtt
    from repro.tcp.rtt import RttEstimator as RttEstimator
    from repro.tcp.tinybuffer import TinyBufferSource as TinyBufferSource
    from repro.tcp.tracks import TracksSource as TracksSource
    from repro.tcp.vegas import VegasSource as VegasSource

_lazy_exports(__name__, {
    "Message": "repro.tcp.base",
    "TcpConfig": "repro.tcp.base",
    "TcpSink": "repro.tcp.base",
    "TcpSource": "repro.tcp.base",
    "CubicSource": "repro.tcp.cubic",
    "D2tcpSource": "repro.tcp.d2tcp",
    "DctcpSource": "repro.tcp.dctcp",
    "ECN_PROTOCOLS": "repro.tcp.factory",
    "PROTOCOLS": "repro.tcp.factory",
    "default_config": "repro.tcp.factory",
    "make_connection": "repro.tcp.factory",
    "source_class": "repro.tcp.factory",
    "GipSource": "repro.tcp.gip",
    "L2dctSource": "repro.tcp.l2dct",
    "RenoSource": "repro.tcp.reno",
    "EwmaRtt": "repro.tcp.rtt",
    "RttEstimator": "repro.tcp.rtt",
    "TinyBufferSource": "repro.tcp.tinybuffer",
    "TracksSource": "repro.tcp.tracks",
    "VegasSource": "repro.tcp.vegas",
})
