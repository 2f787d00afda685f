"""HTTP workload layer: packet trains, ON/OFF generators, app drivers."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.http.apps import Exchange as Exchange
    from repro.http.apps import HttpSession as HttpSession
    from repro.http.apps import LongTrainSender as LongTrainSender
    from repro.http.apps import ScheduledResponder as ScheduledResponder
    from repro.http.apps import burst_at as burst_at
    from repro.http.packet_train import LPT_THRESHOLD_BYTES as LPT_THRESHOLD_BYTES
    from repro.http.packet_train import PacketTrain as PacketTrain
    from repro.http.packet_train import extract_trains as extract_trains
    from repro.http.packet_train import train_intervals as train_intervals
    from repro.http.workload import GAP_CDF_ANCHORS as GAP_CDF_ANCHORS
    from repro.http.workload import PT_SIZE_CDF_ANCHORS as PT_SIZE_CDF_ANCHORS
    from repro.http.workload import OnOffEvent as OnOffEvent
    from repro.http.workload import PiecewiseLogCdf as PiecewiseLogCdf
    from repro.http.workload import gap_sampler as gap_sampler
    from repro.http.workload import generate_onoff_schedule as generate_onoff_schedule
    from repro.http.workload import pt_size_sampler as pt_size_sampler
    from repro.http.workload import response_schedule as response_schedule
    from repro.http.workload import segments_for_bytes as segments_for_bytes

_lazy_exports(__name__, {
    "Exchange": "repro.http.apps",
    "HttpSession": "repro.http.apps",
    "LongTrainSender": "repro.http.apps",
    "ScheduledResponder": "repro.http.apps",
    "burst_at": "repro.http.apps",
    "LPT_THRESHOLD_BYTES": "repro.http.packet_train",
    "PacketTrain": "repro.http.packet_train",
    "extract_trains": "repro.http.packet_train",
    "train_intervals": "repro.http.packet_train",
    "GAP_CDF_ANCHORS": "repro.http.workload",
    "PT_SIZE_CDF_ANCHORS": "repro.http.workload",
    "OnOffEvent": "repro.http.workload",
    "PiecewiseLogCdf": "repro.http.workload",
    "gap_sampler": "repro.http.workload",
    "generate_onoff_schedule": "repro.http.workload",
    "pt_size_sampler": "repro.http.workload",
    "response_schedule": "repro.http.workload",
    "segments_for_bytes": "repro.http.workload",
})
