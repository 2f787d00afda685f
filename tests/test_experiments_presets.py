"""Preset contracts: a params class's defaults are the paper preset,
and its ``quick()`` classmethod builds the quick one.

The benches rely on quick presets being structurally identical to the
paper presets (same protocol threading, same scenario shape) while
being strictly lighter to run.
"""

import dataclasses

import pytest

from repro.experiments import registry
from repro.experiments.concurrency import ConcurrencyParams
from repro.experiments.fairness import FairnessParams
from repro.experiments.fattree import FatTreeParams
from repro.experiments.incast import IncastParams
from repro.experiments.large_scale import LargeScaleParams
from repro.experiments.motivation import MotivationParams
from repro.experiments.multihop import MultiHopParams
from repro.experiments.properties import PropertiesParams
from repro.experiments.testbed import (
    SIZE_JITTER,
    TAIL_THRESHOLD,
    ArctParams,
    WebServiceParams,
)

ALL_PARAMS = (
    ArctParams,
    ConcurrencyParams,
    FairnessParams,
    FatTreeParams,
    IncastParams,
    LargeScaleParams,
    MotivationParams,
    MultiHopParams,
    PropertiesParams,
    WebServiceParams,
)


@pytest.mark.parametrize("params_cls", ALL_PARAMS)
class TestPresetContract:
    def test_both_presets_construct(self, params_cls):
        assert params_cls() is not None
        assert params_cls.quick() is not None

    def test_protocol_threads_through(self, params_cls):
        assert params_cls(protocol="trim").protocol == "trim"
        assert params_cls.quick("trim").protocol == "trim"

    def test_presets_differ(self, params_cls):
        """quick must actually reduce something."""
        assert params_cls() != params_cls.quick()

    def test_overrides_win(self, params_cls):
        field_names = {f.name for f in dataclasses.fields(params_cls)}
        assert "protocol" in field_names
        if "seed" in field_names:
            assert params_cls.quick(seed=99).seed == 99

    def test_is_dataclass(self, params_cls):
        assert dataclasses.is_dataclass(params_cls)


class TestSpecificDefaults:
    def test_motivation_matches_paper_text(self):
        p = MotivationParams()
        assert p.n_servers == 5
        assert p.n_responses == 200
        assert p.bandwidth_bps == 1e9
        assert p.buffer_pkts == 100
        assert p.lpt_start == 0.5
        assert p.min_rto == 0.2

    def test_concurrency_matches_paper_text(self):
        p = ConcurrencyParams()
        assert p.spt_segments == 10
        assert p.spt_time == 0.3
        assert p.min_rto == 0.2

    def test_large_scale_matches_paper_text(self):
        p = LargeScaleParams()
        assert p.servers_per_switch == 42
        assert p.lpts_per_switch == 2
        assert p.min_rto == 0.02  # the paper's 20 ms RTO
        assert tuple(p.switch_counts) == (5, 10, 15, 20, 25)

    def test_fattree_matches_paper_text(self):
        p = FatTreeParams()
        assert p.bandwidth_bps == 10e9
        assert p.buffer_pkts == 245  # 350 KB of MSS packets
        assert p.total_bytes == 1_000_000
        assert p.small_start == 0.1 and p.big_start == 0.5

    def test_fairness_matches_paper_text(self):
        p = FairnessParams()
        assert p.n_flows == 5
        assert p.stagger == 2.0
        assert p.stop_start == 12.1
        assert p.server_bps == 1.1e9 and p.bottleneck_bps == 1e9

    def test_testbed_matches_paper_text(self):
        p = ArctParams()
        assert p.n_responses == 100
        assert p.bandwidth_bps == 100e6
        assert SIZE_JITTER == 0.1
        w = WebServiceParams()
        assert w.n_servers == 4
        assert w.n_responses_per_server == 1000
        assert TAIL_THRESHOLD == 25e-3


class TestMakeParams:
    def test_paper_preset_is_the_constructor(self):
        experiment = registry.get("fig8")
        assert experiment.make_params("paper", protocol="trim") == (
            LargeScaleParams(protocol="trim")
        )
        assert experiment.make_params("quick", protocol="trim") == (
            LargeScaleParams.quick("trim")
        )

    def test_only_quick_sets_the_ablation_preset(self):
        experiment = registry.get("ablations")
        assert experiment.make_params("paper").preset == "paper"
        assert experiment.make_params("quick").preset == "quick"
