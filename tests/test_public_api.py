"""The public API surface: imports, __all__, and the quickstart path."""

import importlib

import pytest

import repro

SUBPACKAGES = (
    "repro.sim",
    "repro.net",
    "repro.tcp",
    "repro.core",
    "repro.http",
    "repro.metrics",
    "repro.experiments",
)


class TestApiSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert getattr(module, name) is not None, f"{module_name}.{name}"

    def test_protocol_registry_exposed(self):
        # "trim" registers lazily — touching the registry must find it.
        assert repro.create_source is not None
        from repro.tcp.factory import source_class

        assert source_class("trim") is repro.TrimSource

    def test_run_helpers_live_on_their_modules_only(self):
        # The package-root re-exports are gone; the names are not.
        import repro.experiments
        from repro.experiments.fattree import FatTreeParams, run_fattree

        assert callable(run_fattree) and callable(FatTreeParams)
        assert repro.experiments.__all__ == ["registry"]
        for name in ("run_fattree", "FatTreeParams"):
            with pytest.raises(AttributeError):
                getattr(repro.experiments, name)


class TestQuickstartPath:
    def test_readme_quickstart_runs(self):
        """The code block in README.md works verbatim."""
        from repro import Simulator, TcpConfig, build_star, make_connection
        from repro.experiments.scenarios import (
            packets_per_second,
            path_base_rtt,
        )

        sim = Simulator()
        star = build_star(sim, n_servers=5)
        source, sink = make_connection(
            "trim", sim, star.servers[0], star.frontend, flow_id=1,
            config=TcpConfig(min_rto=0.01),
            capacity_pps=packets_per_second(1e9),
            base_rtt=path_base_rtt([(50e-6, 1e9)] * 2),
        )
        message = source.send_bytes(256 * 1024)
        sim.run(until=1.0)
        assert message.finish_time is not None
        assert source.stats.timeouts == 0
        assert sink.delivered_bytes >= 256 * 1024


class TestModuleDocs:
    @pytest.mark.parametrize("module_name", SUBPACKAGES + ("repro",))
    def test_every_package_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20
