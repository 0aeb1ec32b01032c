"""Exporters: Prometheus text, manifests, provenance."""

import io

import pytest

from repro.experiments.fig3 import run_fig3
from repro.experiments.results_io import read_provenance, save_results
from repro.experiments.scenarios import (
    interfering_fbs_scenario,
    single_fbs_scenario,
)
from repro.obs.export import (
    prometheus_text,
    read_manifest,
    result_provenance,
    read_metrics_snapshot,
    run_manifest,
    write_manifest,
    write_metrics,
    write_metrics_snapshot,
)
from repro.obs.metrics import MetricsRegistry
from repro.store.confighash import config_hash, scenario_hash


class TestPrometheusText:
    def test_counters_gauges_and_cumulative_histogram(self):
        registry = MetricsRegistry()
        registry.counter("repro_slots_total").inc(20)
        registry.counter("repro_access_decisions_total", decision="deny").inc(3)
        registry.gauge("repro_executor_wall_seconds").set(1.5)
        histogram = registry.histogram("repro_solver_iterations",
                                       buckets=(10.0, 100.0))
        for value in (5, 50, 500):
            histogram.observe(value)
        text = prometheus_text(registry)
        lines = text.splitlines()
        assert "# TYPE repro_slots_total counter" in lines
        assert "repro_slots_total 20" in lines
        assert 'repro_access_decisions_total{decision="deny"} 3' in lines
        assert "# TYPE repro_executor_wall_seconds gauge" in lines
        assert "repro_executor_wall_seconds 1.5" in lines
        # Buckets render cumulatively, +Inf equals the total count.
        assert 'repro_solver_iterations_bucket{le="10"} 1' in lines
        assert 'repro_solver_iterations_bucket{le="100"} 2' in lines
        assert 'repro_solver_iterations_bucket{le="+Inf"} 3' in lines
        assert "repro_solver_iterations_sum 555" in lines
        assert "repro_solver_iterations_count 3" in lines

    def test_identical_registries_render_identically(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b").inc(1)
            registry.counter("a").inc(2)
            return registry

        assert prometheus_text(build()) == prometheus_text(build())

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_write_metrics_to_path_and_stream(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("repro_slots_total").inc(1)
        path = tmp_path / "m.prom"
        write_metrics(str(path), registry)
        stream = io.StringIO()
        write_metrics(stream, registry)
        assert path.read_text() == stream.getvalue()
        assert path.read_text() == prometheus_text(registry)


class TestConfigFingerprint:
    """A manifest identifies its config by ``config_hash``."""

    @staticmethod
    def _identity(config):
        return run_manifest(command="simulate", config=config)["config_hash"]

    def test_stable_across_equal_configs(self):
        a = single_fbs_scenario(seed=7)
        b = single_fbs_scenario(seed=7)
        assert self._identity(a) == self._identity(b) == config_hash(a)

    def test_sensitive_to_seed_and_scenario(self):
        base = single_fbs_scenario(seed=7)
        for other in (single_fbs_scenario(seed=8),
                      base.replace(n_channels=base.n_channels + 2),
                      interfering_fbs_scenario(seed=7)):
            assert self._identity(other) != self._identity(base)


class TestManifest:
    def test_round_trip(self, tmp_path):
        config = single_fbs_scenario(seed=7)
        manifest = run_manifest(command="fig4b", config=config, seed=7,
                                extra={"jobs": 2})
        path = tmp_path / "run.manifest.json"
        write_manifest(str(path), manifest)
        loaded = read_manifest(str(path))
        assert loaded == manifest
        assert loaded["command"] == "fig4b"
        assert loaded["seed"] == 7
        assert loaded["jobs"] == 2
        assert loaded["config_hash"] == config_hash(config)
        assert loaded["scenario_hash"] == scenario_hash(config)
        assert loaded["backend"] in ("batched", "scalar")
        assert isinstance(loaded["wall_clock"], float)

    def test_config_optional(self):
        manifest = run_manifest(command="simulate")
        assert "config_hash" not in manifest
        assert "scenario_hash" not in manifest
        assert manifest["seed"] is None


class TestManifestAtomicity:
    """``write_manifest`` must never leave a torn sidecar: either the
    previous manifest survives intact or the new one is complete."""

    def test_crash_before_replace_keeps_previous_manifest(self, tmp_path,
                                                          monkeypatch):
        import os

        path = tmp_path / "run.manifest.json"
        write_manifest(str(path), {"command": "fig3", "attempt": 1})
        good = path.read_text()

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_manifest(str(path), {"command": "fig3", "attempt": 2})
        assert path.read_text() == good
        assert read_manifest(str(path))["attempt"] == 1

    def test_no_temp_debris_after_failure(self, tmp_path, monkeypatch):
        import os

        path = tmp_path / "run.manifest.json"

        def interrupted(src, dst):
            raise OSError("disk detached")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError):
            write_manifest(str(path), {"command": "fig3"})
        assert list(tmp_path.iterdir()) == []

    def test_disk_full_fails_loudly_and_keeps_previous(self, tmp_path):
        from tests.faults import simulated_disk_full

        path = tmp_path / "run.manifest.json"
        write_manifest(str(path), {"command": "fig3", "attempt": 1})
        good = path.read_text()
        with simulated_disk_full():
            with pytest.raises(OSError):
                write_manifest(str(path), {"command": "fig3", "attempt": 2})
        assert path.read_text() == good
        assert [p.name for p in tmp_path.iterdir()] == ["run.manifest.json"]

    def test_overwrite_is_complete(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        write_manifest(str(path), {"command": "fig3", "attempt": 1})
        write_manifest(str(path), {"command": "fig3", "attempt": 2})
        assert read_manifest(str(path))["attempt"] == 2
        assert [p.name for p in tmp_path.iterdir()] == ["run.manifest.json"]


class TestResultProvenance:
    def test_triple_is_consistent(self):
        provenance = result_provenance(seed=11)
        assert provenance["seed"] == 11
        assert provenance["acceleration"] == (
            provenance["backend"] == "batched")

    def test_saved_results_carry_provenance_header(self, tmp_path):
        rows = run_fig3(n_runs=1, n_gops=1, schemes=("heuristic1",))
        path = tmp_path / "fig3.json"
        save_results(rows, path, provenance=result_provenance(seed=7))
        header = read_provenance(path)
        assert header["seed"] == 7
        assert header["backend"] in ("batched", "scalar")

    def test_save_without_provenance_still_records_backend(self, tmp_path):
        rows = run_fig3(n_runs=1, n_gops=1, schemes=("heuristic1",))
        path = tmp_path / "fig3.json"
        save_results(rows, path)
        header = read_provenance(path)
        assert header["seed"] is None
        assert "backend" in header and "acceleration" in header


class TestMetricsSnapshot:
    """JSON snapshots are the cross-process metrics hand-off: a job
    writes one at shutdown, the service absorbs it losslessly."""

    def populated_registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_cells_total", status="ok").inc(3)
        registry.gauge("repro_inflight").set(2)
        registry.histogram("repro_cell_seconds",
                           buckets=(0.5, 1.0)).observe(0.7)
        return registry

    def test_round_trip_absorbs_losslessly(self, tmp_path):
        source = self.populated_registry()
        path = tmp_path / "m.json"
        write_metrics_snapshot(path, source)
        target = MetricsRegistry()
        target.absorb(read_metrics_snapshot(path))
        assert prometheus_text(target) == prometheus_text(source)

    def test_absorbing_twice_doubles_counters(self, tmp_path):
        path = tmp_path / "m.json"
        write_metrics_snapshot(path, self.populated_registry())
        target = MetricsRegistry()
        target.absorb(read_metrics_snapshot(path))
        target.absorb(read_metrics_snapshot(path))
        assert target.counters()['repro_cells_total{status="ok"}'] == 6

    def test_obs_shutdown_picks_format_by_extension(self, tmp_path):
        import json as jsonlib

        from repro import obs
        for name, is_json in (("dump.json", True), ("dump.prom", False)):
            path = tmp_path / name
            obs.configure(metrics_path=str(path))
            obs.global_registry().counter("repro_demo_total").inc()
            obs.shutdown()
            text = path.read_text()
            if is_json:
                assert jsonlib.loads(text)["counters"][
                    "repro_demo_total"] == 1
            else:
                assert "# TYPE repro_demo_total counter" in text
