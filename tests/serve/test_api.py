"""HTTP service end to end: ServiceClient against a live server.

One module-scoped server (port 0, shared workspace) backs every test;
jobs here are real ``python -m repro`` subprocesses, which is the point:
the byte-identity test below is the ISSUE's acceptance criterion that an
HTTP-fetched result equals a direct CLI run bit for bit, across
different ``--jobs`` counts.
"""

import json
import threading

import pytest

from repro import cli
from repro.experiments.compare import compare_results
from repro.serve import ServiceClient, ServiceError, make_server

JOB_TIMEOUT = 300.0


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    workspace = tmp_path_factory.mktemp("serve-ws")
    server = make_server(workspace, port=0, job_workers=2)
    server.manager.start()
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.1}, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=60)
    yield client, server
    server.shutdown()
    thread.join(timeout=10)
    server.manager.stop(graceful=False, timeout=30)
    server.server_close()


class TestDiscovery:
    def test_health_reports_ok(self, service):
        client, _ = service
        payload = client.health()
        assert payload["status"] == "ok"
        assert "version" in payload

    def test_schemes_and_scenarios_come_from_the_registries(self, service):
        client, _ = service
        schemes = {entry["name"] for entry in client.schemes()}
        scenarios = {entry["name"] for entry in client.scenarios()}
        assert "proposed-fast" in schemes
        assert "single" in scenarios

    def test_metrics_exposition_is_prometheus_text(self, service):
        client, _ = service
        text = client.metrics_text()
        assert "repro_serve_jobs{state=" in text


class TestValidationOverHttp:
    def test_bad_spec_is_a_400_with_the_validator_message(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="command must be one of") \
                as err:
            client.submit({"command": "fig99"})
        assert err.value.status == 400

    def test_unknown_job_is_a_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="unknown job") as err:
            client.job("job-9999")
        assert err.value.status == 404

    def test_unknown_path_is_a_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client._json("GET", "/api/nothing/here")
        assert err.value.status == 404

    def test_unknown_artifact_is_a_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="unknown job resource"):
            client._request("GET", "/api/jobs/job-0001/frobnicate")


class TestSweepJob:
    """Submit fig4b over HTTP and hold it to the CLI's bytes."""

    SPEC = {"command": "fig4b", "runs": 1, "gops": 1, "jobs": 2}

    def test_http_result_is_byte_identical_to_a_direct_cli_run(
            self, service, tmp_path):
        client, _ = service
        job = client.submit(self.SPEC)
        assert job.state in ("queued", "building", "running", "succeeded")
        done = client.wait(job.id, timeout=JOB_TIMEOUT)
        assert done.state == "succeeded"
        assert done.exit_code == 0
        fetched = client.result_bytes(job.id)
        # Direct CLI run at a *different* --jobs count.
        direct = tmp_path / "direct.json"
        assert cli.main(["fig4b", "--runs", "1", "--gops", "1",
                         "--jobs", "1", "--output", str(direct)]) == 0
        assert fetched == direct.read_bytes()

    def test_compare_agrees_the_results_are_identical(self, service,
                                                      tmp_path):
        client, server = service
        job = client.submit(self.SPEC)  # dedup: reuses the finished job
        client.wait(job.id, timeout=JOB_TIMEOUT)
        served = server.manager.artifact_path(job.id, "result")
        direct = tmp_path / "direct.json"
        assert cli.main(["fig4b", "--runs", "1", "--gops", "1",
                         "--output", str(direct)]) == 0
        report = compare_results(direct, served)
        assert report.bit_identical is True
        assert report.provenance_agrees is True

    def test_manifest_travels_with_the_result(self, service):
        client, _ = service
        job = client.submit(self.SPEC)
        client.wait(job.id, timeout=JOB_TIMEOUT)
        manifest = client.manifest(job.id)
        assert manifest["command"] == "fig4b"
        assert manifest["runs"] == 1
        assert manifest["config_hash"]

    def test_events_replay_the_sweep_and_paginate(self, service):
        client, _ = service
        job = client.submit(self.SPEC)
        client.wait(job.id, timeout=JOB_TIMEOUT)
        events, next_index = client.events(job.id)
        cells = [e for e in events if e["kind"] == "cell"]
        assert cells and all(e["ok"] for e in cells)
        assert cells[0]["label"] == job.id
        assert next_index == len(events)
        later, _ = client.events(job.id, since=next_index)
        assert later == []

    def test_resubmission_hits_the_dedup_cache(self, service):
        client, _ = service
        job = client.submit(self.SPEC)
        client.wait(job.id, timeout=JOB_TIMEOUT)
        again = client.submit(dict(self.SPEC, jobs=1))
        assert again.deduplicated is True
        assert again.id == job.id
        forced = client.submit(self.SPEC, force=True)
        assert forced.deduplicated is False
        assert forced.id != job.id
        final = client.wait(forced.id, timeout=JOB_TIMEOUT)
        assert final.state == "succeeded"

    def test_job_listing_includes_the_job(self, service):
        client, _ = service
        job = client.submit(self.SPEC)
        assert job.id in [view.id for view in client.jobs()]


class TestSimulateJob:
    def test_report_trace_and_log_are_all_fetchable(self, service):
        client, _ = service
        job = client.submit({"command": "simulate", "runs": 1, "gops": 1,
                             "scheme": "heuristic1", "trace": True})
        done = client.wait(job.id, timeout=JOB_TIMEOUT)
        assert done.state == "succeeded"
        # A simulate campaign's result is its formatted stdout report.
        report = client.result_bytes(job.id).decode("utf-8")
        assert "mean PSNR" in report
        events = list(client.trace_events(job.id))
        assert events
        assert events[-1]["kind"] == "trace-summary"
        # The campaign narrates its one cell like a sweep does.
        events, _ = client.events(job.id)
        cells = [e for e in events if e["kind"] == "cell"]
        assert len(cells) == 1 and cells[0]["ok"]
        assert cells[0]["label"] == job.id
        assert isinstance(client.log_text(job.id), str)

    def test_cancel_of_a_finished_job_is_a_noop(self, service):
        client, _ = service
        job = client.submit({"command": "simulate", "runs": 1, "gops": 1,
                             "scheme": "heuristic1", "trace": True})
        done = client.wait(job.id, timeout=JOB_TIMEOUT)
        view = client.cancel(job.id)
        assert view.state == done.state

    def test_completed_job_metrics_are_absorbed(self, service):
        client, _ = service
        text = client.metrics_text()
        assert "repro_serve_jobs_submitted_total" in text
        assert 'repro_serve_jobs_completed_total{state="succeeded"}' in text
        # The folded-in child registries carry engine series the server
        # process itself never touched.
        own_only = all(line.startswith(("#", "repro_serve_"))
                       for line in text.splitlines() if line.strip())
        assert not own_only
