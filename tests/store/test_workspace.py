"""FileWorkspace: layout, run registry, inspect, and gc of stale runs."""

import json

import pytest

from repro import cli
from repro.store.workspace import SUBDIRS, FileWorkspace
from repro.utils.errors import ConfigurationError


@pytest.fixture
def workspace(tmp_path):
    return FileWorkspace(tmp_path / "ws")


class TestLayout:
    def test_subdirectories_created_eagerly(self, workspace):
        for sub in SUBDIRS:
            assert (workspace.root / sub).is_dir()

    def test_path_helpers_land_in_their_directories(self, workspace):
        assert workspace.results_path("a.json").parent.name == "results"
        assert workspace.checkpoint_path("a.jsonl").parent.name == "checkpoints"
        assert workspace.trace_path("a.jsonl").parent.name == "traces"
        assert workspace.manifest_path("a.json").parent.name == "manifests"


class TestRunRegistry:
    def test_register_and_merge(self, workspace):
        workspace.register_run("fig4b", parameter="n_channels",
                               results=[workspace.results_path("a.json")],
                               checkpoint=workspace.checkpoint_path("c.jsonl"))
        entry = workspace.register_run(
            "fig4b", results=[workspace.results_path("a.json"),
                              workspace.results_path("b.json")],
            skipped=None)
        assert entry["parameter"] == "n_channels"
        assert entry["results"] == ["results/a.json", "results/b.json"]
        assert entry["checkpoint"] == "checkpoints/c.jsonl"
        assert "skipped" not in entry

    def test_paths_outside_root_stay_absolute(self, workspace, tmp_path):
        elsewhere = tmp_path / "elsewhere.json"
        entry = workspace.register_run("run", results=[elsewhere])
        assert entry["results"] == [str(elsewhere)]

    def test_index_survives_corruption(self, workspace):
        workspace.register_run("run", parameter="p")
        workspace.index_path.write_text("{broken")
        assert workspace.entries() == {}

    def test_inspect_reports_file_liveness(self, workspace):
        checkpoint = workspace.checkpoint_path("run.jsonl")
        checkpoint.write_text("{}\n")
        workspace.register_run("run", checkpoint=checkpoint,
                               results=[workspace.results_path("gone.json")])
        report = workspace.inspect("run")
        assert report["files"] == {"checkpoints/run.jsonl": True,
                                   "results/gone.json": False}

    def test_inspect_unknown_run_raises(self, workspace):
        workspace.register_run("known", parameter="p")
        with pytest.raises(ConfigurationError, match="known"):
            workspace.inspect("unknown")


class TestGc:
    def test_live_checkpoint_keeps_run_entry(self, workspace):
        checkpoint = workspace.checkpoint_path("run.jsonl")
        checkpoint.write_text("{}\n")
        workspace.register_run("run", checkpoint=checkpoint)
        report = workspace.gc()
        assert report["pruned_runs"] == []
        assert "run" in workspace.entries()

    def test_live_results_keep_run_entry(self, workspace):
        checkpoint = workspace.checkpoint_path("run.jsonl")
        results = workspace.results_path("run.json")
        results.write_text("{}\n")
        workspace.register_run("run", checkpoint=checkpoint, results=[results])
        report = workspace.gc()
        assert report["pruned_runs"] == []
        assert "run" in workspace.entries()

    def test_fully_dead_run_is_pruned(self, workspace):
        workspace.register_run(
            "stale", checkpoint=workspace.checkpoint_path("gone.jsonl"),
            results=[workspace.results_path("gone.json")])
        report = workspace.gc()
        assert report["pruned_runs"] == ["stale"]
        assert workspace.entries() == {}

    def test_dry_run_deletes_nothing(self, workspace):
        workspace.register_run(
            "stale", checkpoint=workspace.checkpoint_path("gone.jsonl"))
        report = workspace.gc(dry_run=True)
        assert report["dry_run"] is True
        assert report["pruned_runs"] == ["stale"]
        assert "stale" in workspace.entries()


class TestJobRecords:
    def job(self, job_id="job-0001", state="queued", **fields):
        return {"id": job_id, "state": state, "spec": {"command": "fig4b"},
                **fields}

    def test_save_and_list_round_trip(self, workspace):
        workspace.save_job(self.job())
        workspace.save_job(self.job("job-0002", state="running"))
        records = workspace.job_records()
        assert sorted(records) == ["job-0001", "job-0002"]
        assert records["job-0002"]["state"] == "running"
        assert workspace.job_path("job-0001").parent.name == "jobs"

    def test_save_requires_an_id(self, workspace):
        with pytest.raises(ConfigurationError, match="id"):
            workspace.save_job({"state": "queued"})

    def test_save_overwrites_atomically(self, workspace):
        workspace.save_job(self.job(state="queued"))
        workspace.save_job(self.job(state="succeeded"))
        assert workspace.job_records()["job-0001"]["state"] == "succeeded"

    def test_unreadable_records_are_skipped(self, workspace):
        workspace.save_job(self.job())
        (workspace.root / "jobs" / "torn.json").write_text("{broken")
        (workspace.root / "jobs" / "junk.json").write_text('"not a record"')
        assert sorted(workspace.job_records()) == ["job-0001"]


class TestGcJobProtection:
    def job(self, job_id, state):
        return {"id": job_id, "state": state}

    def test_terminal_jobs_run_entry_is_pruned(self, workspace):
        workspace.register_run(
            "job-0001", checkpoint=workspace.checkpoint_path("gone.jsonl"))
        workspace.save_job(self.job("job-0001", "succeeded"))
        report = workspace.gc()
        assert report["active_jobs"] == []
        assert report["pruned_runs"] == ["job-0001"]

    def test_active_jobs_run_entry_survives_dead_files(self, workspace):
        # A recovering job's registry entry must not be pruned while the
        # job is queued behind a dead checkpoint (it will recreate it).
        workspace.register_run(
            "job-0001", checkpoint=workspace.checkpoint_path("gone.jsonl"))
        workspace.save_job(self.job("job-0001", "queued"))
        report = workspace.gc()
        assert report["active_jobs"] == ["job-0001"]
        assert report["pruned_runs"] == []
        assert "job-0001" in workspace.entries()


class TestOldLayout:
    """Workspaces written while built scenarios were cached on disk
    (a ``scenarios/`` directory, ``scenario_hashes`` in the index and in
    job records) still list, inspect and gc."""

    @pytest.fixture
    def old_root(self, tmp_path):
        root = tmp_path / "old-ws"
        (root / "scenarios").mkdir(parents=True)
        (root / "scenarios" / "abc123.json").write_text(
            '{"format_version": 1, "scenario_hash": "abc123"}')
        (root / "checkpoints").mkdir()
        (root / "checkpoints" / "live.jsonl").write_text("{}\n")
        (root / "index.json").write_text(json.dumps({
            "format_version": 1,
            "runs": {
                "live": {"checkpoint": "checkpoints/live.jsonl",
                         "scenario_hashes": ["abc123"]},
                "stale": {"checkpoint": "checkpoints/gone.jsonl",
                          "scenario_hashes": ["abc123"]},
                "job-0001": {"checkpoint": "checkpoints/job-0001.jsonl",
                             "scenario_hashes": ["abc123"]},
            }}))
        (root / "jobs").mkdir()
        (root / "jobs" / "job-0001.json").write_text(json.dumps(
            {"id": "job-0001", "state": "queued",
             "scenario_hashes": ["abc123"]}))
        return root

    def test_list_inspect_and_gc(self, old_root, capsys):
        ws = ["--workspace", str(old_root)]
        assert cli.main(["workspace", "list"] + ws) == 0
        listing = capsys.readouterr().out
        assert "registered runs: 3" in listing
        assert "scenario" not in listing

        assert cli.main(["workspace", "inspect", "live"] + ws) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["files"] == {"checkpoints/live.jsonl": True}

        assert cli.main(["workspace", "gc"] + ws) == 0
        assert "pruned 1 stale run entry" in capsys.readouterr().out
        assert sorted(FileWorkspace(old_root).entries()) == ["job-0001",
                                                              "live"]
        # The old scenarios/ directory is left alone.
        assert (old_root / "scenarios" / "abc123.json").exists()
