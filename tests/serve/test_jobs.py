"""JobManager unit surface: validation, dedup, records, cancel, exits.

Everything here runs against an *unstarted* manager -- no worker
threads, no subprocesses, not even a spare -- so submit/cancel/record
behaviour is tested pure.  End-to-end execution lives in test_api.py,
test_lifecycle.py and test_spares.py.
"""

import json

import pytest

from repro.exec.supervisor import (
    EXIT_DEADLINE,
    EXIT_FAILED_RUNS,
    EXIT_HARD_ABORT,
    EXIT_INTERRUPTED,
)
from repro.cli import build_parser
from repro.serve.jobs import (
    ALLOWED_COMMANDS,
    MAX_AUTO_RESUMES,
    SWEEP_COMMANDS,
    JobError,
    JobManager,
    spec_hash,
    validate_spec,
)


@pytest.fixture
def manager(tmp_path):
    # Deliberately never start()ed: queued jobs stay queued.
    return JobManager(tmp_path / "ws", job_workers=1)


class TestValidateSpec:
    def test_defaults_filled(self):
        spec = validate_spec({"command": "fig4b"})
        assert spec["runs"] == 10
        assert spec["gops"] == 3
        assert spec["jobs"] == 1
        assert spec["seed"] == 7
        assert spec["trace"] is False
        assert spec["cell_timeout"] is None
        assert spec["deadline"] is None
        assert spec["scenario"] is None

    def test_non_object_rejected(self):
        with pytest.raises(JobError, match="JSON object"):
            validate_spec(["fig4b"])

    def test_unknown_field_rejected(self):
        with pytest.raises(JobError, match="unknown spec field.*bogus"):
            validate_spec({"command": "fig4b", "bogus": 1})

    def test_unknown_command_rejected(self):
        with pytest.raises(JobError, match="command must be one of"):
            validate_spec({"command": "fig99"})

    @pytest.mark.parametrize("field", ["runs", "gops", "jobs"])
    @pytest.mark.parametrize("bad", [0, -1, "3", 2.5, True])
    def test_bad_counts_rejected(self, field, bad):
        with pytest.raises(JobError, match=field):
            validate_spec({"command": "fig4b", field: bad})

    def test_bad_timeouts_rejected(self):
        with pytest.raises(JobError, match="cell_timeout"):
            validate_spec({"command": "fig4b", "cell_timeout": -1})
        with pytest.raises(JobError, match="deadline"):
            validate_spec({"command": "fig4b", "deadline": 0})

    def test_scenario_fields_only_valid_for_simulate(self):
        with pytest.raises(JobError, match="only valid"):
            validate_spec({"command": "fig4b", "scenario": "single"})

    def test_simulate_defaults(self):
        spec = validate_spec({"command": "simulate", "runs": 1, "gops": 1})
        assert spec["scenario"] == "single"
        assert spec["scheme"] == "proposed-fast"
        assert spec["scenario_args"] == {}

    def test_simulate_unknown_scheme_rejected(self):
        with pytest.raises(JobError, match="unknown scheme"):
            validate_spec({"command": "simulate", "scheme": "magic"})

    def test_simulate_unknown_scenario_rejected(self):
        with pytest.raises(JobError, match="unknown scenario"):
            validate_spec({"command": "simulate", "scenario": "nowhere"})

    def test_simulate_bad_scenario_args_fail_at_submit(self):
        with pytest.raises(JobError, match="rejected its arguments"):
            validate_spec({"command": "simulate",
                           "scenario_args": {"not_a_knob": 1}})


class TestSpecHash:
    def test_execution_knobs_do_not_change_the_hash(self):
        base = validate_spec({"command": "fig4b", "runs": 2, "gops": 1})
        tweaked = validate_spec({"command": "fig4b", "runs": 2, "gops": 1,
                                 "jobs": 8, "cell_timeout": 30,
                                 "deadline": 600, "trace": True})
        assert spec_hash(base) == spec_hash(tweaked)

    def test_result_determining_fields_change_the_hash(self):
        base = validate_spec({"command": "fig4b", "runs": 2, "gops": 1})
        for other in ({"command": "fig4c", "runs": 2, "gops": 1},
                      {"command": "fig4b", "runs": 3, "gops": 1},
                      {"command": "fig4b", "runs": 2, "gops": 2},
                      {"command": "fig4b", "runs": 2, "gops": 1, "seed": 8}):
            assert spec_hash(validate_spec(other)) != spec_hash(base)


class TestSubmit:
    def test_record_is_persisted_and_queued(self, manager):
        record, deduplicated = manager.submit(
            {"command": "fig4b", "runs": 1, "gops": 1})
        assert deduplicated is False
        assert record["state"] == "queued"
        path = manager.workspace.job_path(record["id"])
        assert path.exists()
        on_disk = json.loads(path.read_text())
        assert on_disk["spec_hash"] == record["spec_hash"]

    def test_sweep_jobs_get_a_checkpoint_simulate_jobs_do_not(self, manager):
        sweep, _ = manager.submit({"command": "fig4b", "runs": 1, "gops": 1})
        sim, _ = manager.submit({"command": "simulate", "runs": 1, "gops": 1})
        assert "checkpoint" in sweep["artifacts"]
        assert "result" in sweep["artifacts"]
        assert "checkpoint" not in sim["artifacts"]
        assert "result" not in sim["artifacts"]  # report goes to stdout
        assert "stdout" in sim["artifacts"]

    def test_dedup_ignores_execution_knobs(self, manager):
        first, _ = manager.submit({"command": "fig4b", "runs": 1, "gops": 1,
                                   "jobs": 1})
        second, deduplicated = manager.submit(
            {"command": "fig4b", "runs": 1, "gops": 1, "jobs": 4})
        assert deduplicated is True
        assert second["id"] == first["id"]

    def test_force_bypasses_dedup(self, manager):
        first, _ = manager.submit({"command": "fig4b", "runs": 1, "gops": 1})
        second, deduplicated = manager.submit(
            {"command": "fig4b", "runs": 1, "gops": 1}, force=True)
        assert deduplicated is False
        assert second["id"] != first["id"]

    def test_failed_jobs_never_satisfy_dedup(self, manager):
        first, _ = manager.submit({"command": "fig4b", "runs": 1, "gops": 1})
        first["state"] = "failed"
        manager.workspace.save_job(first)
        second, deduplicated = manager.submit(
            {"command": "fig4b", "runs": 1, "gops": 1})
        assert deduplicated is False
        assert second["id"] != first["id"]

    def test_ids_are_sequential(self, manager):
        a, _ = manager.submit({"command": "fig4b", "runs": 1, "gops": 1})
        b, _ = manager.submit({"command": "fig4c", "runs": 1, "gops": 1})
        assert a["id"] == "job-0001"
        assert b["id"] == "job-0002"

    def test_invalid_spec_is_not_recorded(self, manager):
        with pytest.raises(JobError):
            manager.submit({"command": "fig4b", "runs": 0})
        assert manager.jobs() == []


class TestJobArgv:
    @pytest.mark.parametrize("command", ALLOWED_COMMANDS)
    def test_the_cli_accepts_every_flag_a_job_passes(self, manager, command):
        # The CLI rejects flags a command would ignore (--output for
        # simulate, --checkpoint for fig3/fig4a/simulate); a job's argv
        # must never carry one.
        record, _ = manager.submit({"command": command, "runs": 1,
                                    "gops": 1})
        args = build_parser().parse_args(manager._argv(record))
        assert args.progress is True


class TestCancel:
    def test_cancel_queued_is_immediate(self, manager):
        record, _ = manager.submit({"command": "fig4b", "runs": 1, "gops": 1})
        cancelled = manager.cancel(record["id"])
        assert cancelled["state"] == "cancelled"
        assert cancelled["error"] == "cancelled while queued"

    def test_cancel_terminal_is_a_noop(self, manager):
        record, _ = manager.submit({"command": "fig4b", "runs": 1, "gops": 1})
        manager.cancel(record["id"])
        again = manager.cancel(record["id"])
        assert again["state"] == "cancelled"
        assert again["cancel_requested"] == 1

    def test_unknown_job_raises(self, manager):
        with pytest.raises(JobError, match="unknown job"):
            manager.cancel("job-9999")


class TestExitCodeMapping:
    """_apply_exit_code maps the CLI exit contract onto job states."""

    def outcome(self, manager, code, **record_fields):
        record = {"id": "job-0001", "state": "running", "resumed": 0,
                  "cancel_requested": 0, **record_fields}
        requeue = manager._apply_exit_code(record, code)
        return record, requeue

    def test_zero_succeeds(self, manager):
        record, requeue = self.outcome(manager, 0)
        assert record["state"] == "succeeded"
        assert record["error"] is None
        assert requeue is False

    def test_failed_runs_and_deadline_fail(self, manager):
        record, _ = self.outcome(manager, EXIT_FAILED_RUNS)
        assert record["state"] == "failed"
        record, _ = self.outcome(manager, EXIT_DEADLINE)
        assert record["state"] == "failed"
        assert "deadline" in record["error"]

    def test_hard_abort_cancels(self, manager):
        record, _ = self.outcome(manager, EXIT_HARD_ABORT)
        assert record["state"] == "cancelled"

    def test_interrupt_after_cancel_request_cancels(self, manager):
        record, requeue = self.outcome(manager, EXIT_INTERRUPTED,
                                       cancel_requested=1)
        assert record["state"] == "cancelled"
        assert requeue is False

    def test_external_interrupt_requeues_for_resume(self, manager):
        record, requeue = self.outcome(manager, EXIT_INTERRUPTED)
        assert record["state"] == "queued"
        assert record["resumed"] == 1
        assert requeue is True

    def test_auto_resume_is_capped(self, manager):
        record, requeue = self.outcome(manager, EXIT_INTERRUPTED,
                                       resumed=MAX_AUTO_RESUMES)
        assert record["state"] == "failed"
        assert requeue is False

    def test_unexpected_code_fails(self, manager):
        record, _ = self.outcome(manager, 77)
        assert record["state"] == "failed"
        assert "77" in record["error"]


class TestEventsAndArtifacts:
    def test_events_before_any_log_are_empty(self, manager):
        record, _ = manager.submit({"command": "fig4b", "runs": 1, "gops": 1})
        events, next_index = manager.events(record["id"])
        assert events == []
        assert next_index == 0

    def test_events_parse_the_log_and_paginate(self, manager):
        record, _ = manager.submit({"command": "fig4b", "runs": 1, "gops": 1})
        log = manager.workspace.root / record["artifacts"]["log"]
        log.write_text(
            "[job-0001] resuming: 2 cell(s) already checkpointed, 5 to run\n"
            "engine noise that is not a progress line\n"
            "[job-0001] 3/5 proposed-fast|0|0 ok 0.41s\n"
            "[job-0001] 4/5 proposed-fast|0|1 FAILED 0.10s\n")
        events, next_index = manager.events(record["id"])
        assert [e["kind"] for e in events] == ["resume", "cell", "cell"]
        assert events[0]["cached"] == 2
        assert events[1]["ok"] is True
        assert events[2]["ok"] is False
        assert next_index == 3
        later, next_index = manager.events(record["id"], since=3)
        assert later == []
        assert next_index == 3

    def test_artifact_path_rejects_unknown_names(self, manager):
        record, _ = manager.submit({"command": "simulate", "runs": 1,
                                    "gops": 1})
        with pytest.raises(JobError, match="no 'checkpoint' artifact"):
            manager.artifact_path(record["id"], "checkpoint")

    def test_artifact_path_rejects_unknown_jobs(self, manager):
        with pytest.raises(JobError, match="unknown job"):
            manager.artifact_path("job-9999", "log")


class TestMetricsAndRecovery:
    def test_state_gauges_and_counters_reflect_the_queue(self, manager):
        a, _ = manager.submit({"command": "fig4b", "runs": 1, "gops": 1})
        manager.submit({"command": "fig4c", "runs": 1, "gops": 1})
        manager.submit({"command": "fig4b", "runs": 1, "gops": 1})  # dedup
        manager.cancel(a["id"])
        registry = manager.metrics_registry()
        counters = registry.counters()
        gauges = registry.gauges()
        assert counters["repro_serve_jobs_submitted_total"] == 2
        assert counters["repro_serve_jobs_deduplicated_total"] == 1
        assert gauges['repro_serve_jobs{state="queued"}'] == 1
        assert gauges['repro_serve_jobs{state="cancelled"}'] == 1
        assert gauges['repro_serve_jobs{state="running"}'] == 0

    def test_recover_requeues_stale_records(self, manager):
        record, _ = manager.submit({"command": "fig4b", "runs": 1, "gops": 1})
        record["state"] = "running"
        record["pid"] = None
        manager.workspace.save_job(record)
        done, _ = manager.submit({"command": "fig4c", "runs": 1, "gops": 1})
        done["state"] = "succeeded"
        manager.workspace.save_job(done)
        fresh = JobManager(manager.workspace, job_workers=1)
        requeued = fresh.recover()
        assert requeued == [record["id"]]
        recovered = fresh.get(record["id"])
        assert recovered["state"] == "queued"
        assert recovered["resumed"] == 1
        assert fresh.get(done["id"])["state"] == "succeeded"
