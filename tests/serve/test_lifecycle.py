"""The ISSUE's acceptance test: kill the server mid-job, restart, and
the job resumes from its checkpoint to a byte-identical result.

Driven at the JobManager level (the HTTP layer adds nothing to the
lifecycle): manager A runs a fig4b sweep job until the checkpoint holds
a few cells, is killed SIGKILL-style (records left stale, exactly like
a power cut), and manager B on the same workspace must recover the job,
resume it from the checkpoint, and finish with the same bytes a direct
CLI run produces at a different ``--jobs`` count.
"""

import os
import time

import pytest

from repro import cli
from repro.serve.jobs import JobManager, TERMINAL_STATES
from repro.store.workspace import FileWorkspace

SPEC = {"command": "fig4b", "runs": 2, "gops": 1, "jobs": 2}
WAIT = 300.0


def wait_until(predicate, timeout=WAIT, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not met in time")


@pytest.fixture
def crashed(tmp_path):
    """A workspace holding one job killed mid-sweep, its id, and the
    process group the killed job child ran in."""
    workspace = tmp_path / "ws"
    first_life = JobManager(workspace, job_workers=1)
    first_life.start()
    record, _ = first_life.submit(SPEC)
    job_id = record["id"]
    checkpoint = workspace / record["artifacts"]["checkpoint"]

    def cells_checkpointed():
        if not checkpoint.exists():
            return 0
        lines = sum(1 for line in checkpoint.read_text().splitlines()
                    if line.strip())
        return lines - 1  # line 1 is the sweep header, not a cell

    wait_until(lambda: cells_checkpointed() >= 2)
    pgid = os.getpgid(first_life.get(job_id)["pid"])
    first_life.kill()
    yield workspace, job_id, pgid
    # (second-life managers are stopped by the tests themselves)


class TestCrashRecovery:
    def test_restart_resumes_from_checkpoint_byte_identically(
            self, crashed, tmp_path):
        workspace, job_id, _ = crashed
        stale = JobManager(workspace).get(job_id)
        # The crash left the record exactly as a power cut would.
        assert stale["state"] in ("building", "running")

        second_life = JobManager(workspace, job_workers=1)
        resumed = second_life.start()
        assert job_id in resumed
        try:
            final = wait_until(
                lambda: (second_life.get(job_id)
                         if second_life.get(job_id)["state"]
                         in TERMINAL_STATES else None))
        finally:
            second_life.stop(graceful=False, timeout=30)
        assert final["state"] == "succeeded"
        assert final["exit_code"] == 0
        assert final["resumed"] >= 1

        # The re-run resumed the checkpoint rather than starting over.
        events, _ = second_life.events(job_id)
        resumes = [e for e in events if e["kind"] == "resume"]
        assert resumes and resumes[-1]["cached"] >= 2

        # Byte identity against a direct CLI run at a different --jobs.
        direct = tmp_path / "direct.json"
        assert cli.main(["fig4b", "--runs", "2", "--gops", "1",
                         "--jobs", "1", "--output", str(direct)]) == 0
        served = workspace / final["artifacts"]["result"]
        assert served.read_bytes() == direct.read_bytes()

    def test_gc_protects_the_interrupted_jobs_inputs(self, crashed):
        workspace, job_id, _ = crashed
        ws = FileWorkspace(workspace)
        record = ws.job_records()[job_id]
        checkpoint = workspace / record["artifacts"]["checkpoint"]
        # The job's run entry (its resumable checkpoint) survives gc
        # while the job is active, even with every file gone...
        checkpoint.unlink()
        report = ws.gc()
        assert job_id in report["active_jobs"]
        assert job_id not in report["pruned_runs"]
        assert job_id in ws.entries()
        # ...and is pruned once the job record turns terminal.
        record["state"] = "cancelled"
        ws.save_job(record)
        report = ws.gc()
        assert job_id not in report["active_jobs"]
        assert job_id in report["pruned_runs"]
        assert job_id not in ws.entries()

    def test_crash_leaves_no_process_of_the_jobs_group(self, crashed):
        # kill() takes the job child's --jobs pool down with it: no
        # orphaned worker of its process group outlives the crash.
        _, _, pgid = crashed

        def group_gone():
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return True
            return False

        wait_until(group_gone, timeout=10.0)
