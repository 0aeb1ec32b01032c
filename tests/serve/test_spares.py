"""Spare job processes, and jobs run through them, end to end.

Each worker of a started :class:`JobManager` keeps one spare: a
``python -m repro.jobchild`` process that has imported the CLI and
waits on its stdin for a job.  These tests drive the spare lifecycle
(lazy start, replacement, retirement), hold a job's report, log and
metrics to a direct ``python -m repro`` run, and cancel live jobs.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import cli
from repro.serve.jobs import TERMINAL_STATES, JobManager

WAIT = 300.0
SMALL = {"command": "fig4b", "runs": 1, "gops": 1}


def wait_until(predicate, timeout=WAIT, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not met in time")


def finished(manager, job_id):
    return wait_until(lambda: (manager.get(job_id) if manager.get(job_id)
                               ["state"] in TERMINAL_STATES else None))


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def cells_checkpointed(manager, record):
    path = manager.workspace.root / record["artifacts"]["checkpoint"]
    if not path.exists():
        return 0
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    return max(0, len(lines) - 1)  # line 1 is the sweep header


def direct_run(manager, record, root):
    """Run the job's own argv as ``python -m repro`` against ``root``.

    Returns the completed process; its ``--metrics``/``--output``/...
    files land under ``root`` where the job's land under the workspace.
    """
    workspace = str(manager.workspace.root)
    argv = [arg.replace(workspace, str(root)) for arg in
            manager._argv(record)]
    for arg in argv:
        if arg.startswith(str(root)):
            Path(arg).parent.mkdir(parents=True, exist_ok=True)
    return subprocess.run([sys.executable, "-m", "repro"] + argv,
                          env=manager._child_env(), capture_output=True,
                          text=True, timeout=WAIT)


@pytest.fixture
def manager(tmp_path):
    started = JobManager(tmp_path / "ws", job_workers=1)
    yield started
    started.stop(graceful=False, timeout=30)


class TestSpareLifecycle:
    def test_unstarted_and_idle_managers_spawn_no_process(self, manager):
        manager.submit(SMALL)
        assert manager._spares == {}
        idle = JobManager(manager.workspace.root.parent / "idle",
                          job_workers=2)
        idle.start()
        try:
            time.sleep(0.5)
            assert idle._spares == {}
        finally:
            idle.stop()

    def test_spare_exits_zero_on_eof_without_running_anything(self, manager):
        spare = subprocess.Popen(
            [sys.executable, "-m", "repro.jobchild"], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=manager._child_env())
        out, err = spare.communicate(b"", timeout=WAIT)
        assert spare.returncode == 0
        assert out == b"" and err == b""

    def test_a_job_leaves_one_spare_that_stop_retires(self, manager):
        manager.start()
        record, _ = manager.submit(SMALL)
        assert finished(manager, record["id"])["state"] == "succeeded"
        spare = manager._spares[0]
        assert spare.poll() is None
        manager.stop()
        assert manager._spares == {}
        assert spare.returncode == 0
        assert not alive(spare.pid)

    def test_kill_retires_the_idle_spare(self, manager):
        manager.start()
        record, _ = manager.submit(SMALL)
        finished(manager, record["id"])
        spare = manager._spares[0]
        manager.kill()
        assert manager._spares == {}
        assert spare.returncode is not None
        assert not alive(spare.pid)

    def test_retire_kills_a_spare_that_outlives_the_timeout(self, manager):
        # A spare stopped mid-import cannot read its EOF in time.
        spare = manager._spawn_spare()
        os.kill(spare.pid, signal.SIGSTOP)
        manager._spares[0] = spare
        manager._retire_spares(0.2)
        assert spare.returncode == -signal.SIGKILL
        assert not alive(spare.pid)

    def test_a_dead_spare_is_replaced_when_a_job_is_taken(self, manager):
        manager.start()
        first, _ = manager.submit(SMALL)
        finished(manager, first["id"])
        dead = manager._spares[0]
        os.kill(dead.pid, signal.SIGKILL)
        wait_until(lambda: dead.poll() is not None)
        second, _ = manager.submit(dict(SMALL, seed=8, trace=True))
        record = finished(manager, second["id"])
        assert record["state"] == "succeeded"
        trace = manager.workspace.root / record["artifacts"]["trace"]
        pids = {json.loads(line)["pid"]
                for line in trace.read_text().splitlines()}
        assert dead.pid not in pids
        assert manager._spares[0].pid not in pids | {dead.pid}


class TestLaunchPath:
    def test_unwritable_report_fails_the_launch(self, manager):
        record, _ = manager.submit(SMALL)
        # A directory where the report goes: opening it for writing fails.
        (manager.workspace.root / record["artifacts"]["stdout"]).mkdir()
        manager.start()
        failed = finished(manager, record["id"])
        assert failed["state"] == "failed"
        assert failed["error"].startswith("failed to launch job process")

    def test_spare_import_failure_reaches_the_server_stderr(
            self, manager, tmp_path, capfd):
        broken = tmp_path / "broken" / "repro"
        broken.mkdir(parents=True)
        (broken / "__init__.py").write_text(
            "raise ImportError('spare import failed here')\n")
        env = dict(manager._child_env(), PYTHONPATH=str(broken.parent))
        manager._child_env = lambda: env
        manager.start()
        record, _ = manager.submit(SMALL)
        assert finished(manager, record["id"])["state"] == "failed"
        assert "spare import failed here" in capfd.readouterr().err

    def test_report_and_log_match_a_direct_cli_run(self, manager, tmp_path):
        manager.start()
        record, _ = manager.submit(SMALL)
        record = finished(manager, record["id"])
        assert record["state"] == "succeeded"
        direct = direct_run(manager, record, tmp_path / "direct")
        assert direct.returncode == 0

        def normalized(text, root):
            # Paths differ by workspace root; durations, rates and the
            # slowest-cells ranking differ by timing.
            text = text.replace(str(root), "<root>")
            text = re.sub(r"\d+\.\d+(?=\s?s\b|x |\s?cells/s)", "<t>", text)
            return [line for line in text.splitlines()
                    if not line.startswith("slowest cells")]

        root = manager.workspace.root
        served_out = (root / record["artifacts"]["stdout"]).read_text()
        served_log = (root / record["artifacts"]["log"]).read_text()
        assert "Timing report" in served_out and served_log
        assert normalized(served_out, root) == normalized(
            direct.stdout, tmp_path / "direct")
        assert normalized(served_log, root) == normalized(
            direct.stderr, tmp_path / "direct")

    def test_consecutive_jobs_run_in_fresh_processes(self, manager,
                                                     tmp_path):
        manager.start()
        pids, records = [], []
        for seed in (7, 8):
            record, _ = manager.submit(dict(SMALL, seed=seed, trace=True))
            record = finished(manager, record["id"])
            assert record["state"] == "succeeded"
            trace = manager.workspace.root / record["artifacts"]["trace"]
            pids.append({json.loads(line)["pid"]
                         for line in trace.read_text().splitlines()})
            records.append(record)
        assert len(pids[0]) == len(pids[1]) == 1
        assert pids[0] != pids[1]

        # Nothing the first job left behind (caches, registries) shows
        # in the second's metrics: they equal a fresh CLI run's.
        assert direct_run(manager, records[1],
                          tmp_path / "direct").returncode == 0

        def deterministic(path):
            snapshot = json.loads(path.read_text())
            return {kind: {name: value
                           for name, value in snapshot[kind].items()
                           if "seconds" not in name}
                    for kind in ("counters", "histograms")}

        metrics = records[1]["artifacts"]["metrics"]
        served = deterministic(manager.workspace.root / metrics)
        assert served["counters"]["repro_slots_total"] > 0
        assert served == deterministic(tmp_path / "direct" / metrics)


class TestLiveCancel:
    def test_one_cancel_drains_to_a_checkpoint_that_resumes(
            self, manager, tmp_path, capsys):
        manager.start()
        spec = {"command": "fig6a", "runs": 2, "gops": 1}
        record, _ = manager.submit(spec)
        wait_until(lambda: cells_checkpointed(manager, record) >= 1)
        manager.cancel(record["id"])
        record = finished(manager, record["id"])
        assert record["state"] == "cancelled"
        assert record["exit_code"] == 4
        cached = cells_checkpointed(manager, record)
        assert 1 <= cached < 30

        checkpoint = manager.workspace.root / record["artifacts"]["checkpoint"]
        argv = ["fig6a", "--runs", "2", "--gops", "1", "--progress"]
        assert cli.main(argv + ["--checkpoint", str(checkpoint), "--output",
                                str(tmp_path / "resumed.json")]) == 0
        assert f"resuming: {cached} cell(s) already checkpointed" in \
            capsys.readouterr().err
        assert cli.main(argv + ["--output", str(tmp_path / "direct.json")]) == 0
        assert (tmp_path / "resumed.json").read_bytes() == \
            (tmp_path / "direct.json").read_bytes()

    def test_a_second_cancel_hard_aborts(self, manager):
        manager.start()
        record, _ = manager.submit({"command": "fig6a", "runs": 2, "gops": 2})
        # The ten proposed-fast cells of all five points are one
        # formation, and it runs first.  Once one member is checkpointed
        # the formation is in flight and the drain waits for it, so the
        # second cancel lands while it runs.
        wait_until(lambda: cells_checkpointed(manager, record) >= 1)
        manager.cancel(record["id"])
        time.sleep(0.1)
        manager.cancel(record["id"])
        record = finished(manager, record["id"])
        assert record["state"] == "cancelled"
        assert record["exit_code"] == 6
        assert record["cancel_requested"] == 2
        assert cells_checkpointed(manager, record) < 10
