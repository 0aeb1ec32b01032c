"""Checkpoint/resume under parallel execution.

The contract being verified: a sweep interrupted mid-flight (with
fault-injected worker failures in the mix) can be resumed with a
*different* worker count and still produce exactly the result an
uninterrupted serial run would have -- the checkpoint is single-writer,
executor-agnostic, and keyed by cell, never by completion order.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exec.executor import SerialExecutor
from repro.exec.supervisor import EXIT_INTERRUPTED
from repro.experiments.results_io import sweep_to_dict
from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.runner import sweep
from repro.testing.faults import FaultPlan
from repro.utils.errors import ConfigurationError


class InterruptedSweep(RuntimeError):
    """Test-only stand-in for a crash / operator Ctrl-C."""


class InterruptingExecutor(SerialExecutor):
    """Serial executor that dies after a fixed number of cells."""

    def __init__(self, stop_after: int) -> None:
        self.stop_after = stop_after

    def run(self, cells):
        for done, outcome in enumerate(super().run(cells)):
            if done >= self.stop_after:
                raise InterruptedSweep(f"injected crash after {done} cells")
            yield outcome


@pytest.fixture
def faulty_config(single_config):
    """Small scenario where replication 1 always fails (after retry)."""
    plan = FaultPlan(nan_fading_slots={0}, poison_runs={1})
    return single_config.replace(fault_plan=plan, n_gops=1)


SWEEP_ARGS = ("n_channels", [4, 6], ["heuristic1", "heuristic2"])


def run(config, **kwargs):
    return sweep(config, *SWEEP_ARGS, n_runs=3, **kwargs)


class TestInterruptedParallelResume:
    def test_resume_with_different_jobs_matches_serial(self, faulty_config,
                                                       tmp_path):
        reference = run(faulty_config)  # uninterrupted, serial, no checkpoint

        path = tmp_path / "sweep.ckpt"
        with pytest.raises(InterruptedSweep):
            run(faulty_config, checkpoint_path=path,
                executor=InterruptingExecutor(stop_after=5))

        # The interruption left a partial, loadable checkpoint behind.
        partial = SweepCheckpoint(
            path, parameter=SWEEP_ARGS[0], values=SWEEP_ARGS[1],
            schemes=SWEEP_ARGS[2], n_runs=3, seed=faulty_config.seed)
        assert 0 < len(partial) < 12

        resumed = run(faulty_config, checkpoint_path=path, jobs=2)
        assert json.dumps(sweep_to_dict(resumed), sort_keys=True) == \
            json.dumps(sweep_to_dict(reference), sort_keys=True)

    def test_parallel_checkpoint_resumes_serially_too(self, faulty_config,
                                                      tmp_path):
        """jobs=2 writes the checkpoint, jobs=1 finishes from it."""
        reference = run(faulty_config)

        path = tmp_path / "sweep.ckpt"
        with pytest.raises(InterruptedSweep):
            run(faulty_config, checkpoint_path=path,
                executor=InterruptingExecutor(stop_after=7))
        resumed = run(faulty_config, checkpoint_path=path, jobs=1)
        assert json.dumps(sweep_to_dict(resumed), sort_keys=True) == \
            json.dumps(sweep_to_dict(reference), sort_keys=True)

    def test_failed_runs_are_checkpointed_not_recomputed(self, faulty_config,
                                                         tmp_path):
        path = tmp_path / "sweep.ckpt"
        result = run(faulty_config, checkpoint_path=path, jobs=2)
        assert result.n_failed == 4  # run 1 of each (scheme, point)

        # Resuming a complete checkpoint executes nothing.
        class ExplodingExecutor(SerialExecutor):
            def run(self, cells):
                assert list(cells) == []
                return iter(())

        resumed = run(faulty_config, checkpoint_path=path,
                      executor=ExplodingExecutor())
        assert json.dumps(sweep_to_dict(resumed), sort_keys=True) == \
            json.dumps(sweep_to_dict(result), sort_keys=True)

    def test_parallel_sweep_with_unpicklable_plan_fails_clearly(
            self, single_config):
        poisoned = single_config.replace(fault_plan=lambda slot: False)
        with pytest.raises(ConfigurationError, match="--jobs 1"):
            run(poisoned, jobs=2)


_SIGINT_DRIVER = """\
import sys

from repro.exec.executor import ParallelExecutor
from repro.exec.supervisor import EXIT_INTERRUPTED, ShutdownCoordinator
from repro.experiments.scenarios import single_fbs_scenario
from repro.sim.runner import sweep
from repro.testing.faults import FaultPlan
from repro.utils.errors import SweepInterrupted

# Slow every slot so the sweep is reliably mid-flight when the parent's
# SIGINT lands.  The fault only sleeps: results are identical to the
# fault-free run's, and the fault plan is not part of the checkpoint
# fingerprint, so the parent resumes fault-free.  Each worker runs one
# formation of six cells and admits no further cell once the parent's
# acknowledgement tells it of the drain.
config = single_fbs_scenario(n_gops=1, seed=123).replace(
    fault_plan=FaultPlan(slow_slots=frozenset(range(200)),
                         slow_seconds=0.1))
ShutdownCoordinator().install()
try:
    sweep(config, "n_channels", [4, 6], ["heuristic1", "heuristic2"],
          n_runs=3, checkpoint_path=sys.argv[1],
          executor=ParallelExecutor(2))
except SweepInterrupted:
    sys.exit(EXIT_INTERRUPTED)
sys.exit(0)
"""


class TestRealSigintMidSweep:
    """A genuine SIGINT, not a simulated one: the subprocess drains,
    exits with the documented code, and the parent resumes its
    checkpoint at a different --jobs to byte-identical results."""

    def test_sigint_drains_and_resume_is_byte_identical(self, single_config,
                                                        tmp_path):
        fault_free = single_config.replace(n_gops=1)
        reference = run(fault_free)

        script = tmp_path / "driver.py"
        script.write_text(_SIGINT_DRIVER)
        ckpt = tmp_path / "sweep.ckpt"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen([sys.executable, str(script), str(ckpt)],
                                env=env)
        try:
            # Wait until at least two cells are checkpointed (header +
            # 2 lines) before interrupting, so the resume genuinely
            # mixes checkpointed and recomputed cells.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if ckpt.exists() and \
                        len(ckpt.read_bytes().splitlines()) >= 3:
                    break
                if proc.poll() is not None:
                    pytest.fail(f"driver exited early with {proc.returncode}")
                time.sleep(0.05)
            else:
                pytest.fail("driver never checkpointed a cell")
            proc.send_signal(signal.SIGINT)
            returncode = proc.wait(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert returncode == EXIT_INTERRUPTED

        partial = SweepCheckpoint(
            ckpt, parameter=SWEEP_ARGS[0], values=SWEEP_ARGS[1],
            schemes=SWEEP_ARGS[2], n_runs=3, seed=fault_free.seed)
        assert 0 < len(partial) < 12

        resumed = run(fault_free, checkpoint_path=ckpt, jobs=1)
        assert json.dumps(sweep_to_dict(resumed), sort_keys=True) == \
            json.dumps(sweep_to_dict(reference), sort_keys=True)
