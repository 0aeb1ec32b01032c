"""The two-stage graceful-shutdown protocol.

First signal: stop dispatching, drain in-flight cells to the
checkpoint, raise :class:`~repro.utils.errors.SweepInterrupted` (the
CLI's exit code 4).  Second signal: run the registered flushers and
hard-exit with code 6.  The payoff being verified: an interrupted sweep
resumes byte-identical to an uninterrupted one, at any worker count.
"""

import json
import signal

import pytest

from repro.exec.executor import ParallelExecutor, SerialExecutor
from repro.exec.plan import plan_campaign
from repro.exec.supervisor import (
    EXIT_HARD_ABORT,
    ShutdownCoordinator,
    active_shutdown,
    shutdown_draining,
)
from repro.experiments.results_io import sweep_to_dict
from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.runner import sweep
from repro.utils.errors import SweepInterrupted

SWEEP_ARGS = ("n_channels", [4, 6], ["heuristic1", "heuristic2"])


def run(config, **kwargs):
    return sweep(config, *SWEEP_ARGS, n_runs=3, **kwargs)


def as_json(result) -> str:
    return json.dumps(sweep_to_dict(result), sort_keys=True)


@pytest.fixture
def fast_config(single_config):
    return single_config.replace(n_gops=1)


class TriggerAfter:
    """Progress observer that fires the coordinator after N outcomes."""

    def __init__(self, coordinator: ShutdownCoordinator, after: int) -> None:
        self.coordinator = coordinator
        self.after = after
        self.seen = 0

    def observe(self, outcome) -> None:
        self.seen += 1
        if self.seen == self.after:
            self.coordinator.trigger(signal.SIGINT)


class TestShutdownCoordinator:
    def test_stages(self):
        exits = []
        coordinator = ShutdownCoordinator(hard_exit=exits.append)
        assert coordinator.stage == 0 and not coordinator.draining
        coordinator.trigger()
        assert coordinator.stage == 1 and coordinator.draining
        assert exits == []  # first signal never exits
        coordinator.trigger()
        assert exits == [EXIT_HARD_ABORT]

    def test_second_signal_runs_flushers_before_exit(self):
        order = []
        coordinator = ShutdownCoordinator(
            hard_exit=lambda code: order.append(("exit", code)))
        coordinator.add_flusher(lambda: order.append("flush-a"))
        coordinator.add_flusher(lambda: order.append("flush-b"))
        coordinator.trigger()
        assert order == []  # draining does not flush yet
        coordinator.trigger()
        assert order == ["flush-a", "flush-b", ("exit", EXIT_HARD_ABORT)]

    def test_broken_flusher_does_not_block_the_abort(self):
        exits = []
        coordinator = ShutdownCoordinator(hard_exit=exits.append)

        def broken():
            raise RuntimeError("flusher died")

        coordinator.add_flusher(broken)
        coordinator.trigger()
        coordinator.trigger()
        assert exits == [EXIT_HARD_ABORT]

    def test_remove_flusher(self):
        ran = []
        coordinator = ShutdownCoordinator(hard_exit=lambda code: None)
        coordinator.add_flusher(ran.append)
        coordinator.remove_flusher(ran.append)
        coordinator.remove_flusher(ran.append)  # absent: no error
        coordinator.trigger()
        coordinator.trigger()
        assert ran == []

    def test_install_uninstall_restores_handlers_and_global(self):
        previous_int = signal.getsignal(signal.SIGINT)
        previous_term = signal.getsignal(signal.SIGTERM)
        coordinator = ShutdownCoordinator(hard_exit=lambda code: None)
        with coordinator:
            assert active_shutdown() is coordinator
            assert signal.getsignal(signal.SIGINT) != previous_int
        assert active_shutdown() is None
        assert not shutdown_draining()
        assert signal.getsignal(signal.SIGINT) == previous_int
        assert signal.getsignal(signal.SIGTERM) == previous_term

    def test_installed_handler_drives_the_stages(self):
        exits = []
        coordinator = ShutdownCoordinator(hard_exit=exits.append)
        with coordinator:
            signal.raise_signal(signal.SIGINT)
            assert coordinator.draining and exits == []
            assert shutdown_draining()
            signal.raise_signal(signal.SIGINT)
        assert exits == [EXIT_HARD_ABORT]


class TestDrainMidSweep:
    def test_serial_drain_then_resume_byte_identical(self, fast_config,
                                                     tmp_path):
        reference = run(fast_config)
        path = tmp_path / "sweep.ckpt"
        coordinator = ShutdownCoordinator(hard_exit=lambda code: None)
        with coordinator:
            with pytest.raises(SweepInterrupted):
                run(fast_config, checkpoint_path=path,
                    progress=TriggerAfter(coordinator, after=4))

        partial = SweepCheckpoint(
            path, parameter=SWEEP_ARGS[0], values=SWEEP_ARGS[1],
            schemes=SWEEP_ARGS[2], n_runs=3, seed=fast_config.seed)
        assert 0 < len(partial) < 12  # drained early, cells persisted

        resumed = run(fast_config, checkpoint_path=path, jobs=2)
        assert as_json(resumed) == as_json(reference)

    def test_supervised_drain_then_resume_byte_identical(self, fast_config,
                                                         tmp_path):
        reference = run(fast_config)
        path = tmp_path / "sweep.ckpt"
        coordinator = ShutdownCoordinator(hard_exit=lambda code: None)
        executor = ParallelExecutor(2, cell_timeout=120.0,
                                    shutdown=coordinator)
        with pytest.raises(SweepInterrupted):
            run(fast_config, checkpoint_path=path, executor=executor,
                progress=TriggerAfter(coordinator, after=3))

        partial = SweepCheckpoint(
            path, parameter=SWEEP_ARGS[0], values=SWEEP_ARGS[1],
            schemes=SWEEP_ARGS[2], n_runs=3, seed=fast_config.seed)
        # In-flight cells drained to the checkpoint before stopping.
        assert len(partial) >= 3

        resumed = run(fast_config, checkpoint_path=path)
        assert as_json(resumed) == as_json(reference)

    def test_serial_executor_stops_dispatching_when_draining(self,
                                                             fast_config):
        coordinator = ShutdownCoordinator(hard_exit=lambda code: None)
        plan = plan_campaign(fast_config, 3)
        with coordinator:
            coordinator.trigger()
            outcomes = list(SerialExecutor().run(plan.cells))
        assert outcomes == []

    def test_campaign_without_checkpoint_reports_interruption(self,
                                                              fast_config):
        from repro.sim.runner import MonteCarloRunner

        coordinator = ShutdownCoordinator(hard_exit=lambda code: None)
        with coordinator:
            coordinator.trigger()
            runner = MonteCarloRunner(fast_config, n_runs=3)
            with pytest.raises(SweepInterrupted):
                runner.run_all()
