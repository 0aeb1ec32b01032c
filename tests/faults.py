"""Test doubles for the persistence layers' failure modes.

* :func:`corrupt_json_file` truncates a JSON/JSONL file mid-write,
  emulating an interrupted save, to test atomic-write and
  tolerant-resume behaviour.
* :class:`CrashingCheckpoint` raises :class:`InjectedCrash` partway
  through persisting a cell, leaving a genuinely torn final line for the
  resume path to repair.
* :func:`simulated_disk_full` makes ``os.fsync`` raise ``ENOSPC`` after
  a budget of successful calls, to test that persistence layers fail
  loudly and atomically instead of half-writing.

The engine-level faults (non-convergence, NaN fading, sensing outages,
hangs) are scheduled by :class:`repro.testing.faults.FaultPlan`, which a
scenario carries in ``ScenarioConfig.fault_plan``.
"""

from __future__ import annotations

import errno
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Union

from repro.sim.checkpoint import SweepCheckpoint


class InjectedCrash(BaseException):
    """A deliberately injected crash (never caught by library code).

    Derives from :class:`BaseException` -- not
    :class:`~repro.utils.errors.ReproError`, nor even ``Exception`` --
    so no retry/fallback/isolation layer can absorb it: it emulates a
    process dying mid-operation, and must rip straight through to the
    test harness.
    """


def corrupt_json_file(path: Union[str, Path], *,
                      keep_fraction: float = 0.5) -> Path:
    """Truncate a results/checkpoint file, emulating an interrupted write.

    Keeps the first ``keep_fraction`` of the file's bytes (at least one
    byte, strictly fewer than all of them, so the result is genuinely
    malformed).  Used to verify that readers fail loudly on corrupt
    result files and that the sweep checkpoint loader tolerates a
    truncated trailing line.
    """
    if not 0.0 < keep_fraction < 1.0:
        raise ValueError(
            f"keep_fraction must be in (0, 1), got {keep_fraction}")
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 2:
        raise ValueError(f"{path} is too small to corrupt meaningfully")
    keep = min(max(1, int(len(data) * keep_fraction)), len(data) - 1)
    path.write_bytes(data[:keep])
    return path


class CrashingCheckpoint(SweepCheckpoint):
    """Checkpoint writer that dies mid-append after N successful records.

    The ``crash_after``-th :meth:`record` call writes a *torn prefix* of
    its line (no trailing newline, truncated JSON) and then raises
    :class:`InjectedCrash` -- exactly the on-disk state a process killed
    inside ``write(2)`` leaves behind.  Used to prove the loader's
    truncated-final-line repair and byte-identical resume.
    """

    def __init__(self, *args, crash_after: int, **kwargs) -> None:
        if crash_after < 0:
            raise ValueError(f"crash_after must be >= 0, got {crash_after}")
        self.crash_after = int(crash_after)
        self._recorded = 0
        super().__init__(*args, **kwargs)

    def record(self, key, result) -> None:
        if self._recorded >= self.crash_after:
            import json as _json

            from repro.sim.checkpoint import run_metrics_to_dict
            from repro.sim.metrics import RunMetrics

            if isinstance(result, RunMetrics):
                line = {"key": key, "status": "ok",
                        "metrics": run_metrics_to_dict(result)}
            else:
                line = {"key": key, "status": "failed",
                        "failure": result.to_dict()}
            text = _json.dumps(line, sort_keys=True)
            torn = text[:max(1, len(text) // 2)]
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(torn)
                handle.flush()
                os.fsync(handle.fileno())
            raise InjectedCrash(
                f"injected crash mid-checkpoint-write of cell {key}")
        super().record(key, result)
        self._recorded += 1


@contextmanager
def simulated_disk_full(*, fail_after: int = 0) -> Iterator[None]:
    """Make ``os.fsync`` raise ``ENOSPC`` after ``fail_after`` successes.

    Patches :func:`os.fsync` for the duration of the ``with`` block:
    the first ``fail_after`` calls succeed, every later one raises
    ``OSError(ENOSPC)`` -- the moment a full volume actually surfaces
    for write-then-fsync persistence code.  Restores the real ``fsync``
    on exit, including on error.
    """
    real_fsync = os.fsync
    calls = {"n": 0}

    def failing_fsync(fd: int) -> None:
        calls["n"] += 1
        if calls["n"] > fail_after:
            raise OSError(errno.ENOSPC, "No space left on device (injected)")
        real_fsync(fd)

    os.fsync = failing_fsync
    try:
        yield
    finally:
        os.fsync = real_fsync
