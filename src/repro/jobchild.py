"""Spare job process of the job service: ``python -m repro.jobchild``.

Each worker of :class:`repro.serve.jobs.JobManager` keeps one *spare*
ready: a process started as ``python -m repro.jobchild`` that has
already imported :mod:`repro.cli` and is blocked reading its stdin.  A
job arrives as one JSON line::

    {"argv": ["fig4b", "--runs", "2", ...],
     "stdout": "<workspace>/jobs/job-0001.out",
     "stderr": "<workspace>/jobs/job-0001.log"}

The spare opens both files for appending, ``dup2``\\ s them onto fds 1
and 2, and runs ``sys.exit(repro.cli.main(argv))``.  From then on it is
the job's process, the same run ``python -m repro <argv>`` would make,
and it leaves through a normal interpreter shutdown.  End of file on
stdin (the server closed it, or died) makes the spare exit 0 without
running anything.

Until the handoff the spare writes to the server's stderr, so a failed
import shows in the server log.  The module lives outside
:mod:`repro.serve` on purpose: that package's ``__init__`` imports the
HTTP server and client, which a job never uses.
"""

import json
import os
import sys

import repro.cli


def _redirect(path: str, fd: int) -> None:
    """Point ``fd`` at ``path``, opened for appending."""
    target = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    os.dup2(target, fd)
    os.close(target)


def main() -> int:
    line = sys.stdin.readline()
    if not line:
        return 0
    job = json.loads(line)
    _redirect(job["stdout"], 1)
    _redirect(job["stderr"], 2)
    return repro.cli.main(job["argv"])


if __name__ == "__main__":
    sys.exit(main())
