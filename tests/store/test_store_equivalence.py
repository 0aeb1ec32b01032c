"""Differential contract: a workspace never changes a single result byte.

Runs the same small sweep with and without a managed workspace,
serially and with a 2-worker pool, and asserts the serialised results
are byte-identical and the checkpoints hold the same cell records.
"""

import json

import pytest

from repro.experiments.results_io import sweep_to_dict
from repro.experiments.scenarios import single_fbs_scenario
from repro.sim.runner import sweep
from repro.store.workspace import FileWorkspace

SWEEP_VALUES = (4, 6)
SWEEP_SCHEMES = ("proposed-fast", "heuristic1")
N_RUNS = 2


def run_sweep(tmp_path, tag, *, jobs=1, workspace=None):
    config = single_fbs_scenario(n_gops=1, seed=20260807)
    checkpoint = tmp_path / f"{tag}.jsonl"
    result = sweep(config, "n_channels", list(SWEEP_VALUES),
                   list(SWEEP_SCHEMES), n_runs=N_RUNS, jobs=jobs,
                   checkpoint_path=str(checkpoint), workspace=workspace,
                   run_name=tag if workspace is not None else None)
    serialised = json.dumps(sweep_to_dict(result), sort_keys=True)
    return serialised, checkpoint.read_bytes()


def _canonical_checkpoint(raw):
    """Checkpoint lines, order-insensitive.

    Cells are appended in *completion* order, which at ``--jobs 2`` is
    scheduling-dependent between two identical runs; each cell's record
    must still be byte-identical.
    """
    return sorted(raw.splitlines())


@pytest.mark.parametrize("jobs", [1, 2])
def test_results_identical_with_and_without_workspace(tmp_path, jobs):
    plain_json, plain_checkpoint = run_sweep(tmp_path, f"plain-{jobs}",
                                             jobs=jobs)
    ws_json, ws_checkpoint = run_sweep(tmp_path, f"ws-{jobs}", jobs=jobs,
                                       workspace=tmp_path / "ws")
    assert ws_json == plain_json
    assert (_canonical_checkpoint(ws_checkpoint)
            == _canonical_checkpoint(plain_checkpoint))
    # The path was coerced to a workspace and the sweep registered there.
    entry = FileWorkspace(tmp_path / "ws").entries()[f"ws-{jobs}"]
    assert entry["n_cells"] == len(SWEEP_VALUES) * len(SWEEP_SCHEMES) * N_RUNS
