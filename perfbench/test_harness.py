"""Smoke test of the benchmark harness (about ten seconds).

Run from the repo root with ``python3 -m pytest perfbench/test_harness.py``.
"""

from __future__ import annotations

import json
import re

import pytest

import run
from spans import self_times

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def reduced_fig6(seed, index, unit_dir):
    """A fig6-interfering unit with three replications instead of ten."""
    return run._cli(
        ["fig6a", "--runs", "3", "--gops", "1", "--jobs", "1"], unit_dir,
        run.input_seed(seed, index),
        inject={"run_fig6a": {"utilizations": [run.FIG6_UTILIZATION]}})


@pytest.fixture(scope="module")
def declared():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reduced_pair(tmp_path_factory):
    """An untraced and a traced unit of the reduced fig6 on one input."""
    work = tmp_path_factory.mktemp("units")
    saved = run.WORKLOADS["fig6-interfering"]
    run.WORKLOADS["fig6-interfering"] = reduced_fig6
    try:
        return [run.run_unit("fig6-interfering", 7, 0, traced,
                             work / f"unit-{int(traced)}")
                for traced in (False, True)]
    finally:
        run.WORKLOADS["fig6-interfering"] = saved


def test_traced_unit_keeps_bytes_and_lockstep(reduced_pair):
    untraced, traced = reduced_pair
    assert "error" not in untraced and "error" not in traced
    assert traced["result_sha"] == untraced["result_sha"]
    assert traced["failed"] == untraced["failed"] == 0
    counts = traced["layers"]["counts"]
    assert traced["layers"]["obs"]["lockstep_batched_solves"] > 0
    assert counts["core.batch.solve_requests.requests"] == \
        traced["layers"]["obs"]["lockstep_batched_solves"]
    assert counts["sim.lockstep.rounds"] > 0


def test_self_times_add_up_to_the_traced_wall(reduced_pair):
    traced = reduced_pair[1]
    attributed = sum(traced["layers"]["self"].values())
    assert 0.0 < attributed <= traced["total"]
    assert 1.0 - attributed / traced["total"] <= 0.10


def test_self_time_arithmetic_on_synthetic_spans():
    nested = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["b", 1, 2.0, 3.0],
        ["a", 0, 5.0, 9.0],
        ["b", 3, 6.0, 8.0],
    ]
    assert self_times(nested) == pytest.approx(
        {"root": 3.0, "a": 4.0, "b": 3.0})
    assert sum(self_times(nested).values()) == pytest.approx(10.0)
    # Overlapping children are covered once; unclosed spans are ignored.
    odd = [["p", -1, 0.0, 4.0], ["c", 0, 1.0, 3.0], ["c", 0, 2.0, 3.5],
           ["x", 0, 3.8, None]]
    assert self_times(odd) == pytest.approx({"p": 1.5, "c": 3.5})


def test_every_emitted_name_is_declared(declared, reduced_pair):
    names = {kind: {m["name"] for m in declared[kind]}
             for kind in ("end_to_end", "per_layer", "workloads")}
    assert all(NAME.match(name) for group in names.values() for name in group)
    untraced, traced = reduced_pair
    assert set(run.end_to_end([untraced])) == names["end_to_end"]
    assert set(run.per_layer([traced], [untraced])) == names["per_layer"]
    assert names["workloads"] == set(run.WORKLOADS)


def test_corrupted_golden_fails_the_run(tmp_path, monkeypatch, capsys,
                                        reduced_pair):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"fig6-interfering": {"0": "0" * 64}}))
    monkeypatch.setattr(run, "GOLDEN", golden)
    monkeypatch.setattr(run, "run_units", lambda *args: [reduced_pair[0]])
    code = run.main(["--workload", "fig6-interfering", "--seed", "7",
                     "--out", str(tmp_path / "out")])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
