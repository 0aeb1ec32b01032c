"""Tracing, budgets and workers leave every cell in lockstep.

A lockstep formation runs whatever the scheme, the tracer,
``--profile``, ``--jobs`` or ``--cell-timeout``: only ``cell_batchable``
decides a cell's path.  A traced formation writes the spans the per-cell path
writes -- the same names, kinds, attrs and nesting, member by member --
with each member's own apportioned durations.
"""

import itertools
import json
from collections import Counter

import pytest

from repro import obs
from repro.cli import main
from repro.exec.executor import SerialExecutor
from repro.exec.plan import plan_campaign, plan_sweep
from repro.experiments.scenarios import interfering_fbs_scenario
from repro.sim.metrics import RunMetrics
from repro.utils.errors import ReproError
from tests.oracle import unbatched

FIGURES = ("fig4b", "fig6a")
TRACING = {"untraced": [], "traced": ["--trace"],
           "profiled": ["--trace", "--profile"]}
BUDGETS = {"unbudgeted": [], "budgeted": ["--cell-timeout", "120"]}

#: Spans of the slot loop; each must nest under a replication span.
NESTED_KINDS = ("slot", "phase", "solver")


def _run(tmp_path, figure, tracing=(), jobs=1, budget=()):
    """Run ``figure`` at ``--runs 2 --gops 1``; return its output bytes,
    metrics snapshot, and trace events grouped by writing process."""
    out = tmp_path / "out.json"
    metrics = tmp_path / "metrics.json"
    argv = [figure, "--runs", "2", "--gops", "1", "--jobs", str(jobs),
            "--output", str(out), "--metrics", str(metrics), *budget]
    trace = tmp_path / "run.trace"
    if tracing:
        argv += [tracing[0], str(trace), *tracing[1:]]
    assert main(argv) == 0
    files = [path for path in sorted(tmp_path.glob("run.trace*"))
             if not path.name.endswith(".manifest.json")]
    return (out.read_bytes(), obs.read_metrics_snapshot(str(metrics)),
            [obs.read_trace(str(path)) for path in files])


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Each figure's untraced ``--jobs 1`` results bytes."""
    return {figure: _run(tmp_path_factory.mktemp(figure), figure)[0]
            for figure in FIGURES}


def _replication_of(event, by_id):
    """The replication span ``event``'s parent chain reaches, or None."""
    while event is not None and event["kind"] != "replication":
        event = by_id.get(event["parent"])
    return event


@pytest.mark.parametrize("figure,tracing,jobs,budget", [
    pytest.param(figure, TRACING[tracing], jobs, BUDGETS[budget],
                 id=f"{figure}-{tracing}-jobs{jobs}-{budget}")
    for figure, tracing, jobs, budget in itertools.product(
        FIGURES, TRACING, (1, 2), BUDGETS)])
def test_every_way_to_run_keeps_lockstep(tmp_path, reference, figure,
                                         tracing, jobs, budget):
    data, snapshot, traces = _run(tmp_path, figure, tracing, jobs, budget)
    assert data == reference[figure]

    result = json.loads(data)
    n_points = len(result["values"])
    schemes = list(result["summaries"])
    counters = snapshot["counters"]
    assert counters["repro_lockstep_groups_total"] >= 1
    # Every cell's first attempt ran in a formation, whatever its scheme.
    assert counters["repro_lockstep_batch_members_total"] == \
        len(schemes) * n_points * 2
    assert "repro_lockstep_escapes_total" not in counters

    if not tracing:
        assert traces == []
        return
    replications = Counter()
    kinds = set()
    for events in traces:
        # Span ids are unique per writing process, so each file's
        # parent chains resolve within it.
        by_id = {event["span"]: event for event in events}
        for event in events:
            kinds.add(event["kind"])
            if event["kind"] in NESTED_KINDS:
                assert _replication_of(event, by_id) is not None, event
            if event["kind"] == "replication":
                attrs = event["attrs"]
                assert attrs["attempt"] == 0
                assert not attrs.get("escaped")
                replications[attrs["scheme"], attrs["run"]] += 1
    # One replication span per cell: each (scheme, run) once per point.
    assert replications == {(scheme, run): n_points
                            for scheme in schemes for run in (0, 1)}
    if "--profile" in tracing:
        assert {"phase", "solver"} <= kinds
    else:
        assert not {"phase", "solver"} & kinds


def _members(events):
    """Each replication's descendants as ``(kind, name, attrs, depth)``,
    in write order, keyed by ``(scheme, run, seed, k)`` where ``k``
    counts earlier-opened replications with the same attrs (sweep points
    share seeds)."""
    by_id = {event["span"]: event for event in events}
    replications = sorted((event for event in events
                           if event["kind"] == "replication"),
                          key=lambda event: event["span"])
    seen = Counter()
    keys = {}
    for event in replications:
        attrs = event["attrs"]
        base = (attrs["scheme"], attrs["run"], attrs["seed"])
        keys[event["span"]] = base + (seen[base],)
        seen[base] += 1
    members = {key: [] for key in keys.values()}
    for event in events:
        if event["kind"] not in NESTED_KINDS:
            continue
        depth, parent = 1, by_id[event["parent"]]
        while parent["kind"] != "replication":
            depth, parent = depth + 1, by_id[parent["parent"]]
        members[keys[parent["span"]]].append(
            (event["kind"], event["name"], event.get("attrs"), depth))
    return members, replications, keys


def _traced(path, cells, batched):
    """Run ``cells`` serially under a profiling tracer; return the
    outcomes and the trace, after checking which path the cells took."""
    tracer = obs.activate(obs.SpanTracer(str(path), collect_phases=True))
    obs.enable_metrics(True)
    try:
        with obs.scoped_registry() as registry:
            if batched:
                outcomes = list(SerialExecutor().run(cells))
            else:
                with unbatched():
                    outcomes = list(SerialExecutor().run(cells))
    finally:
        obs.enable_metrics(False)
        obs.deactivate()
    assert tracer.dropped == 0
    members = registry.counters().get("repro_lockstep_batch_members_total")
    assert members == (len(cells) if batched else None)
    return outcomes, obs.read_trace(str(path))


class TestFormationSpans:
    @pytest.fixture
    def cells(self):
        config = interfering_fbs_scenario(n_gops=1, n_channels=4, seed=5)
        return plan_sweep(config, "n_channels", [4, 6],
                          ["proposed", "proposed-fast"], n_runs=2).cells

    def test_formation_writes_the_per_cell_spans(self, tmp_path, cells):
        _, solo = _traced(tmp_path / "solo.trace", cells, batched=False)
        _, lockstep = _traced(tmp_path / "lockstep.trace", cells,
                              batched=True)
        solo_members, solo_reps, _ = _members(solo)
        members, reps, _ = _members(lockstep)
        assert len(members) == len(cells)
        assert members == solo_members
        assert [(rep["parent"], rep["attrs"]) for rep in reps] == \
            [(rep["parent"], rep["attrs"]) for rep in solo_reps]
        kinds = Counter(kind for spans in members.values()
                        for kind, _, _, _ in spans)
        assert kinds["slot"] and kinds["phase"] and kinds["solver"]

    def test_member_spans_report_its_own_time(self, tmp_path, cells):
        outcomes, events = _traced(tmp_path / "lockstep.trace", cells,
                                   batched=True)
        _, replications, keys = _members(events)
        by_id = {event["span"]: event for event in events}
        allocation = Counter()
        for event in events:
            if event["kind"] == "phase" and event["name"] == "allocation":
                slot = by_id[event["parent"]]
                allocation[slot["parent"]] += event["dur"]
        # Replication spans open in plan order; outcomes arrive as
        # members end.
        outcome_of = {outcome.cell.key: outcome for outcome in outcomes}
        by_key = {}
        for cell in cells:
            by_key.setdefault((cell.scheme, cell.run_index), []).append(
                outcome_of[cell.key])
        for rep in replications:
            scheme, run, _, k = keys[rep["span"]]
            outcome = by_key[scheme, run][k]
            # The replication span lasts the member's reported seconds,
            # and its allocation phases sum to its allocation time.
            assert rep["dur"] == outcome.seconds
            assert allocation[rep["span"]] == pytest.approx(
                outcome.result.phase_seconds["allocation"], rel=1e-9)
        # Members ran at once, yet no member's slots outlast its own
        # replication: batch mates' time is refunded.
        for rep in replications:
            slots = [event["dur"] for event in events
                     if event["kind"] == "slot"
                     and event["parent"] == rep["span"]]
            assert sum(slots) <= rep["dur"]

    def test_a_formation_stopped_early_closes_its_spans(self, tmp_path,
                                                        cells):
        path = tmp_path / "stopped.trace"
        obs.activate(obs.SpanTracer(str(path), collect_phases=True))
        try:
            outcomes = SerialExecutor().run(cells)
            next(outcomes)
            outcomes.close()  # the caller quits with members in flight
        finally:
            obs.deactivate()
        events = obs.read_trace(str(path))
        by_id = {event["span"]: event for event in events}
        for event in events:
            if event["kind"] in NESTED_KINDS:
                assert _replication_of(event, by_id) is not None, event
        assert sum(event["kind"] == "replication"
                   for event in events) == len(cells)


def test_an_escaped_member_is_marked_and_rerun(tmp_path, monkeypatch):
    # The stacked kernel and its one-at-a-time fallback both raise, so
    # each member's first greedy Q(c) request fails at its yield point.
    # The greedy runs outside the fallback chain, which cannot absorb
    # the error: the member escapes, and the per-cell path reruns it.
    from repro.sim import lockstep

    def raising(*args):
        raise ReproError("no stacked answer")

    monkeypatch.setattr(lockstep, "solve_requests", raising)
    monkeypatch.setattr(lockstep, "answer_request", raising)
    path = tmp_path / "escaped.trace"
    config = interfering_fbs_scenario(
        n_gops=1, n_channels=4, seed=123, scheme="proposed-fast")
    obs.activate(obs.SpanTracer(str(path), collect_phases=True))
    try:
        cells = plan_campaign(config, 2).cells
        outcomes = list(SerialExecutor().run(cells))
    finally:
        obs.deactivate()
    assert len(outcomes) == 2
    assert all(isinstance(outcome.result, RunMetrics)
               for outcome in outcomes)
    events = obs.read_trace(str(path))
    by_id = {event["span"]: event for event in events}
    replications = [event for event in events
                    if event["kind"] == "replication"]
    # Each escaped member's span is marked; the per-cell path's own
    # replication follows it.  The escaped attempt's one slot nests
    # under the marked span, and every slot of the rerun under its own.
    marks = sorted((event["attrs"]["run"], "escaped" in event["attrs"])
                   for event in replications)
    assert marks == [(0, False), (0, True), (1, False), (1, True)]
    slots = Counter()
    for event in events:
        if event["kind"] in NESTED_KINDS:
            replication = _replication_of(event, by_id)
            assert replication is not None, event
            if event["kind"] == "slot":
                attrs = replication["attrs"]
                slots[attrs["run"], "escaped" in attrs] += 1
    assert slots == {(0, True): 1, (1, True): 1,
                     (0, False): config.n_slots, (1, False): config.n_slots}
