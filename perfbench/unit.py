"""One benchmark unit: a fresh process that runs the program once.

Run as ``python perfbench/unit.py SPEC.json`` by ``perfbench/run.py``
with ``PYTHONPATH`` pointing at the checkout's ``src``.  The spec names
the workload kind (``cli`` or ``service``), the generated program inputs,
whether the unit is traced, and the unit's directory.  The unit writes
``report.json`` there (and ``spans.jsonl`` when traced).

Untraced units install one hook: ``repro.exec.executor.make_executor``
hands back executors whose ``run`` is observed from outside, which marks
the first dispatch and accounts every cell outcome.  Traced units also
wrap each layer's public functions under the name their callers resolve,
and enable the program's metrics registry.  Neither touches the two
execution seams (``repro.sim.runner.execute_run``,
``repro.exec.executor._execute_cell``) or the program's own tracer:
either would make lockstep batching stand down.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import io
import json
import pickle
import resource
import sys
import threading
import time
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

from spans import Recorder, read_worker_sidecars, self_times, span_dict, write_jsonl

#: Client poll period; the client's 0.5 s default would quantise latency.
POLL_SECONDS = 0.02

#: Layer functions wrapped by traced units: (span, module, attribute).
#: Each entry names the module the *caller* resolves the function in.
LAYER_FUNCTIONS = (
    ("exec.plan", "repro.exec.plan", "plan_sweep"),
    ("exec.plan", "repro.exec.plan", "plan_campaign"),
    ("store.built_for", "repro.sim.runner", "built_for"),
    ("store.built_for", "repro.sim.lockstep", "built_for"),
    ("sim.fallback.check_allocation", "repro.sim.fallback", "check_allocation"),
    ("core.batch.answer_request", "repro.core.batch", "answer_request"),
    ("core.batch.answer_request", "repro.sim.lockstep", "answer_request"),
    ("core.dual.flip_polish", "repro.core.dual", "flip_polish"),
    ("core.dual.flip_polish", "repro.core.batch", "flip_polish"),
    ("core.reference.solve_given_assignment", "repro.core.dual",
     "solve_given_assignment"),
    ("core.reference.solve_given_assignment", "repro.core.batch",
     "solve_given_assignment"),
    ("core.reference.solve_given_assignment", "repro.core.coloring",
     "solve_given_assignment"),
    ("core.reference.compile_slot_problem", "repro.core.reference",
     "compile_slot_problem"),
    ("core.reference.compile_slot_problem", "repro.core.dual",
     "compile_slot_problem"),
)

#: Layer methods wrapped by traced units: (span, module, class, method).
LAYER_METHODS = (
    ("sim.engine.init", "repro.sim.engine", "SimulationEngine", "__init__"),
    ("sim.engine.run", "repro.sim.engine", "SimulationEngine", "run"),
    ("sim.engine.build_slot_problem", "repro.sim.engine", "SimulationEngine",
     "build_slot_problem"),
    ("core.coloring.allocate", "repro.core.coloring",
     "GraphColoringAllocator", "allocate"),
    ("core.heuristics.allocate", "repro.core.heuristics",
     "EqualAllocationHeuristic", "allocate"),
    ("core.heuristics.allocate", "repro.core.heuristics",
     "MultiuserDiversityHeuristic", "allocate"),
)


#: Every span name a unit can record; each is reported as ``<name>_s``.
SPANS = tuple(dict.fromkeys(
    ("cli.import", "cli.main", "exec.run", "sim.lockstep.driver",
     "core.batch.solve_requests", "sim.checkpoint.record",
     "experiments.results_io.save", "serve.start", "serve.submit",
     "serve.wait", "serve.fetch")
    + tuple(entry[0] for entry in LAYER_FUNCTIONS + LAYER_METHODS)))


def _resolve(module_name, *path):
    """The object at ``module.path[0]...``, or None when it does not exist."""
    try:
        target = importlib.import_module(module_name)
    except ImportError:
        return None
    for name in path:
        target = getattr(target, name, None)
        if target is None:
            return None
    return target


def _replace(owner, attribute, make):
    """Set ``owner.attribute = make(original)`` if the attribute exists."""
    original = getattr(owner, attribute, None) if owner is not None else None
    if original is not None:
        setattr(owner, attribute, make(original))


def _before(fn, hook):
    """``fn`` with ``hook(*args, **kwargs)`` called first."""
    @functools.wraps(fn)
    def call(*args, **kwargs):
        hook(*args, **kwargs)
        return fn(*args, **kwargs)
    return call


class Accounting:
    """Cell outcomes as the executor hands them back to the sweep."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.dispatch = None
        self.cells = self.failed = self.slots = self.degraded = 0
        self.busy = self.exec_wall = 0.0
        self.jobs = 1
        self.phases = Counter()

    def make_executor(self, original):
        def make(*args, **kwargs):
            executor = original(*args, **kwargs)
            run = executor.run
            executor.run = lambda cells: self.observe(run, executor, cells)
            return executor
        return make

    def observe(self, run, executor, cells):
        if self.dispatch is None:
            self.dispatch = time.monotonic()
        self.jobs = max(self.jobs, int(getattr(executor, "jobs", 1) or 1))
        outcomes = run(cells)
        while True:
            start = time.monotonic()
            with self.recorder.span("exec.run"):
                outcome = next(outcomes, None)
            self.exec_wall += time.monotonic() - start
            if outcome is None:
                return
            self.account(outcome)
            yield outcome

    def account(self, outcome):
        self.cells += 1
        self.busy += outcome.seconds
        result = outcome.result
        if type(result).__name__ == "FailedRun":
            self.failed += 1
            return
        self.slots += outcome.cell.config.n_slots
        self.degraded += len(result.degradation_events)
        self.phases.update(result.phase_seconds)


class Layers:
    """Traced-unit wrappers and the data they collect."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.chunks = []
        self.checkpoints = set()
        self.results = set()

    def install(self):
        rec = self.recorder
        for span, module, attribute in LAYER_FUNCTIONS:
            _replace(_resolve(module), attribute,
                     lambda fn, span=span: rec.wrap(fn, span))
        for span, module, cls, method in LAYER_METHODS:
            _replace(_resolve(module, cls), method,
                     lambda fn, span=span: rec.wrap(fn, span))
        lockstep = _resolve("repro.sim.lockstep")
        _replace(lockstep, "run_cells_lockstep", self._lockstep_driver)
        _replace(lockstep, "solve_requests", lambda fn: rec.wrap(
            _before(fn, self._kernel_call), "core.batch.solve_requests"))
        _replace(_resolve("repro.sim.checkpoint", "SweepCheckpoint"), "record",
                 lambda fn: rec.wrap(_before(fn, self._checkpoint_record),
                                     "sim.checkpoint.record"))
        _replace(_resolve("repro.experiments.results_io"), "save_results",
                 lambda fn: rec.wrap(_before(fn, self._save_results),
                                     "experiments.results_io.save"))
        _replace(_resolve("repro.exec.executor", "ParallelExecutor"), "_chunks",
                 self._chunking)

    def _lockstep_driver(self, original):
        rec = self.recorder

        def escaped(fallback):
            def run(cell):
                rec.count("sim.lockstep.escapes")
                return fallback(cell)
            return run

        def driver(cells, fallback):
            rec.count("sim.lockstep.groups")
            rec.count("sim.lockstep.members", len(cells))
            return original(cells, escaped(fallback))
        return rec.wrap(driver, "sim.lockstep.driver")

    def _kernel_call(self, requests):
        self.recorder.count("sim.lockstep.rounds")
        self.recorder.count("core.batch.solve_requests.calls")
        self.recorder.count("core.batch.solve_requests.requests", len(requests))

    def _checkpoint_record(self, checkpoint, *args, **kwargs):
        self.recorder.count("sim.checkpoint.records")
        self.checkpoints.add(str(checkpoint.path))

    def _save_results(self, obj, path, **kwargs):
        self.results.add(str(path))

    def _chunking(self, original):
        def chunks(executor, cells):
            out = original(executor, cells)
            self.chunks.extend(out)
            return out
        return chunks

    def chunk_totals(self):
        """Pickled bytes of the dispatched chunks and lockstep groups split
        across chunk boundaries (computed after the measured window)."""
        if not self.chunks:
            return 0, 0
        from repro.sim.lockstep import plan_batch_groups

        chunk_of = {id(cell): index
                    for index, chunk in enumerate(self.chunks) for cell in chunk}
        cells = [cell for chunk in self.chunks for cell in chunk]
        split = sum(1 for group in plan_batch_groups(cells)
                    if len(group) > 1
                    and len({chunk_of[id(cell)] for cell in group}) > 1)
        pickled = sum(len(pickle.dumps(chunk)) for chunk in self.chunks)
        return pickled, split


def _obs_totals(counters):
    """The per-layer counts read from a metrics registry's counters."""
    totals = Counter()
    for key, value in counters.items():
        name, _, labels = key.partition("{")
        if name == "repro_greedy_q_evaluations_total":
            totals["greedy_evaluations"] += value
        elif name == "repro_greedy_q_cache_hits_total":
            totals["greedy_hits"] += value
        elif name == "repro_solver_solves_total":
            totals["solver_solves"] += value
            if 'converged="false"' in labels:
                totals["solver_unconverged"] += value
        elif name == "repro_solver_iterations_total":
            totals["solver_iterations"] += value
        elif name == "repro_lockstep_batched_solves_total":
            totals["lockstep_batched_solves"] += value
        elif name == "repro_scenario_store_requests_total":
            if 'result="hit"' in labels:
                totals["store_hits"] += value
            if 'result="persist-skipped"' not in labels:
                totals["store_requests"] += value
    return totals


def _peak_rss_mb():
    """Peak RSS of this process and its reaped children, in MB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def run_cli(spec, recorder, report):
    with recorder.span("cli.import"):
        import repro.cli as cli
    accounting = Accounting(recorder)
    _replace(_resolve("repro.exec.executor"), "make_executor",
             accounting.make_executor)
    layers = None
    if spec["trace"]:
        layers = Layers(recorder)
        layers.install()
        from repro.obs.metrics import enable_metrics

        enable_metrics(True)
    # Generated inputs the CLI has no flag for (e.g. the sweep points).
    for function, kwargs in spec.get("inject", {}).items():
        setattr(cli, function, functools.partial(getattr(cli, function), **kwargs))
    stdout = io.StringIO()
    with redirect_stdout(stdout), recorder.span("cli.main"):
        code = cli.main(spec["argv"])
    report["end"] = time.monotonic()
    report["mark"] = accounting.dispatch
    report["peak_rss_mb"] = _peak_rss_mb()
    output = spec.get("output")
    data = Path(output).read_bytes() if output else stdout.getvalue().encode()
    report["result_sha"] = hashlib.sha256(data).hexdigest()
    report["attempted"] = accounting.cells
    report["failed"] = accounting.failed + (code != 0)
    report["slots"] = accounting.slots
    if layers is None:
        return
    from repro.obs.metrics import global_registry

    worker_spans, worker_counts = read_worker_sidecars(Path(spec["dir"]))
    worker_self = Counter()
    for spans in worker_spans:
        worker_self.update(self_times(spans))
    pickled, split = layers.chunk_totals()
    report["layers"] = {
        "counts": dict(recorder.counts + worker_counts),
        "worker_self": dict(worker_self),
        "obs": dict(_obs_totals(global_registry().counters())),
        "exec": {"cells": accounting.cells, "busy": accounting.busy,
                 "wall": accounting.exec_wall, "jobs": accounting.jobs,
                 "pickled_bytes": pickled, "groups_split": split},
        "phases": dict(accounting.phases),
        "slots": accounting.slots,
        "degraded": accounting.degraded,
        "checkpoint_bytes": sum(Path(p).stat().st_size
                                for p in layers.checkpoints),
        "result_bytes": sum(Path(p).stat().st_size for p in layers.results),
    }


def _submit_and_fetch(client, recorder, job_spec):
    """One closed-loop request: submit, poll to completion, fetch bytes."""
    start = time.monotonic()
    with recorder.span("serve.submit"):
        submitted = client.submit(job_spec)
    with recorder.span("serve.wait"):
        view = client.wait(submitted.id, poll=POLL_SECONDS)
    with recorder.span("serve.fetch"):
        data = client.result_bytes(view.id) if view.state == "succeeded" else b""
    return {"id": view.id, "state": view.state, "seed": job_spec["seed"],
            "deduplicated": submitted.deduplicated,
            "latency": time.monotonic() - start, "fetched_at": time.time(),
            "sha": hashlib.sha256(data).hexdigest(),
            "created": view.record.get("created"),
            "started": view.record.get("started"),
            "finished": view.record.get("finished")}


def _job_counters(workspace, job_id):
    from repro.obs.export import read_metrics_snapshot

    path = Path(workspace) / "jobs" / f"{job_id}.metrics.json"
    return read_metrics_snapshot(path).get("counters", {})


def run_service(spec, recorder, report):
    with recorder.span("cli.import"):
        from repro.serve.api import make_server
        from repro.serve.client import ServiceClient
    workspace = Path(spec["dir"]) / "workspace"
    with recorder.span("serve.start"):
        server = make_server(workspace, port=0, job_workers=1)
        server.manager.start()
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        client = ServiceClient("http://127.0.0.1:%d" % server.server_address[1])
        client.health()
    report["mark"] = time.monotonic()
    jobs = []
    try:
        for seed in spec["job_seeds"]:
            job_spec = dict(spec["job"], seed=seed)
            first = _submit_and_fetch(client, recorder, job_spec)
            duplicate = _submit_and_fetch(client, recorder, job_spec)
            jobs.append({"first": first, "duplicate": duplicate})
        report["end"] = time.monotonic()
    finally:
        server.shutdown()
        thread.join()
        server.manager.stop(graceful=True)
        server.server_close()
    report["peak_rss_mb"] = _peak_rss_mb()
    counters = Counter()
    for job in jobs:
        if job["first"]["state"] == "succeeded":
            counters.update(_job_counters(workspace, job["first"]["id"]))
    report["slots"] = int(counters.get("repro_slots_total", 0))
    report["jobs"] = jobs
    report["attempted"] = 2 * len(jobs) + int(
        counters.get("repro_executor_cells_total", 0))
    report["failed"] = sum(
        (job["first"]["state"] != "succeeded")
        + (job["duplicate"]["sha"] != job["first"]["sha"])
        + (not job["duplicate"]["deduplicated"]) for job in jobs)
    report["result_sha"] = hashlib.sha256("\n".join(
        job["first"]["sha"] for job in jobs).encode()).hexdigest()
    if not spec["trace"]:
        return
    # The same specs in this process, for the service overhead; recorded
    # nowhere (this is after the measured window).
    recorder.enabled = False
    import repro.cli as cli

    for job in jobs:
        first = job["first"]
        output = Path(spec["dir"]) / f"inprocess-{first['seed']}.json"
        argv = [spec["job"]["command"], "--runs", str(spec["job"]["runs"]),
                "--gops", str(spec["job"]["gops"]), "--seed", str(first["seed"]),
                "--output", str(output)]
        start = time.monotonic()
        with redirect_stdout(io.StringIO()):
            cli.main(argv)
        first["inprocess"] = time.monotonic() - start
        if hashlib.sha256(output.read_bytes()).hexdigest() != first["sha"]:
            report["failed"] += 1
    report["layers"] = {"obs": dict(_obs_totals(counters)),
                        "exec": {"cells": counters.get("repro_executor_cells_total", 0),
                                 "busy": counters.get(
                                     "repro_executor_busy_seconds_total", 0.0)}}


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    unit_dir = Path(spec["dir"])
    recorder = Recorder(spec["trace"], sidecar_dir=unit_dir)
    report = {}
    if spec["kind"] == "service":
        run_service(spec, recorder, report)
    else:
        run_cli(spec, recorder, report)
    if spec["trace"]:
        report.setdefault("layers", {})
        report["layers"]["self"] = self_times(recorder.spans)
        write_jsonl(unit_dir / "spans.jsonl",
                    (span_dict(span) for span in recorder.spans))
    (unit_dir / "report.json").write_text(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1])
