"""Outside-in benchmark of the repro simulator: CLI runs, pools, service jobs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig6-interfering --seed 7 \\
        --seconds 20 --trace 0

Each workload repeats *units* for ``--seconds``: a unit is one fresh
``python`` process (``perfbench/unit.py``) that imports the program from
``src/`` and runs it once, as a user's CLI run or job-service session
would.  With ``--trace 0`` every unit is untraced and the run reports the
end-to-end metrics (medians over units).  With ``--trace 1`` units
alternate untraced and traced on the same inputs; the traced ones give
the per-layer metrics, and the pair's result bytes must match.  Metric
names, units and directions are declared in ``BENCHMARK.json``.

Inputs come from ``--seed``: unit ``i`` of a run gets program seed
``seed * 1000 + 10 * i`` (service jobs add their job number), so units
of one run differ and the same seed always gives the same inputs.  At
seed 7 the result bytes of every unit must match ``golden.json``.

Output: one ``workload metric value unit`` line per metric, then one
JSON object as the last line of standard output.  Per-unit reports,
spans and the environment stamp go to ``--out``.  The exit code is 0
only when every operation succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

from unit import SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 7

#: A unit that runs longer than this is killed and counted as failed.
UNIT_TIMEOUT_S = 120.0

#: Fig. 6(a) runs one of the paper's five utilisation points per unit, so
#: a unit keeps the sweep's schemes, lockstep width, checkpoint and
#: result file and still fits several times into one run.
FIG6_UTILIZATION = 0.5

#: Service jobs per unit; each is followed by a duplicate submit.
SERVICE_JOBS_PER_UNIT = 3


def input_seed(seed: int, index: int, job: int = 0) -> int:
    return seed * 1000 + 10 * index + job


def _cli(argv, unit_dir, seed, *, output=True, inject=None):
    argv = argv + ["--seed", str(seed)]
    spec = {"kind": "cli", "argv": argv, "inject": inject or {}}
    if output:
        spec["output"] = str(unit_dir / "result.json")
        spec["argv"] = argv + ["--checkpoint", str(unit_dir / "sweep.ckpt"),
                               "--output", spec["output"]]
    return spec


#: Workload name -> unit spec builder ``(seed, index, unit_dir) -> dict``.
WORKLOADS = {
    "fig6-interfering": lambda seed, index, unit_dir: _cli(
        ["fig6a", "--runs", "10", "--gops", "1", "--jobs", "1"], unit_dir,
        input_seed(seed, index),
        inject={"run_fig6a": {"utilizations": [FIG6_UTILIZATION]}}),
    "fig4-cells-jobs2": lambda seed, index, unit_dir: _cli(
        ["fig4b", "--runs", "32", "--gops", "2", "--jobs", "2"], unit_dir,
        input_seed(seed, index)),
    "citygrid-coloring": lambda seed, index, unit_dir: _cli(
        ["simulate", "--scenario", "city-grid", "--scheme", "graph-coloring",
         "--scenario-arg", "rows=20", "--scenario-arg", "cols=20",
         "--runs", "4", "--gops", "1", "--jobs", "1"], unit_dir,
        input_seed(seed, index), output=False),
    "service-jobs": lambda seed, index, unit_dir: {
        "kind": "service",
        "job": {"command": "fig4b", "runs": 2, "gops": 1},
        "job_seeds": [input_seed(seed, index, job)
                      for job in range(SERVICE_JOBS_PER_UNIT)]},
}


def child_env(unit_dir: Path) -> dict:
    """The unit's environment: no REPRO_* switches, src importable, and
    temporary files kept inside the unit directory."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    tmp = unit_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_unit(workload: str, seed: int, index: int, traced: bool,
             unit_dir: Path) -> dict:
    """Spawn one unit and return its report plus the parent's timings."""
    unit_dir.mkdir(parents=True)
    spec = dict(WORKLOADS[workload](seed, index, unit_dir),
                trace=traced, dir=str(unit_dir))
    spec_path = unit_dir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))
    env = child_env(unit_dir)
    with open(unit_dir / "stdout.txt", "w") as out, \
            open(unit_dir / "stderr.txt", "w") as err:
        spawn = time.monotonic()
        # Its own session, so a timeout also kills pool workers and jobs.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "unit.py"), str(spec_path)],
            cwd=ROOT, env=env, stdout=out, stderr=err, start_new_session=True)
        try:
            proc.wait(timeout=UNIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    code = proc.returncode
    duration = time.monotonic() - spawn
    unit = {"index": index, "traced": traced, "duration": duration}
    report_path = unit_dir / "report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    if code != 0 or report.get("mark") is None:
        tail = (unit_dir / "stderr.txt").read_text()[-2000:]
        print(f"perfbench: {workload} unit {index} failed (exit {code}):\n"
              f"{tail}", file=sys.stderr)
        return dict(unit, error=f"exit {code}", attempted=1, failed=1)
    unit.update(report)
    unit["setup"] = report["mark"] - spawn
    unit["wall"] = report["end"] - report["mark"]
    unit["total"] = report["end"] - spawn
    return unit


def environment() -> dict:
    versions = {}
    for package in ("numpy", "scipy", "networkx"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    head = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30)
        head = probe.stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            **versions, "git_head": head}


def warm_up(work_dir: Path) -> None:
    """Compile bytecode and fill the page cache before timing."""
    subprocess.run([sys.executable, "-c", "import repro.cli, repro.serve.api"],
                   cwd=ROOT, env=child_env(work_dir), timeout=UNIT_TIMEOUT_S,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def run_units(workload: str, seed: int, seconds: float, trace: bool,
              work_dir: Path) -> list:
    """Units until the next one would overrun ``seconds``.

    Traced runs alternate untraced and traced units on the same inputs,
    so they stop only after a complete pair.
    """
    minimum = 4 if trace else 3
    units = []
    start = time.monotonic()
    while True:
        done = len(units)
        typical = statistics.median(u["duration"] for u in units) if units else 0
        if done >= minimum and done % (2 if trace else 1) == 0 \
                and time.monotonic() - start + typical > seconds:
            return units
        traced = trace and done % 2 == 1
        index = done // 2 if trace else done
        units.append(run_unit(workload, seed, index, traced,
                              work_dir / f"unit-{done:02d}"))
        if "error" in units[-1]:
            return units


def check_results(workload: str, seed: int, units: list) -> int:
    """Golden and determinism mismatches among the units' result bytes."""
    mismatches = 0
    golden = json.loads(GOLDEN.read_text()).get(workload, {}) \
        if seed == GOLDEN_SEED else {}
    by_index = {}
    for unit in units:
        if "error" in unit:
            continue
        expected = golden.get(str(unit["index"]))
        if expected is not None and unit["result_sha"] != expected:
            print(f"perfbench: {workload} unit {unit['index']} result differs "
                  f"from golden.json", file=sys.stderr)
            mismatches += 1
        first = by_index.setdefault(unit["index"], unit["result_sha"])
        if unit["result_sha"] != first:
            print(f"perfbench: {workload} traced and untraced results differ "
                  f"for input {unit['index']}", file=sys.stderr)
            mismatches += 1
    return mismatches


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def end_to_end(units: list) -> dict:
    """The user-visible metrics: medians over the run's units."""
    if units and "jobs" in units[0]:
        latencies = [job["first"]["latency"] for u in units for job in u["jobs"]]
    else:
        latencies = [u["total"] for u in units]
    return {
        "setup_s": _median(u["setup"] for u in units),
        "wall_s": _median(u["wall"] for u in units),
        "latency_p50_s": _median(latencies),
        "slots_per_s": _median(u["slots"] / u["wall"] for u in units),
        "peak_rss_mb": _median(u["peak_rss_mb"] for u in units),
    }


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(traced: list, untraced: list) -> dict:
    """Per-layer metrics: means per traced unit, ratios of summed totals."""
    n = len(traced)
    self_s, counts, obs, execs, phases = (Counter() for _ in range(5))
    unit_self = traced_wall = slots = degraded = overhead = 0.0
    checkpoint_bytes = result_bytes = 0
    for unit in traced:
        layers = unit["layers"]
        self_s.update(layers.get("self", {}))
        self_s.update(layers.get("worker_self", {}))
        counts.update(layers.get("counts", {}))
        obs.update(layers.get("obs", {}))
        execs.update(layers.get("exec", {}))
        phases.update(layers.get("phases", {}))
        unit_self += sum(layers.get("self", {}).values())
        traced_wall += unit["total"]
        slots += layers.get("slots", 0)
        degraded += layers.get("degraded", 0)
        checkpoint_bytes += layers.get("checkpoint_bytes", 0)
        result_bytes += layers.get("result_bytes", 0)
        if "wall" in layers.get("exec", {}):
            # The executor's time beyond its busy time spread over workers.
            overhead += layers["exec"]["wall"] \
                - layers["exec"]["busy"] / layers["exec"]["jobs"]
    metrics = {f"{span}_s": self_s.get(span, 0.0) / n for span in SPANS}
    metrics.update({
        "exec.cells": execs["cells"] / n,
        "exec.busy_s": execs["busy"] / n,
        "exec.effective_parallelism": _ratio(execs["busy"], execs["wall"]),
        "exec.dispatch_overhead_s": overhead / n,
        "exec.pickled_bytes": execs["pickled_bytes"] / n,
        "exec.lockstep_groups_split": execs["groups_split"] / n,
        "sim.cell_overhead_s": (execs["busy"] - sum(phases.values())) / n
        if phases else 0.0,
        "sim.degraded_slot_frac": _ratio(degraded, slots),
        "sim.lockstep.groups": counts["sim.lockstep.groups"] / n,
        "sim.lockstep.rounds": counts["sim.lockstep.rounds"] / n,
        "sim.lockstep.mean_width": _ratio(counts["sim.lockstep.members"],
                                          counts["sim.lockstep.groups"]),
        "sim.lockstep.escapes": counts["sim.lockstep.escapes"] / n,
        "sim.checkpoint.records": counts["sim.checkpoint.records"] / n,
        "sim.checkpoint.bytes": checkpoint_bytes / n,
        "experiments.results_io.bytes": result_bytes / n,
        "core.batch.solve_requests.calls":
            counts["core.batch.solve_requests.calls"] / n,
        "core.batch.solve_requests.mean_width": _ratio(
            counts["core.batch.solve_requests.requests"],
            counts["core.batch.solve_requests.calls"]),
        "core.greedy.q_evaluations": obs["greedy_evaluations"] / n,
        "core.greedy.q_cache_hit_ratio": _ratio(
            obs["greedy_hits"], obs["greedy_hits"] + obs["greedy_evaluations"]),
        "core.solver.solves": obs["solver_solves"] / n,
        "core.solver.iterations_mean": _ratio(obs["solver_iterations"],
                                              obs["solver_solves"]),
        "core.solver.unconverged_frac": _ratio(obs["solver_unconverged"],
                                               obs["solver_solves"]),
        "store.hit_ratio": _ratio(obs["store_hits"], obs["store_requests"]),
        "harness.unattributed_frac": 1.0 - _ratio(unit_self, traced_wall),
        "harness.trace_overhead_frac": _ratio(
            _median(u["total"] for u in traced),
            _median(u["total"] for u in untraced)) - 1.0,
    })
    for phase in ("sensing", "access", "allocation", "transmission"):
        metrics[f"sim.phase.{phase}_s"] = phases[phase] / n
    metrics.update(service_layers(traced))
    return metrics


def service_layers(traced: list) -> dict:
    """Job-service breakdown from the traced units' job records."""
    jobs = [job for unit in traced for job in unit.get("jobs", [])]
    firsts = [job["first"] for job in jobs]
    latency = sum(job["latency"] for job in firsts)
    inprocess = sum(job.get("inprocess", 0.0) for job in firsts)
    per_job = len(firsts) or 1
    return {
        "serve.queue_wait_s": sum(j["started"] - j["created"]
                                  for j in firsts) / per_job,
        "serve.child_s": sum(j["finished"] - j["started"]
                             for j in firsts) / per_job,
        "serve.poll_fetch_s": sum(j["fetched_at"] - j["finished"]
                                  for j in firsts) / per_job,
        "serve.inprocess_s": inprocess / per_job,
        "serve.job_latency_p50_s": _median(j["latency"] for j in firsts),
        "serve.dedup_latency_p50_s": _median(
            job["duplicate"]["latency"] for job in jobs),
        "serve.overhead_frac": 1.0 - _ratio(inprocess, latency)
        if firsts else 0.0,
    }


def run_workload(workload: str, args, declared: dict, env: dict) -> dict:
    work_dir = args.out / f"{workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    load_before = os.getloadavg()[0]
    if load_before > (env["nproc"] or 1):
        print(f"perfbench: warning: 1-min load average {load_before:.2f} "
              f"exceeds nproc {env['nproc']}; timings will be noisy",
              file=sys.stderr)
    warm_up(work_dir)
    units = run_units(workload, args.seed, args.seconds, bool(args.trace),
                      work_dir)
    ok = [u for u in units if "error" not in u]
    mismatches = check_results(workload, args.seed, units)
    attempted = sum(u["attempted"] for u in units) or 1
    failed = sum(u["failed"] for u in units) + mismatches
    metrics = {}
    if ok and len(ok) == len(units):
        traced = [u for u in ok if u["traced"]]
        untraced = [u for u in ok if not u["traced"]]
        metrics = per_layer(traced, untraced) if args.trace \
            else end_to_end(untraced)
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0 and set(wanted) <= set(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": wanted[name]}
                    for name in wanted if name in metrics},
    }
    stamp = dict(env, workload=workload, seed=args.seed, trace=args.trace,
                 units=len(units), loadavg_1m_before=load_before,
                 loadavg_1m_after=os.getloadavg()[0])
    (work_dir / "result.json").write_text(json.dumps(
        {"environment": stamp, "result": result, "units": units}, indent=1))
    if args.write_golden and args.seed == GOLDEN_SEED and result["correct"]:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden.setdefault(workload, {}).update(
            {str(u["index"]): u["result_sha"] for u in ok})
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print("# environment " + json.dumps(stamp, sort_keys=True))
    for name, entry in result["metrics"].items():
        print(f"{workload} {name} {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"],
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced units")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out",
                        help="directory for unit reports, spans and stamps")
    parser.add_argument("--write-golden", action="store_true",
                        help=f"record the result hashes of a seed-"
                             f"{GOLDEN_SEED} run in golden.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = {kind: {m["name"]: m["unit"] for m in benchmark[kind]}
                for kind in ("end_to_end", "per_layer")}
    env = environment()
    results = [run_workload(workload, args, declared, env)
               for workload in args.workload or names]
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
