"""Command-line interface: regenerate the paper's figures from a shell.

Usage (after ``pip install -e .``)::

    python -m repro fig3 --runs 10
    python -m repro fig4a
    python -m repro fig4b --runs 10 --jobs 4 --progress
    python -m repro fig6a --runs 5 --gops 2
    python -m repro simulate --scenario interfering --scheme heuristic2
    python -m repro all --runs 5
    python -m repro serve --workspace ws            # HTTP job service
    python -m repro submit fig4b --runs 2 --wait    # queue over HTTP
    python -m repro compare a.json b.json           # diff two results

Each figure command prints the same rows/series the paper's figure
reports (see EXPERIMENTS.md for the committed reference output).

Exit codes form a contract CI and job-service callers can assert:

* ``0`` -- success (failed replications are *reported* but tolerated
  unless ``--fail-on-error`` is given).
* ``2`` -- usage error: argparse's own, or a configuration the run
  cannot honour (a :class:`~repro.utils.errors.ConfigurationError`,
  e.g. ``--runs`` above 1999 without the ``dev`` extra installed).
* ``3`` -- ``--fail-on-error`` was given and at least one replication
  failed after its retry (including cells killed by ``--cell-timeout``).
* ``4`` -- graceful shutdown: a SIGINT/SIGTERM arrived, in-flight cells
  drained to the checkpoint, the sweep is resumable.
* ``5`` -- the ``--deadline`` wall-clock budget expired.
* ``6`` -- hard abort on a second SIGINT/SIGTERM.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro import obs
from repro.exec.supervisor import (
    EXIT_DEADLINE,
    EXIT_FAILED_RUNS,
    EXIT_INTERRUPTED,
    ShutdownCoordinator,
)
from repro.experiments.fig3 import max_improvement_db, run_fig3
from repro.experiments.fig4 import run_fig4a, run_fig4b, run_fig4c
from repro.experiments.fig6 import run_fig6a, run_fig6b, run_fig6c
from repro.experiments.report import format_convergence, format_fig3, format_sweep
from repro.experiments.scenarios import interfering_fbs_scenario, single_fbs_scenario
from repro.registry import scenario_registry, scheme_registry
from repro.sim.runner import MonteCarloRunner
from repro.utils.errors import ConfigurationError, SweepDeadlineExceeded, SweepInterrupted

#: Figure commands in run order for ``python -m repro all``.
FIGURES = ("fig3", "fig4a", "fig4b", "fig4c", "fig6a", "fig6b", "fig6c")

#: The subset of figure commands that run parameter sweeps (and hence
#: take checkpoints and register them in a workspace).
SWEEP_FIGURES = ("fig4b", "fig4c", "fig6a", "fig6b", "fig6c")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Hu & Mao (ICDCS 2011): MGS video over "
                    "femtocell CR networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    # A command gets --output/--checkpoint/--chart only if it honours
    # them, and the Monte-Carlo flags (--runs/--gops/--jobs/--progress/
    # --profile, the budgets, --fail-on-error) only if it runs
    # replications, so passing one it would ignore is a usage error
    # (exit 2).
    def add_common(p, *, output=True, checkpoint=True, chart=True,
                   replications=True):
        if replications:
            p.add_argument("--runs", type=int, default=10,
                           help="Monte-Carlo replications per point "
                                "(default 10)")
            p.add_argument("--gops", type=int, default=3,
                           help="GOP windows per run (default 3)")
        p.add_argument("--seed", type=int, default=7,
                       help="root RNG seed (default 7)")
        if chart:
            p.add_argument("--chart", action="store_true",
                           help="also render sweep results as an ASCII chart")
        if output:
            p.add_argument("--output", metavar="FILE", default=None,
                           help="save the result data as JSON (see "
                                "repro.experiments.results_io)")
        if checkpoint:
            p.add_argument("--checkpoint", metavar="FILE", default=None,
                           help="checkpoint completed (scheme, point, run) "
                                "cells to FILE and resume from it on "
                                "restart (sweep figures only)")
        if replications:
            p.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="worker processes for Monte-Carlo cells "
                                "(default 1 = serial; results are "
                                "bit-identical at any N)")
            p.add_argument("--progress", action="store_true",
                           help="live per-cell progress on stderr plus an "
                                "end-of-run timing report")
            p.add_argument("--profile", action="store_true",
                           help="print per-phase engine timings (sensing/"
                                "access/allocation/transmission) with the "
                                "timing report; with --trace, also collect "
                                "per-phase and solver spans")
        p.add_argument("--trace", metavar="FILE", default=None,
                       help="append a JSONL span trace of the run to FILE "
                            "(see repro.obs.trace)")
        p.add_argument("--metrics", metavar="FILE", default=None,
                       help="collect solver/access/executor metrics and "
                            "write a Prometheus-style text dump to FILE")
        p.add_argument("--log-level", default=None,
                       choices=("debug", "info", "warning", "error"),
                       help="enable repro.* logging on stderr at this level")
        if replications:
            p.add_argument("--cell-timeout", type=float, default=None,
                           metavar="SEC",
                           help="per-cell wall-clock deadline: a cell past "
                                "it has its worker killed and is recorded "
                                "as a CellTimedOut failure (runs cells in "
                                "worker processes, even at --jobs 1)")
            p.add_argument("--deadline", type=float, default=None,
                           metavar="SEC",
                           help="whole-run wall-clock deadline: on expiry "
                                "the run exits with code 5; completed cells "
                                "stay in the checkpoint")
            p.add_argument("--fail-on-error", action="store_true",
                           help="exit with code 3 when any replication "
                                "failed after its retry (including cells "
                                "killed by --cell-timeout) instead of just "
                                "reporting it")
        p.add_argument("--workspace", metavar="DIR", default=None,
                       help="managed artifact workspace: default "
                            "--output into DIR/results/ and --checkpoint "
                            "into DIR/checkpoints/, and register the run "
                            "in DIR/index.json (see `repro workspace`)")
        p.add_argument("--run-name", metavar="NAME", default=None,
                       help="register the run in the workspace under NAME "
                            "instead of the command name (the job service "
                            "uses this so concurrent jobs of the same "
                            "figure never collide in the index)")

    for name, title in (
        ("fig3", "Fig. 3: per-user PSNR, single FBS"),
        ("fig4b", "Fig. 4(b): PSNR vs number of channels"),
        ("fig4c", "Fig. 4(c): PSNR vs channel utilisation"),
        ("fig6a", "Fig. 6(a): PSNR vs utilisation, interfering FBSs"),
        ("fig6b", "Fig. 6(b): PSNR vs sensing errors"),
        ("fig6c", "Fig. 6(c): PSNR vs common-channel bandwidth"),
        ("all", "run every figure in sequence"),
    ):
        sub_parser = sub.add_parser(name, help=title)
        add_common(sub_parser, checkpoint=name != "fig3",
                   chart=name != "fig3")

    # fig4a traces one dual solve: it runs no replications.
    fig4a = sub.add_parser("fig4a", help="Fig. 4(a): dual-variable convergence")
    add_common(fig4a, checkpoint=False, chart=False, replications=False)
    fig4a.add_argument("--step-size", type=float, default=0.004)

    simulate = sub.add_parser("simulate", help="run one scenario and print metrics")
    add_common(simulate, output=False, checkpoint=False, chart=False)
    simulate.add_argument("--scenario", choices=scenario_registry().names(),
                          default="single",
                          help="registered scenario generator "
                               "(see `repro scenarios`)")
    simulate.add_argument("--scheme", default="proposed-fast",
                          choices=scheme_registry().names(),
                          help="registered allocation scheme "
                               "(see `repro schemes`)")
    simulate.add_argument("--scenario-arg", action="append", default=[],
                          metavar="KEY=VALUE",
                          help="extra generator parameter, repeatable "
                               "(e.g. --scenario-arg rows=4); values "
                               "coerce to int/float/bool when they parse "
                               "as one")

    sub.add_parser("schemes",
                   help="list registered allocation schemes and their "
                        "capability flags")
    sub.add_parser("scenarios",
                   help="list registered scenario generators")

    workspace = sub.add_parser(
        "workspace", help="inspect or garbage-collect a managed workspace")
    workspace.add_argument("action", choices=("list", "inspect", "gc"),
                           help="list runs, inspect one run's artifacts, "
                                "or prune runs whose files are all gone")
    workspace.add_argument("name", nargs="?", default=None,
                           help="run name to inspect (inspect only)")
    workspace.add_argument("--workspace", metavar="DIR", default=None,
                           help="workspace directory (default: the "
                                "REPRO_WORKSPACE environment variable)")
    workspace.add_argument("--dry-run", action="store_true",
                           help="gc only: report what would be removed "
                                "without deleting anything")

    serve = sub.add_parser(
        "serve", help="run the HTTP job service over a workspace "
                      "(see repro.serve)")
    serve.add_argument("--workspace", metavar="DIR", default=None,
                       help="workspace holding job records and artifacts "
                            "(default: the REPRO_WORKSPACE environment "
                            "variable)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (default 8765; 0 picks a free port)")
    serve.add_argument("--job-workers", type=int, default=2, metavar="N",
                       help="concurrent jobs (default 2; each job also "
                            "parallelises internally via its spec's "
                            "'jobs' field)")
    serve.add_argument("--log-level", default="info",
                       choices=("debug", "info", "warning", "error"),
                       help="stderr log level (default info)")

    submit = sub.add_parser(
        "submit", help="submit a job to a running `repro serve` instance")
    submit.add_argument("job_command", metavar="COMMAND",
                        help="what to run: fig4b, fig4c, fig6a, fig6b, "
                             "fig6c, fig3, or simulate")
    submit.add_argument("--url", default="http://127.0.0.1:8765",
                        help="service base URL "
                             "(default http://127.0.0.1:8765)")
    submit.add_argument("--runs", type=int, default=10,
                        help="Monte-Carlo replications per point (default 10)")
    submit.add_argument("--gops", type=int, default=3,
                        help="GOP windows per run (default 3)")
    submit.add_argument("--seed", type=int, default=7,
                        help="root RNG seed (default 7)")
    submit.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes inside the job (default 1; "
                             "results are bit-identical at any N)")
    submit.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SEC", help="per-cell deadline for the job")
    submit.add_argument("--deadline", type=float, default=None, metavar="SEC",
                        help="whole-job wall-clock deadline")
    submit.add_argument("--scenario", default=None,
                        help="scenario generator (simulate only)")
    submit.add_argument("--scheme", default=None,
                        help="allocation scheme (simulate only)")
    submit.add_argument("--scenario-arg", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="extra generator parameter, repeatable "
                             "(simulate only)")
    submit.add_argument("--job-trace", action="store_true",
                        help="have the job record a span trace (fetch it "
                             "from /api/jobs/<id>/trace)")
    submit.add_argument("--force", action="store_true",
                        help="queue even when an equivalent job exists "
                             "(bypass dedup-by-spec-hash)")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes and exit with "
                             "its exit code")
    submit.add_argument("--timeout", type=float, default=3600.0,
                        metavar="SEC",
                        help="--wait: give up after SEC seconds "
                             "(default 3600)")
    submit.add_argument("--output", metavar="FILE", default=None,
                        help="--wait: also fetch the result and write its "
                             "exact bytes to FILE")

    compare = sub.add_parser(
        "compare", help="diff two saved result files: bit-identity "
                        "verdict, provenance check, per-scheme PSNR deltas")
    compare.add_argument("result_a", metavar="A", help="baseline result file")
    compare.add_argument("result_b", metavar="B", help="candidate result file")
    compare.add_argument("--json", action="store_true", dest="as_json",
                         help="print the report as JSON instead of text")
    compare.add_argument("--fail-on-diff", action="store_true",
                         help="exit 1 unless the files are byte-identical")
    return parser


def _heading(text: str) -> str:
    line = "=" * 72
    return f"{line}\n{text}\n{line}"


def _maybe_chart(result, args, *, upper_bound: bool = False) -> List[str]:
    if not getattr(args, "chart", False):
        return []
    from repro.experiments.plotting import chart_sweep
    return ["", chart_sweep(result, include_upper_bound=upper_bound)]


def _maybe_save(result, args, command: Optional[str] = None) -> List[str]:
    output = getattr(args, "output", None)
    if not output:
        return []
    command = command or getattr(args, "command", "")
    from repro.experiments.results_io import save_results
    path = save_results(
        result, output,
        provenance=obs.result_provenance(
            seed=getattr(args, "seed", None),
            config=_base_config(args, command=command)))
    lines = [f"[saved to {path}]"]
    # The full manifest carries wall clock and platform details, so it
    # goes in a sidecar: the results file itself stays byte-identical
    # across identical runs.
    manifest_path = f"{path}.manifest.json"
    obs.write_manifest(manifest_path, _make_manifest(args, command=command))
    lines.append(f"[manifest at {manifest_path}]")
    workspace = getattr(args, "_workspace", None)
    if workspace is not None:
        run_name = getattr(args, "run_name", None) or command
        workspace.register_run(run_name, results=[str(path)],
                               manifest=manifest_path)
        lines.append(f"[registered run {run_name!r} in {workspace.root}]")
    return lines


def _apply_workspace(args) -> None:
    """Open ``--workspace`` and default-fill the artifact paths.

    For single-figure commands, an unset ``--output`` lands in the
    workspace's ``results/`` directory; for sweep figures, an unset
    ``--checkpoint`` lands in ``checkpoints/`` (so every workspace run
    is resumable by default).  ``all`` runs several figures against one
    ``args`` namespace, so it only gets run registration, not path
    defaults.
    """
    root = getattr(args, "workspace", None)
    if root is None:
        args._workspace = None
        return
    from repro.store.workspace import FileWorkspace
    workspace = FileWorkspace(root)
    args._workspace = workspace
    command = args.command
    stem = getattr(args, "run_name", None) or command
    if command in FIGURES and getattr(args, "output", None) is None:
        args.output = str(workspace.results_path(f"{stem}.json"))
    if command in SWEEP_FIGURES and getattr(args, "checkpoint", None) is None:
        args.checkpoint = str(workspace.checkpoint_path(f"{stem}.jsonl"))


def _coerce_scenario_value(text: str):
    """``--scenario-arg`` value coercion: int, float, bool, else str."""
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _scenario_params(args) -> dict:
    """Parsed ``--scenario-arg KEY=VALUE`` pairs as generator kwargs."""
    params = {}
    for item in getattr(args, "scenario_arg", []) or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"repro: --scenario-arg expects KEY=VALUE, got {item!r}")
        params[key.replace("-", "_")] = _coerce_scenario_value(value)
    return params


def _base_config(args, command: Optional[str] = None):
    """The command's base scenario config (for the manifest fingerprint)."""
    if command is None:
        command = getattr(args, "command", "")
    kwargs = {"seed": getattr(args, "seed", None)}
    if getattr(args, "gops", None) is not None:
        kwargs["n_gops"] = args.gops
    if getattr(args, "scheme", None) is not None:
        kwargs["scheme"] = args.scheme
    scenario = getattr(args, "scenario", None)
    if scenario is not None:
        return scenario_registry().build(scenario, **kwargs,
                                         **_scenario_params(args))
    builder = (interfering_fbs_scenario if command.startswith("fig6")
               else single_fbs_scenario)
    return builder(**kwargs)


def _make_manifest(args, command: Optional[str] = None) -> dict:
    command = command or getattr(args, "command", "")
    return obs.run_manifest(
        command=command,
        config=_base_config(args, command=command),
        seed=getattr(args, "seed", None),
        extra={"jobs": getattr(args, "jobs", 1),
               "runs": getattr(args, "runs", None)})


def _health_lines(result) -> List[str]:
    """Fault-tolerance footer of a sweep: failed runs + degraded slots."""
    n_failed = getattr(result, "n_failed", 0)
    n_degraded = sum(summary.n_degraded_slots
                     for summaries in result.summaries.values()
                     for summary in summaries)
    lines = []
    if n_failed:
        lines.append(f"[warning: {n_failed} replication(s) failed after "
                     f"retry and were excluded from the summaries]")
    if n_degraded:
        lines.append(f"[note: {n_degraded} slot(s) completed via a "
                     f"degraded path (solver fallback / sensing outage)]")
    return lines


def _make_tracker(args, name: str):
    """A ProgressTracker when --progress or --profile was given, else None.

    ``--progress`` narrates per-cell lines to stderr; ``--profile`` alone
    collects telemetry silently and only prints the final report.
    """
    progress = getattr(args, "progress", False)
    if not progress and not getattr(args, "profile", False):
        return None
    from repro.exec.progress import ProgressTracker
    return ProgressTracker(stream=sys.stderr if progress else None, label=name)


def _timing_lines(tracker) -> List[str]:
    """End-of-run timing report lines (empty without --progress/--profile)."""
    if tracker is None:
        return []
    return ["", _heading("Timing report"), tracker.report().format()]


def _run_figure(name: str, args) -> Tuple[str, int]:
    """One figure command's report text plus its failed-replication count."""
    jobs = getattr(args, "jobs", 1)
    budgets = {"cell_timeout": getattr(args, "cell_timeout", None),
               "deadline": getattr(args, "deadline", None)}
    workspace = getattr(args, "_workspace", None)
    run_name = getattr(args, "run_name", None) or name
    # Label progress lines with the run name (the job id under the
    # service), so a shared workspace's logs identify their job.
    tracker = _make_tracker(args, run_name)
    if name == "fig3":
        rows = run_fig3(n_runs=args.runs, n_gops=args.gops, seed=args.seed,
                        jobs=jobs, progress=tracker, **budgets)
        return "\n".join(_maybe_save(rows, args, command=name) + [
            _heading("Fig. 3: per-user Y-PSNR (dB), single FBS"),
            format_fig3(rows),
            f"max per-user gain of proposed over a heuristic: "
            f"{max_improvement_db(rows):.2f} dB",
        ] + _timing_lines(tracker)), sum(row.n_failed for row in rows)
    checkpoint = getattr(args, "checkpoint", None)
    if name == "fig4b":
        result = run_fig4b(n_runs=args.runs, n_gops=args.gops, seed=args.seed,
                           checkpoint_path=checkpoint, jobs=jobs,
                           progress=tracker, workspace=workspace,
                           run_name=run_name, **budgets)
        return "\n".join(_maybe_save(result, args, command=name) + [
            _heading("Fig. 4(b): Y-PSNR (dB) vs number of channels M"),
            format_sweep(result, value_format="M={}"),
        ] + _health_lines(result) + _maybe_chart(result, args)
          + _timing_lines(tracker)), result.n_failed
    if name == "fig4c":
        result = run_fig4c(n_runs=args.runs, n_gops=args.gops, seed=args.seed,
                           checkpoint_path=checkpoint, jobs=jobs,
                           progress=tracker, workspace=workspace,
                           run_name=run_name, **budgets)
        return "\n".join(_maybe_save(result, args, command=name) + [
            _heading("Fig. 4(c): Y-PSNR (dB) vs channel utilisation eta"),
            format_sweep(result, value_format="eta={}"),
        ] + _health_lines(result) + _maybe_chart(result, args)
          + _timing_lines(tracker)), result.n_failed
    if name == "fig6a":
        result = run_fig6a(n_runs=args.runs, n_gops=args.gops, seed=args.seed,
                           checkpoint_path=checkpoint, jobs=jobs,
                           progress=tracker, workspace=workspace,
                           run_name=run_name, **budgets)
        return "\n".join(_maybe_save(result, args, command=name) + [
            _heading("Fig. 6(a): Y-PSNR (dB) vs utilisation, interfering FBSs"),
            format_sweep(result, upper_bound=True, value_format="eta={}"),
        ] + _health_lines(result) + _maybe_chart(result, args, upper_bound=True)
          + _timing_lines(tracker)), result.n_failed
    if name == "fig6b":
        result = run_fig6b(n_runs=args.runs, n_gops=args.gops, seed=args.seed,
                           checkpoint_path=checkpoint, jobs=jobs,
                           progress=tracker, workspace=workspace,
                           run_name=run_name, **budgets)
        return "\n".join(_maybe_save(result, args, command=name) + [
            _heading("Fig. 6(b): Y-PSNR (dB) vs sensing errors (eps, delta)"),
            format_sweep(result, upper_bound=True, value_format="{0[0]}/{0[1]}"),
        ] + _health_lines(result) + _maybe_chart(result, args, upper_bound=True)
          + _timing_lines(tracker)), result.n_failed
    if name == "fig6c":
        result = run_fig6c(n_runs=args.runs, n_gops=args.gops, seed=args.seed,
                           checkpoint_path=checkpoint, jobs=jobs,
                           progress=tracker, workspace=workspace,
                           run_name=run_name, **budgets)
        return "\n".join(_maybe_save(result, args, command=name) + [
            _heading("Fig. 6(c): Y-PSNR (dB) vs common-channel bandwidth B0"),
            format_sweep(result, upper_bound=True, value_format="B0={}"),
        ] + _health_lines(result) + _maybe_chart(result, args, upper_bound=True)
          + _timing_lines(tracker)), result.n_failed
    raise ValueError(f"unknown figure {name!r}")


def _run_simulate(args) -> Tuple[str, int]:
    config = scenario_registry().build(
        args.scenario, n_gops=args.gops, seed=args.seed, scheme=args.scheme,
        **_scenario_params(args))
    tracker = _make_tracker(args, getattr(args, "run_name", None)
                            or "simulate")
    summary = MonteCarloRunner(
        config, n_runs=args.runs, jobs=getattr(args, "jobs", 1),
        cell_timeout=getattr(args, "cell_timeout", None),
        deadline=getattr(args, "deadline", None),
        progress=tracker).summary()
    # stdout is the campaign's result (the job service keeps it as the
    # job's result file), so the timing report goes to stderr.
    for line in _timing_lines(tracker):
        print(line, file=sys.stderr)
    lines = [_heading(f"{args.scenario} scenario, scheme={args.scheme}")]
    for user_id, ci in sorted(summary.per_user_psnr.items()):
        lines.append(f"user {user_id}: {ci}")
    lines.append(f"mean PSNR      : {summary.mean_psnr}")
    lines.append(f"Jain fairness  : {summary.fairness}")
    lines.append(f"collision rate : {summary.mean_collision_rate} "
                 f"(cap gamma = {config.gamma})")
    lines.append(f"failed runs    : {summary.n_failed} of {args.runs} "
                 f"(excluded from the statistics)")
    lines.append(f"degraded slots : {summary.n_degraded_slots} "
                 f"(solver fallbacks / sensing outages)")
    interfering = config.topology.interference_graph.number_of_edges() > 0
    if scheme_registry().get(args.scheme).greedy_channels and interfering:
        lines.append(f"eq. (23) bound : {summary.upper_bound_psnr}")
    if getattr(args, "profile", False) and summary.phase_seconds:
        lines.append("phase seconds  : "
                     + obs.format_phase_seconds(summary.phase_seconds))
    return "\n".join(lines), summary.n_failed


def _run_workspace(args) -> int:
    """The ``repro workspace list|inspect|gc`` subcommand."""
    import json
    import os

    from repro.store.workspace import ENV_WORKSPACE, FileWorkspace

    root = getattr(args, "workspace", None) or os.environ.get(ENV_WORKSPACE)
    if not root:
        print("workspace: no directory given "
              "(use --workspace DIR or set REPRO_WORKSPACE)", file=sys.stderr)
        return 2
    workspace = FileWorkspace(root)
    if args.action == "list":
        print(f"workspace at {workspace.root}")
        entries = workspace.entries()
        print(f"registered runs: {len(entries)}")
        for name in sorted(entries):
            entry = entries[name]
            parts = [f"{len(entry.get('results', []))} result(s)"]
            checkpoint = entry.get("checkpoint")
            if checkpoint:
                parts.append(f"checkpoint={checkpoint}")
            print(f"  {name}: " + ", ".join(parts))
        return 0
    if args.action == "inspect":
        if not args.name:
            print("workspace inspect: run name required", file=sys.stderr)
            return 2
        try:
            report = workspace.inspect(args.name)
        except ConfigurationError as exc:
            print(f"workspace inspect: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    report = workspace.gc(dry_run=getattr(args, "dry_run", False))
    pruned = report["pruned_runs"]
    verb = "would prune" if report["dry_run"] else "pruned"
    print(f"{verb} {len(pruned)} stale run "
          f"entr{'y' if len(pruned) == 1 else 'ies'}")
    for name in pruned:
        print(f"  - {name}")
    return 0


def _run_serve(args) -> int:
    """The ``repro serve`` subcommand: run the HTTP job service."""
    import os

    from repro.serve.api import make_server, serve_forever
    from repro.store.workspace import ENV_WORKSPACE

    root = getattr(args, "workspace", None) or os.environ.get(ENV_WORKSPACE)
    if not root:
        print("serve: no workspace given "
              "(use --workspace DIR or set REPRO_WORKSPACE)", file=sys.stderr)
        return 2
    server = make_server(root, host=args.host, port=args.port,
                         job_workers=args.job_workers)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port} (workspace {root}); "
          f"Ctrl-C to drain and stop")
    serve_forever(server)
    return 0


def _run_submit(args) -> int:
    """The ``repro submit`` subcommand: queue a job over HTTP."""
    from repro.serve.client import ServiceClient, ServiceError

    spec = {"command": args.job_command, "runs": args.runs,
            "gops": args.gops, "seed": args.seed, "jobs": args.jobs,
            "cell_timeout": args.cell_timeout, "deadline": args.deadline,
            "trace": bool(args.job_trace)}
    if args.scenario is not None:
        spec["scenario"] = args.scenario
    if args.scheme is not None:
        spec["scheme"] = args.scheme
    if args.scenario_arg:
        spec["scenario_args"] = {}
        for item in args.scenario_arg:
            key, sep, value = item.partition("=")
            if not sep or not key:
                print(f"submit: --scenario-arg expects KEY=VALUE, "
                      f"got {item!r}", file=sys.stderr)
                return 2
            spec["scenario_args"][key.replace("-", "_")] = \
                _coerce_scenario_value(value)
    client = ServiceClient(args.url)
    try:
        view = client.submit(spec, force=args.force)
        verb = "deduplicated to" if view.deduplicated else "queued as"
        print(f"[{verb} {view.id} ({view.state})]")
        if not args.wait:
            return 0
        view = client.wait(view.id, timeout=args.timeout)
        print(f"[{view.id} {view.state}"
              + (f": {view.error}" if view.error else "") + "]")
        if args.output and view.state == "succeeded":
            from pathlib import Path
            Path(args.output).write_bytes(client.result_bytes(view.id))
            print(f"[result written to {args.output}]")
    except ServiceError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 2
    if view.state == "succeeded":
        return 0
    # Surface the job's own exit code (the CLI contract) when recorded,
    # so `repro submit --wait` composes with the same CI assertions as a
    # direct run.
    return view.exit_code if isinstance(view.exit_code, int) \
        and view.exit_code != 0 else 1


def _run_compare(args) -> int:
    """The ``repro compare`` subcommand: diff two saved result files."""
    import json

    from repro.experiments.compare import compare_results

    try:
        report = compare_results(args.result_a, args.result_b)
    except ConfigurationError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(_heading("Result comparison"))
        print(report.format())
    if args.fail_on_diff and not report.bit_identical:
        return 1
    return 0


def _run_schemes() -> int:
    """The ``repro schemes`` listing."""
    registry = scheme_registry()
    print(_heading(f"registered allocation schemes ({len(registry)})"))
    width = max(len(name) for name in registry.names())
    for info in registry:
        flags = ", ".join(info.flags) or "-"
        print(f"{info.name:<{width}}  [{flags}]")
        if info.description:
            print(f"{'':<{width}}  {info.description}")
    return 0


def _run_scenarios() -> int:
    """The ``repro scenarios`` listing."""
    registry = scenario_registry()
    print(_heading(f"registered scenario generators ({len(registry)})"))
    width = max(len(name) for name in registry.names())
    for info in registry:
        print(f"{info.name:<{width}}  {info.description}")
    return 0


def _dispatch(args) -> int:
    """Run the parsed command (observability already configured)."""
    if args.command == "workspace":
        return _run_workspace(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "submit":
        return _run_submit(args)
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "schemes":
        return _run_schemes()
    if args.command == "scenarios":
        return _run_scenarios()
    _apply_workspace(args)
    n_failed = 0
    if args.command == "fig4a":
        result = run_fig4a(seed=args.seed, step_size=args.step_size)
        for line in _maybe_save(result, args):
            print(line)
        print(_heading(
            f"Fig. 4(a): dual-variable convergence "
            f"(converged={result.converged} after {result.iterations} iters)"))
        print(format_convergence(result.trace, result.stations))
        return 0
    if args.command == "simulate":
        text, n_failed = _run_simulate(args)
        print(text)
        return _exit_code(args, n_failed)
    names = FIGURES if args.command == "all" else (args.command,)
    for name in names:
        if name == "fig4a":
            result = run_fig4a(seed=args.seed)
            print(_heading("Fig. 4(a): dual-variable convergence"))
            print(format_convergence(result.trace, result.stations))
        else:
            text, failures = _run_figure(name, args)
            n_failed += failures
            print(text)
        print()
    return _exit_code(args, n_failed)


def _exit_code(args, n_failed: int) -> int:
    """Map the failed-replication count onto the exit-code contract."""
    if getattr(args, "fail_on_error", False) and n_failed > 0:
        print(f"[--fail-on-error: {n_failed} replication(s) failed; "
              f"exiting {EXIT_FAILED_RUNS}]", file=sys.stderr)
        return EXIT_FAILED_RUNS
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code (see module docstring
    for the exit-code contract)."""
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    observing = bool(trace_path or metrics_path
                     or getattr(args, "log_level", None))
    if observing:
        obs.configure(trace_path=trace_path, metrics_path=metrics_path,
                      log_level=getattr(args, "log_level", None),
                      profile=getattr(args, "profile", False))
    coordinator = ShutdownCoordinator().install()
    if observing:
        # A hard abort still flushes the trace trailer and metrics dump.
        coordinator.add_flusher(obs.shutdown)
    try:
        with obs.maybe_span("run", kind="run", command=args.command):
            code = _dispatch(args)
    except ConfigurationError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        code = 2
    except SweepInterrupted as exc:
        print(f"[interrupted: {exc}]", file=sys.stderr)
        code = EXIT_INTERRUPTED
    except SweepDeadlineExceeded as exc:
        print(f"[deadline exceeded: {exc}]", file=sys.stderr)
        code = EXIT_DEADLINE
    finally:
        coordinator.uninstall()
        if observing:
            obs.shutdown()
            if trace_path is not None:
                obs.write_manifest(f"{trace_path}.manifest.json",
                                   _make_manifest(args))
    return code


if __name__ == "__main__":
    sys.exit(main())
