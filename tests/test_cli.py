"""Tests for the command-line interface."""

import signal

import pytest

from repro import cli
from repro.cli import FIGURES, build_parser, main
from repro.exec.supervisor import (
    EXIT_DEADLINE,
    EXIT_FAILED_RUNS,
    EXIT_INTERRUPTED,
)
from repro.utils.errors import SweepDeadlineExceeded, SweepInterrupted


class TestParser:
    def test_all_figure_commands_exist(self):
        parser = build_parser()
        for name in FIGURES:
            args = parser.parse_args([name] if name == "fig4a"
                                     else [name, "--runs", "2"])
            assert args.command == name

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_simulate_options(self):
        args = build_parser().parse_args(
            ["simulate", "--scenario", "interfering", "--scheme", "heuristic2"])
        assert args.scenario == "interfering"
        assert args.scheme == "heuristic2"

    def test_invalid_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scheme", "magic"])


class TestUnsupportedFlags:
    """A shared flag a command has no use for is a usage error, never
    silently ignored."""

    def rejected(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_simulate_rejects_output_and_checkpoint(self, capsys, tmp_path):
        output = tmp_path / "sim.json"
        self.rejected(capsys, ["simulate", "--runs", "1", "--gops", "1",
                               "--output", str(output)], "--output")
        assert not output.exists()
        self.rejected(capsys, ["simulate", "--runs", "1", "--gops", "1",
                               "--checkpoint", str(tmp_path / "c.jsonl")],
                      "--checkpoint")

    def test_fig3_rejects_checkpoint(self, capsys, tmp_path):
        self.rejected(capsys, ["fig3", "--runs", "1", "--gops", "1",
                               "--checkpoint", str(tmp_path / "c.jsonl")],
                      "--checkpoint")

    def test_fig4a_rejects_checkpoint(self, capsys, tmp_path):
        self.rejected(capsys, ["fig4a", "--checkpoint",
                               str(tmp_path / "c.jsonl")], "--checkpoint")

    @pytest.mark.parametrize("flag", [
        ["--runs", "2"], ["--gops", "1"], ["--jobs", "2"], ["--progress"],
        ["--cell-timeout", "5"], ["--deadline", "5"], ["--fail-on-error"],
        ["--profile"],
    ])
    def test_fig4a_rejects_the_replication_flags(self, capsys, flag):
        # fig4a traces one dual solve and runs no replications.
        self.rejected(capsys, ["fig4a"] + flag, flag[0])

    def test_all_keeps_the_replication_flags(self):
        args = build_parser().parse_args(
            ["all", "--runs", "2", "--gops", "1", "--jobs", "2",
             "--progress", "--cell-timeout", "5", "--deadline", "5",
             "--fail-on-error"])
        assert (args.runs, args.gops, args.jobs) == (2, 1, 2)
        assert args.progress and args.fail_on_error
        assert (args.cell_timeout, args.deadline) == (5.0, 5.0)

    @pytest.mark.parametrize("argv", [
        ["fig3", "--runs", "1", "--gops", "1"],
        ["fig4a"],
        ["simulate", "--runs", "1", "--gops", "1"],
    ])
    def test_commands_without_a_chart_reject_chart(self, capsys, argv):
        self.rejected(capsys, argv + ["--chart"], "--chart")


class TestExecution:
    def test_fig3_prints_table(self, capsys):
        assert main(["fig3", "--runs", "1", "--gops", "1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert "proposed-fast" in out
        assert "user 0" in out

    def test_fig4a_prints_trace(self, capsys):
        assert main(["fig4a"]) == 0
        out = capsys.readouterr().out
        assert "lambda_0" in out
        assert "converged=True" in out

    def test_fig4c_prints_sweep(self, capsys):
        assert main(["fig4c", "--runs", "1", "--gops", "1"]) == 0
        out = capsys.readouterr().out
        assert "eta=0.3" in out
        assert "heuristic1" in out

    def test_simulate_single(self, capsys):
        assert main(["simulate", "--runs", "2", "--gops", "1",
                     "--scheme", "heuristic1"]) == 0
        out = capsys.readouterr().out
        assert "mean PSNR" in out
        assert "collision rate" in out

    def test_simulate_interfering_proposed_shows_bound(self, capsys):
        assert main(["simulate", "--runs", "1", "--gops", "1",
                     "--scenario", "interfering"]) == 0
        out = capsys.readouterr().out
        assert "eq. (23) bound" in out

    def test_simulate_profile_prints_phase_seconds(self, capsys):
        assert main(["simulate", "--runs", "1", "--gops", "1",
                     "--scheme", "heuristic1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase seconds" in out
        for phase in ("sensing", "access", "allocation", "transmission"):
            assert phase in out

    def test_simulate_progress_narrates_on_stderr_only(self, capsys):
        argv = ["simulate", "--runs", "2", "--gops", "1",
                "--scheme", "heuristic1"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(argv + ["--progress"]) == 0
        narrated = capsys.readouterr()
        # stdout is the campaign's result: byte-identical either way.
        assert narrated.out == plain.out
        assert "heuristic1|0|1" in narrated.err
        assert "Timing report" in narrated.err

    def test_fig3_progress_appends_timing_report(self, capsys):
        assert main(["fig3", "--runs", "1", "--gops", "1",
                     "--progress"]) == 0
        captured = capsys.readouterr()
        assert "Timing report" in captured.out
        for scheme in ("proposed-fast", "heuristic1", "heuristic2"):
            assert f"{scheme}|0|0" in captured.err

    def test_profile_without_progress_prints_timing_report(self, capsys):
        assert main(["fig4c", "--runs", "1", "--gops", "1", "--profile"]) == 0
        captured = capsys.readouterr()
        assert "Timing report" in captured.out
        assert "per phase" in captured.out
        # --profile alone must not narrate per-cell lines.
        assert "heuristic1|0|0" not in captured.err


class TestSupervisionFlags:
    def test_budget_flags_parse(self):
        args = build_parser().parse_args(
            ["fig4b", "--cell-timeout", "30", "--deadline", "600",
             "--fail-on-error"])
        assert args.cell_timeout == 30.0
        assert args.deadline == 600.0
        assert args.fail_on_error is True

    def test_budget_flags_default_off(self):
        args = build_parser().parse_args(["fig4b"])
        assert args.cell_timeout is None
        assert args.deadline is None
        assert args.fail_on_error is False

    def test_simulate_runs_under_supervision(self, capsys):
        # A generous budget must not change the happy path at all.
        assert main(["simulate", "--runs", "1", "--gops", "1",
                     "--scheme", "heuristic1", "--cell-timeout", "120"]) == 0
        assert "mean PSNR" in capsys.readouterr().out


class TestExitCodes:
    """The documented contract: 0 success, 3 failed replications under
    --fail-on-error, 4 interrupted, 5 deadline expired."""

    def test_failed_runs_tolerated_by_default(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_run_figure",
                            lambda name, args: ("report", 2))
        assert main(["fig4b", "--runs", "1"]) == 0

    def test_fail_on_error_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_run_figure",
                            lambda name, args: ("report", 2))
        assert main(["fig4b", "--runs", "1",
                     "--fail-on-error"]) == EXIT_FAILED_RUNS
        assert "2 replication(s) failed" in capsys.readouterr().err

    def test_fail_on_error_with_clean_run_exits_0(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_run_figure",
                            lambda name, args: ("report", 0))
        assert main(["fig4b", "--runs", "1", "--fail-on-error"]) == 0

    def test_all_accumulates_failures_across_figures(self, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(cli, "_run_figure",
                            lambda name, args: (f"report {name}", 1))
        monkeypatch.setattr(
            cli, "run_fig4a",
            lambda **kwargs: pytest.fail("fig4a not expected here"))
        # Restrict "all" to two sweep figures for speed.
        monkeypatch.setattr(cli, "FIGURES", ("fig4b", "fig6a"))
        assert main(["all", "--fail-on-error"]) == EXIT_FAILED_RUNS
        assert "2 replication(s) failed" in capsys.readouterr().err

    def test_interrupted_sweep_exits_4(self, capsys, monkeypatch):
        def interrupted(name, args):
            raise SweepInterrupted("drained 5 of 12 cells")

        monkeypatch.setattr(cli, "_run_figure", interrupted)
        assert main(["fig4b", "--runs", "1"]) == EXIT_INTERRUPTED
        assert "interrupted" in capsys.readouterr().err

    def test_expired_deadline_exits_5(self, capsys, monkeypatch):
        def expired(name, args):
            raise SweepDeadlineExceeded("0.6s budget spent")

        monkeypatch.setattr(cli, "_run_figure", expired)
        assert main(["fig4b", "--runs", "1",
                     "--deadline", "0.6"]) == EXIT_DEADLINE
        assert "deadline exceeded" in capsys.readouterr().err

    def test_main_restores_signal_handlers(self, monkeypatch):
        monkeypatch.setattr(cli, "_run_figure", lambda name, args: ("", 0))
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        main(["fig4b", "--runs", "1"])
        assert signal.getsignal(signal.SIGINT) == before_int
        assert signal.getsignal(signal.SIGTERM) == before_term


class TestServiceParsers:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--workspace", "ws"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.job_workers == 2

    def test_submit_parser_defaults(self):
        args = build_parser().parse_args(["submit", "fig4b"])
        assert args.job_command == "fig4b"
        assert args.url == "http://127.0.0.1:8765"
        assert args.wait is False
        assert args.force is False
        assert args.job_trace is False

    def test_submit_accepts_scenario_options(self):
        args = build_parser().parse_args(
            ["submit", "simulate", "--scenario", "city-grid",
             "--scenario-arg", "n-fbss=4", "--job-trace", "--wait"])
        assert args.scenario == "city-grid"
        assert args.scenario_arg == ["n-fbss=4"]
        assert args.job_trace is True

    def test_compare_parser(self):
        args = build_parser().parse_args(
            ["compare", "a.json", "b.json", "--json", "--fail-on-diff"])
        assert args.result_a == "a.json"
        assert args.result_b == "b.json"
        assert args.as_json is True
        assert args.fail_on_diff is True

    def test_run_name_accepted_by_figures(self):
        args = build_parser().parse_args(
            ["fig4b", "--runs", "1", "--run-name", "job-0042"])
        assert args.run_name == "job-0042"


class TestServiceExecution:
    def test_serve_without_workspace_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_WORKSPACE", raising=False)
        assert main(["serve"]) == 2
        assert "no workspace" in capsys.readouterr().err

    def test_submit_unreachable_service_exits_2(self, capsys):
        assert main(["submit", "fig4b", "--url", "http://127.0.0.1:1"]) == 2
        assert "cannot reach service" in capsys.readouterr().err

    def test_submit_bad_scenario_arg_exits_2(self, capsys):
        assert main(["submit", "simulate", "--scenario-arg", "oops"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_submit_end_to_end_writes_the_result(self, capsys, tmp_path):
        import threading

        from repro.serve.api import make_server

        server = make_server(tmp_path / "ws", port=0, job_workers=1)
        server.manager.start()
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.1}, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        output = tmp_path / "report.txt"
        try:
            code = main(["submit", "simulate", "--runs", "1", "--gops", "1",
                         "--scheme", "heuristic1",
                         "--url", f"http://{host}:{port}",
                         "--wait", "--timeout", "300",
                         "--output", str(output)])
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.manager.stop(graceful=False, timeout=30)
            server.server_close()
        assert code == 0
        out = capsys.readouterr().out
        assert "queued as job-0001" in out
        assert "job-0001 succeeded" in out
        assert "mean PSNR" in output.read_text()


class TestCompareCli:
    def payload(self, mean):
        return {"kind": "sweep",
                "provenance": {"seed": 7, "backend": "numpy"},
                "summaries": {"heuristic1": [{"mean_psnr": {"mean": mean}}]}}

    def write_pair(self, tmp_path, mean_a, mean_b):
        import json
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(self.payload(mean_a)))
        b.write_text(json.dumps(self.payload(mean_b)))
        return str(a), str(b)

    def test_identical_files_exit_0(self, capsys, tmp_path):
        a, b = self.write_pair(tmp_path, 30.0, 30.0)
        assert main(["compare", a, b]) == 0
        assert "bit-identical  : yes" in capsys.readouterr().out

    def test_fail_on_diff_exits_1(self, capsys, tmp_path):
        a, b = self.write_pair(tmp_path, 30.0, 31.0)
        assert main(["compare", a, b, "--fail-on-diff"]) == 1
        out = capsys.readouterr().out
        assert "bit-identical  : no" in out
        assert "heuristic1" in out

    def test_json_output_is_parseable(self, capsys, tmp_path):
        import json
        a, b = self.write_pair(tmp_path, 30.0, 31.0)
        assert main(["compare", a, b, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bit_identical"] is False
        assert payload["scheme_deltas"]["heuristic1"] == [1.0]

    def test_missing_file_exits_2(self, capsys, tmp_path):
        a, _ = self.write_pair(tmp_path, 30.0, 30.0)
        assert main(["compare", a, str(tmp_path / "gone.json")]) == 2
        assert "does not exist" in capsys.readouterr().err
