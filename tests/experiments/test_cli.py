"""Integration tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "fig2"])
        assert args.exhibit == "fig2"
        assert args.replications == 1
        assert not args.quick

    def test_run_command_options(self):
        args = build_parser().parse_args(
            ["run", "7", "--quick", "--tmax", "50", "--replications", "2"]
        )
        assert args.exhibit == "7"
        assert args.quick
        assert args.tmax == 50.0
        assert args.replications == 2

    def test_simulate_command_overrides(self):
        args = build_parser().parse_args(
            ["simulate", "--ltot", "7", "--npros", "3"]
        )
        assert args.ltot == 7
        assert args.npros == 3
        assert args.dbsize is None

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_cache_flags(self):
        args = build_parser().parse_args(
            ["run", "fig2", "--no-cache", "--refresh",
             "--cache-dir", "/tmp/c", "--jobs", "3"]
        )
        assert args.no_cache
        assert args.refresh
        assert args.cache_dir == "/tmp/c"
        assert args.jobs == 3

    def test_run_cache_flags_default_off(self):
        args = build_parser().parse_args(["run", "fig2"])
        assert not args.no_cache
        assert not args.refresh
        assert args.cache_dir is None

    def test_run_crash_safety_flags(self):
        args = build_parser().parse_args(
            ["run", "fig2", "--journal", "/tmp/j", "--resume",
             "--watchdog", "30", "--watchdog-retries", "1"]
        )
        assert args.journal == "/tmp/j"
        assert args.resume
        assert args.watchdog == 30.0
        assert args.watchdog_retries == 1

    def test_run_crash_safety_defaults_off(self):
        args = build_parser().parse_args(["run", "fig2"])
        assert args.journal is None
        assert not args.resume
        assert args.watchdog is None
        assert args.watchdog_retries == 2

    def test_faults_command_parses(self):
        args = build_parser().parse_args(
            ["faults", "--mttf", "50", "--mttr", "5",
             "--ltot-grid", "10,100", "--backoff", "jittered",
             "--replications", "2", "--npros", "2"]
        )
        assert args.command == "faults"
        assert args.mttf == 50.0
        assert args.mttr == 5.0
        assert args.ltot_grid == "10,100"
        assert args.backoff == "jittered"
        assert args.replications == 2
        assert args.npros == 2

    def test_faults_rejects_unknown_backoff(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--backoff", "fibonacci"])

    def test_run_metrics_flags(self):
        args = build_parser().parse_args(
            ["run", "fig2", "--metrics", "--metrics-port", "9464",
             "--metrics-snapshot", "/tmp/m.json"]
        )
        assert args.metrics
        assert args.metrics_port == 9464
        assert args.metrics_snapshot == "/tmp/m.json"

    def test_top_command_parses(self):
        args = build_parser().parse_args(
            ["top", "sweep.journal", "--once", "--interval", "0.5"]
        )
        assert args.command == "top"
        assert args.journal == "sweep.journal"
        assert args.once
        assert args.interval == 0.5

    def test_report_json_flag_is_optional_path(self):
        bare = build_parser().parse_args(["report", "t.jsonl", "--json"])
        assert bare.json == "-"
        pathed = build_parser().parse_args(
            ["report", "t.jsonl", "--json", "out.json"]
        )
        assert pathed.json == "out.json"
        off = build_parser().parse_args(["report", "t.jsonl"])
        assert off.json is None


class TestExecution:
    def test_list_prints_exhibits(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "table1" in out and "ablation_conflict" in out

    def test_simulate_prints_outputs(self, capsys):
        code = main(
            [
                "simulate",
                "--dbsize", "200", "--ltot", "10", "--ntrans", "3",
                "--maxtransize", "20", "--npros", "2", "--tmax", "60",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "totcom" in out

    def test_run_quick_table1(self, capsys):
        code = main(["run", "table1", "--tmax", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_run_quick_saves_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        code = main(
            [
                "run", "fig7", "--quick", "--tmax", "40",
                "--save", str(csv_path), "--json", str(json_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        assert json_path.exists()
        out = capsys.readouterr().out
        assert "liotime=0.2" in out
        assert "expected shape" in out.lower()

    def test_run_with_plot(self, capsys):
        code = main(["run", "table1", "--tmax", "60", "--plot"])
        assert code == 0
        assert "log x" in capsys.readouterr().out

    def test_run_unknown_exhibit_raises(self):
        with pytest.raises(KeyError):
            main(["run", "fig99"])

    def test_run_warm_cache_skips_simulation(self, capsys, tmp_path):
        argv = ["run", "table1", "--quick", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 simulated" in out
        assert "100% hit rate" in out

    def test_run_no_cache_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert main(["run", "table1", "--quick", "--no-cache"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "c").exists()

    def test_run_with_seed_override(self, capsys):
        code = main(["run", "table1", "--tmax", "60", "--seed", "123"])
        assert code == 0

    def test_run_writes_svg_charts(self, capsys, tmp_path):
        svg_dir = tmp_path / "charts"
        code = main(
            ["run", "table1", "--tmax", "40", "--svg", str(svg_dir)]
        )
        assert code == 0
        written = list(svg_dir.glob("*.svg"))
        assert len(written) == 2  # throughput + response_time

    def test_simulate_with_trace(self, capsys):
        code = main(
            [
                "simulate", "--dbsize", "200", "--ltot", "10",
                "--ntrans", "2", "--maxtransize", "10", "--npros", "2",
                "--tmax", "30", "--trace", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "arrive" in out
        assert "events total" in out

    def test_compare_flags_changes(self, capsys, tmp_path):
        from repro.experiments.storage import save_rows_csv

        baseline = [
            {"ltot": 1, "npros": 2, "throughput": 0.10},
            {"ltot": 10, "npros": 2, "throughput": 0.20},
        ]
        candidate = [
            {"ltot": 1, "npros": 2, "throughput": 0.10},
            {"ltot": 10, "npros": 2, "throughput": 0.30},
        ]
        base_path = tmp_path / "base.csv"
        cand_path = tmp_path / "cand.csv"
        save_rows_csv(baseline, base_path)
        save_rows_csv(candidate, cand_path)
        code = main(["compare", str(base_path), str(cand_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "improved" in out
        assert "1 of 2" in out

    def test_compare_disjoint_files_fail(self, capsys, tmp_path):
        from repro.experiments.storage import save_rows_csv

        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        save_rows_csv([{"ltot": 1, "throughput": 0.1}], a)
        save_rows_csv([{"ltot": 99, "throughput": 0.1}], b)
        assert main(["compare", str(a), str(b)]) == 1

    def test_trace_then_report_round_trip(self, capsys, tmp_path):
        from repro.obs.manifest import load_manifest
        from repro.obs.sinks import load_trace

        out = tmp_path / "telemetry.jsonl"
        assert main([
            "trace", "--out", str(out), "--sample-interval", "10",
            "--dbsize", "200", "--ltot", "10", "--ntrans", "3",
            "--maxtransize", "20", "--npros", "2", "--tmax", "80",
            "--print", "3",
        ]) == 0
        trace_out = capsys.readouterr().out
        assert "Telemetry written to" in trace_out
        assert "arrive" in trace_out  # --print 3 shows the first events

        loaded = load_trace(str(out))
        assert loaded.footer is not None
        assert len(loaded.records) == loaded.footer["events"]
        assert len(loaded.samples) == 8  # tmax=80 / interval 10
        manifest = load_manifest(str(out) + ".manifest")
        assert manifest is not None
        assert manifest["cache_hit"] is False

        svg = tmp_path / "timeline.svg"
        assert main([
            "report", str(out), "--top", "3", "--svg", str(svg),
        ]) == 0
        report_out = capsys.readouterr().out
        assert "Telemetry report" in report_out
        assert "events by kind" in report_out
        assert "Utilisation timeline" in report_out
        assert svg.read_text().startswith("<svg")

    def test_faults_sweep_prints_table_and_saves(self, capsys, tmp_path):
        csv_path = tmp_path / "faults.csv"
        code = main(
            [
                "faults", "--mttf", "30", "--mttr", "10",
                "--ltot-grid", "10,20", "--replications", "1",
                "--dbsize", "500", "--ntrans", "5", "--maxtransize", "50",
                "--npros", "4", "--tmax", "150", "--seed", "7",
                "--save", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "failure_aborts" in out
        assert csv_path.exists()

    def test_faults_sweep_is_reproducible(self, capsys, tmp_path):
        argv = [
            "faults", "--mttf", "30", "--ltot-grid", "10",
            "--replications", "1", "--dbsize", "300", "--ntrans", "3",
            "--maxtransize", "30", "--npros", "2", "--tmax", "100",
            "--seed", "5",
        ]
        assert main(argv + ["--save", str(tmp_path / "a.csv")]) == 0
        assert main(argv + ["--save", str(tmp_path / "b.csv")]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.csv").read_text() == (
            tmp_path / "b.csv"
        ).read_text()

    def test_faults_without_sources_warns(self, capsys):
        code = main(
            [
                "faults", "--ltot-grid", "10", "--replications", "1",
                "--dbsize", "300", "--ntrans", "3", "--maxtransize", "30",
                "--npros", "2", "--tmax", "60",
            ]
        )
        assert code == 0
        assert "No fault source enabled" in capsys.readouterr().out

    def test_run_resume_on_clean_cache_completes(self, capsys, tmp_path):
        argv = [
            "run", "table1", "--quick", "--cache-dir", str(tmp_path),
            "--journal", str(tmp_path / "t.journal"), "--resume",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        # Second invocation resumes everything from journal + cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Resumed" in out
        assert "0 simulated" in out

    def test_report_rejects_garbage_file(self, tmp_path):
        from repro.obs.sinks import TraceSchemaError

        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(TraceSchemaError):
            main(["report", str(bad)])


class TestAnalyticVerbs:
    def test_predict_flags_parse(self):
        args = build_parser().parse_args(
            ["predict", "--ltot", "100", "--npros", "10",
             "--ltot-grid", "1,10,100", "--json", "/tmp/p.json"]
        )
        assert args.command == "predict"
        assert args.ltot == 100
        assert args.ltot_grid == "1,10,100"

    def test_crossval_flags_parse(self):
        args = build_parser().parse_args(
            ["crossval", "fig2", "--cc", "incremental",
             "--max-mean-error", "0.15", "--min-completions", "10",
             "--svg", "/tmp/c.svg"]
        )
        assert args.command == "crossval"
        assert args.exhibit == "fig2"
        assert args.protocol == "incremental"
        assert args.max_mean_error == 0.15

    def test_crossval_default_exhibit(self):
        args = build_parser().parse_args(["crossval"])
        assert args.exhibit == "ablation_analytic"

    def test_run_accelerator_flag(self):
        args = build_parser().parse_args(
            ["run", "fig2", "--accelerator", "analytic"]
        )
        assert args.accelerator == "analytic"
        assert build_parser().parse_args(["run", "fig2"]).accelerator is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig2", "--accelerator", "x"])

    def test_predict_prints_curve(self, capsys, tmp_path):
        json_path = tmp_path / "pred.json"
        code = main(
            ["predict", "--npros", "10", "--ltot-grid", "1,10,100,1000",
             "--json", str(json_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "semantics: blocking" in out
        assert json_path.exists()
        import json

        rows = json.load(open(json_path))["rows"]
        assert len(rows) == 4
        assert all(r["provenance"] == "analytic" for r in rows)

    def test_predict_single_cell(self, capsys):
        assert main(["predict", "--ltot", "50", "--npros", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 2

    def test_crossval_gate_and_artifacts(self, capsys, tmp_path):
        json_path = tmp_path / "cv.json"
        svg_path = tmp_path / "cv.svg"
        argv = [
            "crossval", "ablation_analytic", "--tmax", "150",
            "--npros-grid", "10", "--ltot-grid", "10,100",
            "--min-completions", "1", "--no-cache",
            "--json", str(json_path), "--svg", str(svg_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "mean |error|" in out
        assert json_path.exists()
        assert svg_path.exists()
        # An impossible bound trips the CI gate deterministically.
        assert main(argv + ["--max-mean-error", "0.0"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_run_accelerated_sweep_completes(self, capsys, tmp_path):
        # Small --quick curves are fully simulated by design (the plan
        # only prunes interior points of longer curves); the flag must
        # still run end to end and report the sweep normally.
        code = main(
            ["run", "ablation_analytic", "--quick", "--tmax", "60",
             "--cache-dir", str(tmp_path / "cache"),
             "--accelerator", "analytic"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out


class TestObservabilityVerbs:
    def test_run_with_metrics_writes_snapshot_and_top_renders(
        self, capsys, tmp_path
    ):
        journal = str(tmp_path / "s.journal")
        code = main(
            ["run", "table1", "--tmax", "120", "--no-cache",
             "--journal", journal, "--metrics"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Metrics snapshots ->" in out
        assert "Metrics:" in out  # end-of-sweep counter summary

        assert main(["top", journal, "--once"]) == 0
        frame = capsys.readouterr().out
        assert "FINISHED" in frame
        assert "commits" in frame

    def test_top_on_missing_journal_fails_cleanly(self, capsys, tmp_path):
        code = main(["top", str(tmp_path / "nope.journal"), "--once"])
        assert code == 1
        assert "is the sweep running?" in capsys.readouterr().out

    def test_report_json_to_stdout_and_file(self, capsys, tmp_path):
        import json as json_module

        telemetry = str(tmp_path / "t.jsonl")
        assert main(
            ["trace", "--out", telemetry, "--tmax", "100",
             "--dbsize", "200", "--maxtransize", "30", "--ltot", "10"]
        ) == 0
        capsys.readouterr()

        assert main(["report", telemetry, "--json"]) == 0
        document = json_module.loads(capsys.readouterr().out)
        assert set(document) == {"header", "summary", "diagnosis", "timeline"}
        assert document["summary"]["completions"] > 0

        out_path = str(tmp_path / "report.json")
        assert main(["report", telemetry, "--json", out_path]) == 0
        with open(out_path) as handle:
            assert json_module.load(handle)["diagnosis"][
                "wait_episodes"
            ] >= 0

    def test_text_report_includes_contention_diagnosis(
        self, capsys, tmp_path
    ):
        telemetry = str(tmp_path / "t.jsonl")
        assert main(
            ["trace", "--out", telemetry, "--tmax", "120",
             "--dbsize", "200", "--maxtransize", "40", "--ltot", "10",
             "--cc", "incremental", "--conflict-engine", "explicit"]
        ) == 0
        capsys.readouterr()
        assert main(["report", telemetry]) == 0
        out = capsys.readouterr().out
        assert "Contention diagnosis:" in out
        assert "hottest granules by time spent waiting:" in out


class TestFlagErrors:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["predict", "--ltot-grid", "1,x"], "--ltot-grid"),
            (["faults", "--ltot-grid", "10,abc"], "--ltot-grid"),
            (["crossval", "fig2", "--npros-grid", "1,y"], "--npros-grid"),
        ],
        ids=["predict", "faults", "crossval"],
    )
    def test_malformed_grid_exits_2_naming_the_flag(self, capsys, argv, flag):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "Traceback" not in captured.err

    def test_crossval_npros_grid_needs_an_npros_sweep(self, capsys):
        assert main(["crossval", "table1", "--npros-grid", "1,2"]) == 2
        err = capsys.readouterr().err
        assert "--npros-grid" in err
        assert "table1" in err


class TestMetricsSnapshotFlag:
    def test_snapshot_implies_metrics(self, capsys, tmp_path):
        snapshot = tmp_path / "m.json"
        code = main(
            ["run", "table1", "--tmax", "40", "--no-cache",
             "--metrics-snapshot", str(snapshot)]
        )
        assert code == 0
        assert snapshot.exists()
        assert "Metrics:" in capsys.readouterr().out
