"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import _profile_path, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_route_defaults(self):
        args = build_parser().parse_args(["route", "S5378"])
        assert args.circuit == "S5378"
        assert args.scale == 0.05
        assert not args.baseline

    def test_verbose_flag_counts(self):
        assert build_parser().parse_args(["circuits"]).verbose == 0
        args = build_parser().parse_args(["-vv", "circuits"])
        assert args.verbose == 2

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_perf_flag_defaults_off_and_validates(self):
        assert build_parser().parse_args(["route", "S5378"]).perf == "off"
        args = build_parser().parse_args(
            ["route", "S5378", "--perf", "counters"]
        )
        assert args.perf == "counters"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["route", "S5378", "--perf", "loud"])

    def test_watch_and_perf_history_parse(self):
        args = build_parser().parse_args(
            ["watch", "run.ndjson", "--no-follow", "--timeout", "5"]
        )
        assert args.stream == "run.ndjson"
        assert args.no_follow and args.timeout == 5.0
        args = build_parser().parse_args(["perf-history", "--markdown"])
        assert args.dir == "." and args.markdown


class TestProfilePath:
    """compare --profile splices the label before the extension."""

    def test_json_suffix_spliced(self):
        assert _profile_path("foo.json", "baseline") == "foo_baseline.json"
        assert (
            _profile_path("out/foo.json", "stitch-aware")
            == "out/foo_stitch-aware.json"
        )

    def test_bare_prefix_gets_extension(self):
        assert _profile_path("trace", "baseline") == "trace_baseline.json"

    def test_non_json_suffix_kept_in_stem(self):
        # A dotted prefix that is not .json is part of the name.
        assert _profile_path("v1.2", "baseline") == "v1.2_baseline.json"


class TestCommands:
    def test_circuits(self, capsys):
        assert main(["circuits"]) == 0
        out = capsys.readouterr().out
        assert "S38417" in out and "RISC1" in out

    def test_unknown_circuit(self):
        with pytest.raises(SystemExit):
            main(["route", "bogus"])

    def test_route_small(self, capsys, tmp_path):
        svg = tmp_path / "out.svg"
        report = tmp_path / "report.json"
        snapshot = tmp_path / "design.json"
        code = main([
            "route", "S9234", "--scale", "0.02",
            "--svg", str(svg), "--report", str(report),
            "--save-design", str(snapshot),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "S9234" in out and "rout_pct" in out
        assert svg.read_text().startswith("<svg")
        assert report.exists() and snapshot.exists()

    def test_route_baseline_flag(self, capsys):
        assert main(["route", "S9234", "--scale", "0.02", "--baseline"]) == 0
        assert "baseline" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "S9234", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "stitch-aware" in out and "baseline" in out

    def test_compare_profile_writes_unmangled_names(self, capsys, tmp_path):
        prefix = tmp_path / "foo.json"
        assert main([
            "compare", "S9234", "--scale", "0.02", "--profile", str(prefix),
        ]) == 0
        capsys.readouterr()
        assert (tmp_path / "foo_baseline.json").exists()
        assert (tmp_path / "foo_stitch-aware.json").exists()
        assert not (tmp_path / "foo.json_baseline.json").exists()

    def test_diag_histogram_totals_match_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main([
            "diag", "S9234", "--scale", "0.02", "--baseline",
            "--report", str(report_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "violations per stitching line" in out
        doc = json.loads(report_path.read_text())
        hist_vv = sum(
            kinds["via"] for kinds in doc["stitch_histogram"].values()
        )
        hist_sp = sum(
            kinds["short-polygon"]
            for kinds in doc["stitch_histogram"].values()
        )
        assert hist_vv == doc["via_violations"]
        assert hist_sp == doc["short_polygons"]

    def test_verbose_route_streams_progress(self, capsys):
        import logging

        from repro.observe import TRACE_LOGGER_NAME

        logger = logging.getLogger(TRACE_LOGGER_NAME)
        saved = (list(logger.handlers), logger.level, logger.propagate)
        try:
            assert main(["-v", "route", "S9234", "--scale", "0.02"]) == 0
            err = capsys.readouterr().err
            assert "repro.trace" in err and "wall=" in err
        finally:
            logger.handlers, logger.level, logger.propagate = saved


class TestTraceCommands:
    @pytest.fixture()
    def traces(self, tmp_path, capsys):
        prefix = tmp_path / "t.json"
        main(["compare", "S9234", "--scale", "0.02", "--profile", str(prefix)])
        capsys.readouterr()
        return (
            tmp_path / "t_baseline.json",
            tmp_path / "t_stitch-aware.json",
        )

    def test_show(self, traces, capsys):
        base, _aware = traces
        assert main(["trace", "show", str(base)]) == 0
        out = capsys.readouterr().out
        assert "detailed-route" in out and "BaselineRouter" in out

    def test_top(self, traces, capsys):
        base, _aware = traces
        assert main(["trace", "top", str(base), "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "hotspots" in out
        assert len(out.strip().splitlines()) <= 3 + 3  # title + header rows

    def test_diff_identical_exits_zero(self, traces, capsys):
        base, _aware = traces
        assert main(["trace", "diff", str(base), str(base)]) == 0
        assert "no differences" in capsys.readouterr().out

    def test_diff_counter_regression_exits_nonzero(
        self, traces, capsys, tmp_path
    ):
        base, _aware = traces
        doc = json.loads(base.read_text())

        def bump(spans):
            for span in spans:
                for name in span.get("counters", {}):
                    span["counters"][name] += 10
                    return True
                if bump(span.get("children", [])):
                    return True
            return False

        assert bump(doc["spans"])
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        assert main(["trace", "diff", str(base), str(tampered)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_diff_across_routers_detects_drift(self, traces, capsys):
        base, aware = traces
        assert main([
            "trace", "diff", str(base), str(aware), "--no-wall",
        ]) == 1
        assert "counter" in capsys.readouterr().out

    def test_markdown_rendering(self, traces, capsys):
        base, _aware = traces
        assert main(["trace", "show", str(base), "--markdown"]) == 0
        assert "| --- |" in capsys.readouterr().out


class TestStreamingCommands:
    def test_route_stream_then_watch_then_trace_show(self, capsys, tmp_path):
        stream = tmp_path / "run.ndjson"
        assert main([
            "route", "S9234", "--scale", "0.02",
            "--perf", "full", "--stream", str(stream),
        ]) == 0
        capsys.readouterr()
        assert stream.exists()
        assert main(["watch", str(stream), "--no-follow"]) == 0
        out = capsys.readouterr().out
        assert "watching stream" in out
        assert "finished: StitchAwareRouter on S9234" in out
        assert "hotspots" in out
        # The stream doubles as a trace file for the analytics commands.
        assert main(["trace", "show", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "detailed-route" in out and "perf_heap_pops" in out

    def test_watch_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["watch", str(tmp_path / "nope.ndjson")]) == 2
        assert "no such stream" in capsys.readouterr().err

    def test_watch_bad_stream_exits_2(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.ndjson"
        bogus.write_text('{"ev":"gauge","name":"x","value":1}\n')
        assert main(["watch", str(bogus), "--no-follow"]) == 2
        assert "repro watch:" in capsys.readouterr().err

    def test_perf_counters_route_prints_report(self, capsys):
        assert main([
            "route", "S9234", "--scale", "0.02", "--perf", "counters",
        ]) == 0
        assert "rout_pct" in capsys.readouterr().out

    def test_perf_history_on_repo_artifacts(self, capsys):
        root = pathlib.Path(__file__).parents[1]
        assert main(["perf-history", "--dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "benchmark snapshots" in out
        assert "engine speedups" in out

    def test_perf_history_empty_dir_exits_1(self, capsys, tmp_path):
        assert main(["perf-history", "--dir", str(tmp_path)]) == 1
        assert "no benchmark artifacts" in capsys.readouterr().out


class TestScaleValidation:
    """``--scale`` outside (0, 100] is a one-line usage error."""

    @pytest.mark.parametrize("command", ["route", "compare", "diag", "audit"])
    @pytest.mark.parametrize("scale", ["0", "-1", "1000", "nan", "big"])
    def test_out_of_range_exits_2(self, command, scale, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "S9234", "--scale", scale])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --scale:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("scale", ["100", "1e-3"])
    def test_range_is_inclusive_of_100(self, scale):
        args = build_parser().parse_args(["route", "S9234", "--scale", scale])
        assert args.scale == float(scale)


class TestTraceBadInput:
    """``repro trace show|diff|top`` report bad input in one line."""

    @pytest.fixture()
    def bench(self, tmp_path, capsys):
        prefix = tmp_path / "t.json"
        main(["compare", "S9234", "--scale", "0.02", "--profile", str(prefix)])
        capsys.readouterr()
        doc = {
            label: json.loads((tmp_path / f"t_{label}.json").read_text())
            for label in ("baseline", "stitch-aware")
        }
        path = tmp_path / "BENCH_S9234.json"
        path.write_text(json.dumps(doc))
        return path

    @staticmethod
    def _one_line_error(capsys) -> str:
        err = capsys.readouterr().err
        assert err.startswith("repro trace: ")
        assert len(err.strip().splitlines()) == 1
        return err

    @pytest.mark.parametrize("command", ["show", "top"])
    def test_missing_file(self, command, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["trace", command, str(missing)]) == 2
        assert str(missing) in self._one_line_error(capsys)

    def test_missing_file_in_diff(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["trace", "diff", str(missing), str(missing)]) == 2
        assert str(missing) in self._one_line_error(capsys)

    @pytest.mark.parametrize("command", ["show", "top"])
    def test_malformed_json(self, command, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["trace", command, str(bad)]) == 2
        assert "not valid JSON" in self._one_line_error(capsys)

    def test_multi_label_bench_without_key_names_the_flag(
        self, bench, capsys
    ):
        assert main(["trace", "show", str(bench)]) == 2
        err = self._one_line_error(capsys)
        assert "--key" in err and "baseline" in err
        assert main(["trace", "diff", str(bench), str(bench)]) == 2
        assert "--key" in self._one_line_error(capsys)
        assert main(["trace", "show", str(bench), "--key", "baseline"]) == 0


class TestAnalyzerPaths:
    """A path that is neither a directory nor a .py file is a usage error."""

    @pytest.mark.parametrize("command", ["lint", "parity", "check"])
    def test_missing_path_exits_2(self, command, capsys, tmp_path):
        missing = tmp_path / "scr"
        assert main([command, str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"repro {command}: no such path: {missing}"

    @pytest.mark.parametrize("command", ["lint", "parity", "check"])
    def test_non_python_file_exits_2(self, command, capsys, tmp_path):
        notes = tmp_path / "notes.txt"
        notes.write_text("x = 1\n")
        assert main([command, str(notes)]) == 2
        assert "no such path" in capsys.readouterr().err
