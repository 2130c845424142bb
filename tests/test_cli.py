"""Tests for the command-line interface."""

import gzip
import json

import pytest

from repro.cli import _profile_path, build_parser, main
from repro.observe import StreamWriter, read_stream


STREAM_HEADER = '{"ev":"open","format":"repro-trace-stream","version":1}'


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

    def test_watch_parse(self):
        args = build_parser().parse_args(
            ["watch", "run.ndjson", "--no-follow", "--timeout", "5"]
        )
        assert args.stream == "run.ndjson"
        assert args.no_follow and args.timeout == 5.0


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
        assert main(["-v", "route", "S9234", "--scale", "0.02"]) == 0
        err = capsys.readouterr().err
        close = next(
            line for line in err.splitlines()
            if "< pass2/detailed-route" in line
        )
        # The close line is printed after the span was timed.
        wall = float(close.split("wall=")[1].split("s")[0])
        assert wall > 0.0
        assert "finished: StitchAwareRouter on S9234" in err
        assert "hotspots" in err
        assert "> pass2/detailed-route/first-pass" not in err  # depth 2

    def test_double_verbose_adds_round_depth(self, capsys):
        assert main(["-vv", "route", "S9234", "--scale", "0.02"]) == 0
        assert "> pass2/detailed-route/first-pass" in capsys.readouterr().err

    def test_verbose_and_stream_compose(self, capsys, tmp_path):
        stream = tmp_path / "run.ndjson"
        assert main([
            "-v", "route", "S9234", "--scale", "0.02",
            "--stream", str(stream),
        ]) == 0
        err = capsys.readouterr().err
        trace = read_stream(stream)
        detailed = trace.find("detailed-route")
        assert detailed is not None
        # Both listeners saw the same span-close event.
        assert (
            f"< pass2/detailed-route  wall={detailed.wall_seconds:.3f}s"
            in err
        )


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
        assert main(["trace", "diff", str(base), str(aware)]) == 1
        assert "counter" in capsys.readouterr().out

    def test_diff_ignores_wall_time(self, traces, capsys, tmp_path):
        base, _aware = traces
        doc = json.loads(base.read_text())

        def slow_down(span):
            span["wall_seconds"] *= 100
            for child in span.get("children", []):
                slow_down(child)

        doc["wall_seconds"] *= 100
        for span in doc["spans"]:
            slow_down(span)
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(doc))
        assert main(["trace", "diff", str(base), str(slow)]) == 0
        assert "no differences" in capsys.readouterr().out

    def test_markdown_rendering(self, traces, capsys):
        base, _aware = traces
        assert main(["trace", "show", str(base), "--markdown"]) == 0
        assert "| --- |" in capsys.readouterr().out


class TestStreamingCommands:
    def test_route_stream_then_watch_then_trace_show(self, capsys, tmp_path):
        stream = tmp_path / "run.ndjson"
        assert main([
            "route", "S9234", "--scale", "0.02",
            "--perf", "counters", "--stream", str(stream),
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

    @pytest.mark.parametrize(
        "line",
        ['{"ev":"gauge","name":"x","value":1}', "not json"],
        ids=["non-event", "not-json"],
    )
    def test_watch_bad_stream_exits_2(self, line, capsys, tmp_path):
        bogus = tmp_path / "bogus.ndjson"
        bogus.write_text(line + "\n")
        assert main(["watch", str(bogus), "--no-follow"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro watch: ")
        assert str(bogus) in err

    @pytest.mark.parametrize(
        "case", ["truncated-gzip", "not-gzip", "directory"]
    )
    def test_watch_unreadable_stream_exits_2(self, case, capsys, tmp_path):
        events = [STREAM_HEADER] + [
            f'{{"ev":"span-open","id":{i},"parent":null,"name":"x"}}\n'
            f'{{"ev":"span-close","id":{i},"wall_seconds":0.1}}'
            for i in range(50)
        ]
        text = "\n".join(events + ['{"ev":"finish"}']) + "\n"
        path = tmp_path / "run.ndjson.gz"
        if case == "truncated-gzip":
            whole = gzip.compress(text.encode())
            path.write_bytes(whole[: len(whole) // 2])
        elif case == "not-gzip":
            path.write_text(text)
        else:
            path.mkdir()
        assert main(["watch", str(path), "--no-follow"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro watch: {path}: cannot read: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag,value",
        [("--interval", v) for v in ("0", "-1", "inf", "nan")]
        + [("--timeout", v) for v in ("0", "-1")],
    )
    def test_watch_rejects_bad_seconds(self, flag, value, capsys, tmp_path):
        # A header-only stream: a watcher that accepted the value would
        # return 1 here (no finish event) instead of hanging.
        stream = tmp_path / "open.ndjson"
        StreamWriter(stream).close()
        with pytest.raises(SystemExit) as exc:
            main(["watch", str(stream), "--no-follow", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        assert "Traceback" not in err

    def test_second_stream_run_replaces_the_first(self, capsys, tmp_path):
        stream = tmp_path / "run.ndjson"
        for _ in range(2):
            assert main([
                "route", "S9234", "--scale", "0.02", "--stream", str(stream),
            ]) == 0
        counters = read_stream(stream).aggregate_counters()
        assert counters["nets_routed"] == 30

    @pytest.mark.parametrize("command", ["trace", "watch"])
    @pytest.mark.parametrize(
        "events",
        [
            ['{"ev":"span-close","id":7}'],
            ['{"ev":"span-open","id":1,"parent":5,"name":"x"}'],
            ['{"ev":"span-open","parent":null,"name":"x"}'],
            ['{"ev":"finish"}', STREAM_HEADER],
        ],
        ids=["close-unknown-id", "unknown-parent", "open-without-id",
             "two-runs"],
    )
    def test_malformed_stream_exits_2(
        self, command, events, capsys, tmp_path
    ):
        path = tmp_path / "bad.ndjson"
        lines = [STREAM_HEADER, *events, '{"ev":"finish"}']
        path.write_text("\n".join(lines) + "\n")
        argv = (
            ["trace", "show", str(path)]
            if command == "trace"
            else ["watch", str(path), "--no-follow"]
        )
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {command}: ")
        assert len(err.strip().splitlines()) == 1
        assert "event " in err

    def test_perf_counters_route_prints_report(self, capsys):
        assert main([
            "route", "S9234", "--scale", "0.02", "--perf", "counters",
        ]) == 0
        assert "rout_pct" in capsys.readouterr().out


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

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"spans": [{}]}, "span name must be a string"),
            ({"spans": 5}, "spans must be an array of objects"),
            ({"spans": [5]}, "spans must be an array of objects"),
            ({"counters": [1]}, "counters must be an object"),
            (
                {"spans": [{"name": "s", "counters": {"x": "y"}}]},
                "span 's' counters 'x' must be a number",
            ),
            (
                {"spans": [{"name": "s", "children": {}}]},
                "span 's' children must be an array of objects",
            ),
            (
                {"spans": [{"name": "s", "gauges": {"g": [1]}}]},
                "span 's' gauges 'g' must be a number",
            ),
            (
                {"spans": [{"name": "s", "wall_seconds": "1"}]},
                "span 's' wall_seconds must be a number",
            ),
            ({"cpu_seconds": True}, "cpu_seconds must be a number"),
            ({"meta": []}, "meta must be an object"),
            ({"router": 5}, "router must be a string"),
        ],
        ids=[
            "span-without-name", "spans-number", "span-number",
            "counters-array", "counter-string", "children-object",
            "gauge-array", "wall-string", "cpu-boolean", "meta-array",
            "router-number",
        ],
    )
    def test_malformed_trace_fields(self, fields, message, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"format": "repro-trace", "version": 1, **fields})
        )
        assert main(["trace", "show", str(bad)]) == 2
        err = self._one_line_error(capsys)
        assert f"{bad}: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["trace", "watch"])
    @pytest.mark.parametrize(
        "event,message",
        [
            (
                '{"ev":"span-close","id":0,"counters":5}',
                "span-close counters must be an object",
            ),
            (
                '{"ev":"span-close","id":0,"counters":{"x":"y"}}',
                "span-close counters 'x' must be a number",
            ),
            (
                '{"ev":"span-close","id":0,"gauges":[]}',
                "span-close gauges must be an object",
            ),
            (
                '{"ev":"span-close","id":0,"wall_seconds":"1"}',
                "span-close wall_seconds must be a number",
            ),
            (
                '{"ev":"heartbeat","wall_seconds":[1]}',
                "heartbeat wall_seconds must be a number",
            ),
        ],
        ids=["counters-number", "counter-string", "gauges-array",
             "wall-string", "heartbeat-wall-array"],
    )
    def test_malformed_stream_fields(
        self, command, event, message, capsys, tmp_path
    ):
        path = tmp_path / "bad.ndjson"
        lines = [
            STREAM_HEADER,
            '{"ev":"span-open","id":0,"parent":null,"name":"x"}',
            event,
            '{"ev":"finish"}',
        ]
        path.write_text("\n".join(lines) + "\n")
        argv = (
            ["trace", "show", str(path)]
            if command == "trace"
            else ["watch", str(path), "--no-follow"]
        )
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {command}: {path}: event 3: {message}")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_report_with_malformed_trace(self, capsys, tmp_path):
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps({"format": "repro-report", "trace": 5}))
        assert main(["trace", "show", str(bad)]) == 2
        assert "not a trace document" in self._one_line_error(capsys)

    def test_truncated_gzip_names_the_file(self, capsys, tmp_path):
        whole = gzip.compress(json.dumps({"format": "repro-trace"}).encode())
        bad = tmp_path / "cut.json.gz"
        bad.write_bytes(whole[: len(whole) // 2])
        assert main(["trace", "show", str(bad)]) == 2
        assert str(bad) in self._one_line_error(capsys)

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_top_rejects_non_positive_n(self, n, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "top", str(tmp_path / "t.json"), "-n", n])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument -n:" in err and "at least 1" in err

    def test_unfinished_stream_names_the_file(self, capsys, tmp_path):
        stream = tmp_path / "open.ndjson"
        StreamWriter(stream).close()
        assert main(["trace", "show", str(stream)]) == 2
        err = self._one_line_error(capsys)
        assert err.count(str(stream)) == 1 and "finish" in err

    def test_diff_names_the_bad_file(self, bench, capsys, tmp_path):
        bad = tmp_path / "bad.ndjson"
        bad.write_text(
            "\n".join(
                [STREAM_HEADER, '{"ev":"span-close","id":7}', '{"ev":"finish"}']
            )
            + "\n"
        )
        argv = ["trace", "diff", str(bench), str(bad), "--key-old", "baseline"]
        assert main(argv) == 2
        err = self._one_line_error(capsys)
        assert err.count(str(bad)) == 1 and str(bench) not in err

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

    @pytest.mark.parametrize("command", ["lint"])
    def test_missing_path_exits_2(self, command, capsys, tmp_path):
        missing = tmp_path / "scr"
        assert main([command, str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"repro {command}: no such path: {missing}"

    @pytest.mark.parametrize("command", ["lint"])
    def test_non_python_file_exits_2(self, command, capsys, tmp_path):
        notes = tmp_path / "notes.txt"
        notes.write_text("x = 1\n")
        assert main([command, str(notes)]) == 2
        assert "no such path" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "content",
        [b"def f(:\n", b"x = 1\n\xff\xfe\n"],
        ids=["syntax-error", "not-utf8"],
    )
    def test_unreadable_file_exits_2(self, content, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_bytes(content)
        assert main(["lint", str(bad)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"repro lint: {bad}")


class TestOutputPaths:
    """A missing output directory fails before the design is generated."""

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("route", "--svg"),
            ("route", "--report"),
            ("route", "--save-design"),
            ("route", "--profile"),
            ("route", "--stream"),
            ("compare", "--profile"),
            ("diag", "--report"),
            ("audit", "--report"),
        ],
    )
    def test_missing_directory_exits_2_before_routing(
        self, command, flag, capsys, monkeypatch, tmp_path
    ):
        def no_routing(name, scale):
            raise AssertionError("the design was generated")

        monkeypatch.setattr("repro.cli._get_design", no_routing)
        missing = tmp_path / "missing"
        argv = [command, "S9234", flag, str(missing / "out.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"repro {command}: no such directory: {missing}"

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("route", "--svg"),
            ("route", "--report"),
            ("route", "--save-design"),
            ("route", "--profile"),
            ("route", "--stream"),
            ("diag", "--report"),
            ("audit", "--report"),
        ],
    )
    def test_directory_exits_2_before_routing(
        self, command, flag, capsys, monkeypatch, tmp_path
    ):
        def no_routing(name, scale):
            raise AssertionError("the design was generated")

        monkeypatch.setattr("repro.cli._get_design", no_routing)
        assert main([command, "S9234", flag, str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"repro {command}: is a directory: {tmp_path}"
