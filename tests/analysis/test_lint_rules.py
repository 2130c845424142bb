"""Per-rule corpora for the linter (DET001-DET005).

Each rule gets at least one bad fixture that must be flagged, a
suppression check (``# repro: allow-DETnnn`` silences exactly that
finding), and the clean spelling that must pass.  Fixture paths have no
``repro`` package component, so every rule — including the
routing-scoped ones — is in scope (see ``routing_rules_apply``).
"""

import json
import pathlib
import textwrap

from repro.analysis import RULES, lint_paths, lint_source, render_findings
from repro.analysis.lint import routing_rules_apply, suppression_map

FIXTURE_PATH = "fixtures/snippet.py"


def codes(source):
    return [f.rule for f in lint_source(textwrap.dedent(source), FIXTURE_PATH)]


class TestDET001UnorderedIteration:
    def test_for_over_set_flagged(self):
        assert "DET001" in codes(
            """
            nodes = {1, 2, 3}
            for node in nodes:
                print(node)
            """
        )

    def test_for_over_dict_keys_flagged(self):
        assert "DET001" in codes(
            """
            def f(owner):
                for node in owner.keys():
                    print(node)
            """
        )

    def test_list_freezing_a_set_flagged(self):
        assert "DET001" in codes(
            """
            seen = set()
            order = list(seen)
            """
        )

    def test_sorted_set_is_clean(self):
        assert codes(
            """
            nodes = {1, 2, 3}
            for node in sorted(nodes):
                print(node)
            """
        ) == []

    def test_suppression_comment_silences(self):
        source = textwrap.dedent(
            """
            nodes = {1, 2, 3}
            total = 0
            for node in nodes:  # repro: allow-DET001 commutative sum
                total += node
            """
        )
        assert lint_source(source, FIXTURE_PATH) == []


class TestDET002AmbientInputs:
    def test_time_time_flagged(self):
        assert "DET002" in codes(
            """
            import time
            stamp = time.time()
            """
        )

    def test_perf_counter_is_sanctioned(self):
        assert codes(
            """
            import time
            start = time.perf_counter()
            """
        ) == []

    def test_import_random_flagged(self):
        assert "DET002" in codes("import random\n")

    def test_os_urandom_flagged(self):
        assert "DET002" in codes(
            """
            import os
            blob = os.urandom(8)
            """
        )

    def test_suppression_comment_silences(self):
        source = "import random  # repro: allow-DET002 seeded generator\n"
        assert lint_source(source, FIXTURE_PATH) == []


class TestDET003FloatEquality:
    def test_cost_equality_flagged(self):
        assert "DET003" in codes(
            """
            def pick(cost, best_cost):
                return cost == best_cost
            """
        )

    def test_float_literal_equality_flagged(self):
        assert "DET003" in codes(
            """
            def f(x):
                return x != 0.5
            """
        )

    def test_ordering_comparison_is_clean(self):
        assert codes(
            """
            def pick(cost, best_cost):
                return cost < best_cost
            """
        ) == []

    def test_suppression_comment_silences(self):
        source = (
            "def f(cost, other_cost):\n"
            "    return cost == other_cost  # repro: allow-DET003 exact copy\n"
        )
        assert lint_source(source, FIXTURE_PATH) == []


class TestDET004MutableDefaults:
    def test_list_default_flagged(self):
        assert "DET004" in codes(
            """
            def route(net, visited=[]):
                visited.append(net)
            """
        )

    def test_dict_default_flagged(self):
        assert "DET004" in codes(
            """
            def route(net, stats={}):
                return stats
            """
        )

    def test_none_default_is_clean(self):
        assert codes(
            """
            def route(net, visited=None):
                visited = [] if visited is None else visited
            """
        ) == []

    def test_suppression_comment_silences(self):
        source = (
            "def f(x, cache={}):  # repro: allow-DET004 module-lifetime memo\n"
            "    return cache\n"
        )
        assert lint_source(source, FIXTURE_PATH) == []


class TestDET005HashOrderTieBreaks:
    def test_next_iter_set_flagged(self):
        assert "DET005" in codes(
            """
            def any_node(nodes: set):
                return next(iter(nodes))
            """
        )

    def test_id_call_flagged(self):
        assert "DET005" in codes(
            """
            def key(net):
                return id(net)
            """
        )

    def test_set_pop_flagged(self):
        assert "DET005" in codes(
            """
            frontier = {1, 2}
            node = frontier.pop()
            """
        )

    def test_min_of_set_is_clean(self):
        assert codes(
            """
            def any_node(nodes: set):
                return min(nodes)
            """
        ) == []

    def test_suppression_comment_silences(self):
        source = (
            "def f(nodes: set):\n"
            "    return next(iter(nodes))  # repro: allow-DET005 singleton\n"
        )
        assert lint_source(source, FIXTURE_PATH) == []


class TestSuppressionParsing:
    def test_multiple_codes_one_comment(self):
        line = "x = 1  # repro: allow-DET001, DET005 order-free\n"
        assert suppression_map(line) == {1: frozenset({"DET001", "DET005"})}

    def test_unrelated_comment_suppresses_nothing(self):
        assert suppression_map("x = 1  # just a comment\n") == {}

    def test_suppressing_other_rule_does_not_silence(self):
        source = (
            "nodes = {1, 2}\n"
            "for n in nodes:  # repro: allow-DET002 wrong code\n"
            "    print(n)\n"
        )
        assert [f.rule for f in lint_source(source, FIXTURE_PATH)] == [
            "DET001"
        ]


class TestScoping:
    def test_routing_packages_in_scope(self):
        assert routing_rules_apply("src/repro/detailed/router.py")
        assert routing_rules_apply("src/repro/globalroute/graph.py")

    def test_non_routing_repro_packages_out_of_scope(self):
        assert not routing_rules_apply("src/repro/observe/tracer.py")
        assert not routing_rules_apply("src/repro/eval/violations.py")

    def test_standalone_files_in_scope(self):
        assert routing_rules_apply(FIXTURE_PATH)

    def test_routing_only_rule_skipped_outside_routing(self):
        source = "nodes = {1, 2}\nfor n in nodes:\n    print(n)\n"
        assert lint_source(source, "src/repro/observe/helper.py") == []
        # DET004 applies everywhere.
        bad_default = "def f(x=[]):\n    return x\n"
        assert [
            f.rule
            for f in lint_source(bad_default, "src/repro/observe/helper.py")
        ] == ["DET004"]


class TestReportAndBaseline:
    BAD_SNIPPET = "frontier = {1, 2}\nnode = frontier.pop()\n"

    def test_lint_paths_flags_fixture_file(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD_SNIPPET)
        report = lint_paths([str(tmp_path)])
        assert not report.ok
        assert {f.rule for f in report.findings} == {"DET005"}
        rendered = render_findings(report)
        assert "DET005" in rendered and "hint:" in rendered

    def test_every_rule_has_fix_hint_and_rationale(self):
        for rule in RULES.values():
            assert rule.fix_hint
            assert rule.rationale


class TestCLI:
    REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

    def test_lint_src_is_clean(self, capsys):
        from repro.cli import main

        code = main(["lint", str(self.REPO_ROOT / "src")])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 finding(s)" in out

    def test_lint_bad_fixture_fails(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        code = main(["lint", str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        assert "DET002" in out

    def test_verdict_ignores_a_baseline_file_in_the_cwd(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        (tmp_path / "bad.py").write_text("import random\n")
        (tmp_path / "lint-baseline.json").write_text(json.dumps({
            "format": "repro-lint-baseline",
            "version": 1,
            "findings": [
                {"path": "bad.py", "rule": "DET002", "text": "import random"}
            ],
        }))
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "bad.py"]) == 1
        assert "DET002" in capsys.readouterr().out

    def test_lint_json_output(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        code = main(["lint", "--format", "json", str(bad)])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["ok"] is False
        assert document["findings"][0]["rule"] == "DET004"
        assert document["findings"][0]["fix_hint"]
