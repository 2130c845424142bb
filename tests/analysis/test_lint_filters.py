"""Dead suppressions: ``allow-`` comments that silence no finding."""

from repro.analysis import lint_paths

#: Trips DET001 (set iteration) and DET004 (mutable default) — two
#: rules with different scoping (DET004 applies everywhere).
SNIPPET = """\
def choose(nets: set, acc=[]):
    for net in nets:
        acc.append(net)
    return acc
"""


class TestDeadSuppressions:
    def test_live_suppression_is_not_dead(self, tmp_path):
        path = tmp_path / "snippet.py"
        path.write_text(
            SNIPPET.replace(
                "for net in nets:",
                "for net in nets:  # repro: allow-DET001 corpus",
            ),
            encoding="utf-8",
        )
        report = lint_paths([str(path)])
        assert report.suppressed == 1
        assert report.dead_suppressions == []

    def test_stale_suppression_is_reported(self, tmp_path):
        path = tmp_path / "snippet.py"
        path.write_text(
            "for net in [1, 2]:  # repro: allow-DET001\n    print(net)\n",
            encoding="utf-8",
        )
        report = lint_paths([str(path)])
        assert report.ok
        assert len(report.dead_suppressions) == 1
        assert report.dead_suppressions[0].codes == ("DET001",)
        from repro.analysis import render_findings

        assert "dead suppression" in render_findings(report)

    def test_quoted_syntax_in_string_is_inert(self, tmp_path):
        path = tmp_path / "snippet.py"
        path.write_text(
            'HOWTO = "append # repro: allow-DET001 to the line"\n',
            encoding="utf-8",
        )
        report = lint_paths([str(path)])
        assert report.dead_suppressions == []
