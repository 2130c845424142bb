"""Smoke tests for the ``repro`` console-script entry point.

The test environment does not install the package, so instead of
invoking the generated wrapper these tests verify the two halves the
wrapper is made of: the ``[project.scripts]`` declaration resolves to
a real callable, and that callable behaves as a CLI entry point.
"""

import importlib
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent


def declared_entry_point():
    """The ``repro`` script target from pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib  # Python 3.11+

        scripts = tomllib.loads(text)["project"]["scripts"]
        return scripts["repro"]
    except ModuleNotFoundError:
        match = re.search(
            r"^\[project\.scripts\]\s*\nrepro\s*=\s*\"([^\"]+)\"",
            text,
            re.MULTILINE,
        )
        assert match, "pyproject.toml lost its [project.scripts] entry"
        return match.group(1)


class TestEntryPoint:
    def test_declaration_resolves_to_callable(self):
        target = declared_entry_point()
        module_name, _, attr = target.partition(":")
        assert attr, f"script target {target!r} is not module:attr"
        func = getattr(importlib.import_module(module_name), attr)
        assert callable(func)

    def test_entry_point_routes_a_command(self, capsys):
        target = declared_entry_point()
        module_name, _, attr = target.partition(":")
        main = getattr(importlib.import_module(module_name), attr)
        assert main(["circuits"]) == 0
        out = capsys.readouterr().out
        assert "MCNC" in out

    def test_module_invocation_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "route" in proc.stdout and "compare" in proc.stdout
