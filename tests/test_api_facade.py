"""The ``repro.api`` facade contract."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro.api as api
from repro.benchmarks_gen import mcnc_design


class TestFacadeExports:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_lazy_analysis_reexports(self):
        from repro.analysis import audit_solution, lint_paths

        assert api.audit_solution is audit_solution
        assert api.lint_paths is lint_paths

    def test_import_leaves_analysis_unloaded_until_asked(self):
        # A fresh interpreter: this test process has long imported the
        # analysis package.  Importing the facade must not load it;
        # reading a lazy re-export must.
        src = pathlib.Path(api.__file__).resolve().parents[1]
        probe = (
            "import sys\n"
            "import repro.api\n"
            "assert 'repro.analysis' not in sys.modules, sorted(\n"
            "    m for m in sys.modules if m.startswith('repro.analysis'))\n"
            "repro.api.audit_solution\n"
            "assert 'repro.analysis' in sys.modules\n"
        )
        subprocess.run(
            [sys.executable, "-c", probe],
            check=True,
            cwd=src,
            env={**os.environ, "PYTHONPATH": str(src)},
        )

    def test_default_flows_run_without_numpy_or_scipy(self):
        # numpy serves only the raster substrate, the congestion
        # statistics, the read-only demand copies and, with scipy,
        # track_method="ilp" (TestILP covers it).  A fresh interpreter
        # where importing either fails must still import the package
        # and the CLI, route and audit with both default routers, and
        # global-route with and without the line-end term.
        src = pathlib.Path(api.__file__).resolve().parents[1]
        probe = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "sys.modules['scipy'] = None\n"
            "import repro\n"
            "import repro.cli\n"
            "from repro.analysis import audit_solution\n"
            "from repro.benchmarks_gen import mcnc_design, mcnc_stress_design\n"
            "from repro.globalroute import GlobalRouter\n"
            "design = mcnc_design('S9234', scale=0.02)\n"
            "for router in (repro.StitchAwareRouter, repro.BaselineRouter):\n"
            "    flow = router().route(design)\n"
            "    assert flow.report.routed_nets > 0\n"
            "    audit = audit_solution(\n"
            "        flow.detailed_result, flow.report, flow.global_result)\n"
            "    assert audit.rules_checked\n"
            "stressed = mcnc_stress_design('S13207', scale=0.05)\n"
            "for stitch_aware in (True, False):\n"
            "    result = GlobalRouter(stitch_aware=stitch_aware).route(stressed)\n"
            "    assert result.routes\n"
            "assert sys.modules['numpy'] is None\n"
            "assert sys.modules['scipy'] is None\n"
        )
        subprocess.run(
            [sys.executable, "-c", probe],
            check=True,
            cwd=src,
            env={**os.environ, "PYTHONPATH": str(src)},
        )

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            api.no_such_name

    def test_root_package_serves_the_same_objects(self):
        import repro

        assert repro.StitchAwareRouter is api.StitchAwareRouter
        assert repro.RouterConfig is api.RouterConfig
        assert repro.FlowResult is api.FlowResult


class TestRouteConvenience:
    def test_routes_with_default_config(self):
        design = mcnc_design("S9234", scale=0.02)
        result = api.route(design)
        assert isinstance(result, api.FlowResult)
        assert isinstance(result.report, api.RoutingReport)
