"""Table III — the stitch-aware framework vs the baseline router.

For every circuit of both suites: routability, via violations, short
polygons and CPU time for the conventional baseline and the full
stitch-aware framework.  The paper's headline: #SP drops to ~2% of the
baseline with a small routability gain and ~10% runtime overhead.
"""

from repro.api import BaselineRouter, StitchAwareRouter
from repro.reporting import format_table

from common import full_suite, save_result

COLUMNS = [
    "circuit",
    "base_rout", "base_vv", "base_sp", "base_cpu",
    "aware_rout", "aware_vv", "aware_sp", "aware_cpu",
]


def run_suite():
    rows = []
    for design in full_suite():
        base = BaselineRouter().route(design).report
        aware = StitchAwareRouter().route(design).report
        rows.append(
            {
                "circuit": design.name,
                "base_rout": 100 * base.routability,
                "base_vv": base.via_violations,
                "base_sp": base.short_polygons,
                "base_cpu": base.cpu_seconds,
                "aware_rout": 100 * aware.routability,
                "aware_vv": aware.via_violations,
                "aware_sp": aware.short_polygons,
                "aware_cpu": aware.cpu_seconds,
            }
        )
    return rows


def test_table3_framework_vs_baseline(benchmark):
    rows = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    comp = {
        "circuit": "Comp.",
        "base_rout": 1.0,
        "base_sp": 1.0,
        "base_cpu": 1.0,
    }
    base_sp = sum(r["base_sp"] for r in rows)
    aware_sp = sum(r["aware_sp"] for r in rows)
    base_cpu = sum(r["base_cpu"] for r in rows)
    aware_cpu = sum(r["aware_cpu"] for r in rows)
    base_rout = sum(r["base_rout"] for r in rows)
    aware_rout = sum(r["aware_rout"] for r in rows)
    comp.update(
        aware_rout=aware_rout / base_rout,
        aware_sp=aware_sp / base_sp if base_sp else None,
        aware_cpu=aware_cpu / base_cpu,
    )
    table = format_table(
        rows + [comp],
        columns=COLUMNS,
        title=(
            "Table III - baseline vs stitch-aware routing framework\n"
            "(paper Comp. row: Rout 1.011, #SP 0.023, CPU 1.1)"
        ),
    )
    save_result("table3_framework", table)

    # Shape assertions: massive SP reduction, comparable routability.
    assert aware_sp < 0.35 * base_sp
    assert aware_rout > 0.96 * base_rout
