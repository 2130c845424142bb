"""Compare two benchmark results metric by metric.

Run from the repository root::

    python3 benchmarks/perf/compare.py A.json B.json

Both files are ``run.py --out`` results.  One row per workload and
end-to-end metric gives A's and B's medians, B's change against A as a
share of A's median (positive is worse), the wider of the two q1–q3
spreads as a share of its median, the metric's bound from
``BENCHMARK.json`` (or, for the quality metrics it does not list, from
``workloads.QUALITY_METRICS``), and a label:

* ``worse``: B is worse than A by more than the bound;
* ``better``: B is better than A by more than the bound;
* ``same``: the change is within the bound;
* ``unresolved``: a spread is wider than the bound, so the change cannot
  be told from noise; it reads ``better`` only when every pass of B is
  better than every pass of A.

Where A's median is 0 the change has no share; any move is labelled by
its direction.  Exits 1 on any ``worse`` row.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
from typing import Optional

from workloads import load_spec


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in argv)
    if a["run"] != b["run"]:
        print(f"warning: run settings differ: {a['run']} vs {b['run']}")
    rows = compare(a, b, load_spec()["all_end_to_end"])
    print(f"{'workload':22s} {'metric':20s} {'unit':9s} {'A':>12s} "
          f"{'B':>12s} {'change':>8s} {'spread':>7s} {'bound':>6s}  label")
    for row in rows:
        print(f"{row['workload']:22s} {row['metric']:20s} {row['unit']:9s} "
              f"{row['a']:12.6g} {row['b']:12.6g} {percent(row['change']):>8s} "
              f"{100 * row['spread']:6.1f}% {100 * row['bound']:5.1f}%  "
              f"{row['label']}")
    worse = sum(row["label"] == "worse" for row in rows)
    print(f"{len(rows)} rows, {worse} worse")
    return 1 if worse else 0


def compare(a: dict, b: dict, metrics: list[dict]) -> list[dict]:
    """Rows for every workload and metric present in both results."""
    rows = []
    for workload in sorted(a["workloads"].keys() & b["workloads"].keys()):
        ma = a["workloads"][workload]["metrics"]
        mb = b["workloads"][workload]["metrics"]
        for metric in metrics:
            name = metric["name"]
            if name in ma and name in mb:
                rows.append({
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "a": ma[name]["value"],
                    "b": mb[name]["value"],
                    "bound": metric["bound"],
                    **judge(metric, ma[name], mb[name]),
                })
    return rows


def judge(metric: dict, sa: dict, sb: dict) -> dict:
    """Change, spread and label of B's summary against A's."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    a, b = sa["value"], sb["value"]
    if a == 0:
        change = 0.0 if b == a else math.copysign(math.inf, sign * (b - a))
    else:
        change = sign * (b - a) / abs(a)
    spread = max(relative_spread(sa), relative_spread(sb))
    bound = metric["bound"]
    if spread > bound:
        if sign > 0:
            every_pass_better = max(sb["samples"]) < min(sa["samples"])
        else:
            every_pass_better = min(sb["samples"]) > max(sa["samples"])
        label = "better" if every_pass_better else "unresolved"
    elif change > bound:
        label = "worse"
    elif change < -bound:
        label = "better"
    else:
        label = "same"
    return {"change": change, "spread": spread, "label": label}


def relative_spread(summary: dict) -> float:
    """q3 − q1 as a share of the median."""
    width = summary["q3"] - summary["q1"]
    if summary["value"] == 0:
        return 0.0 if width == 0 else math.inf
    return width / abs(summary["value"])


def percent(share: float) -> str:
    return f"{100.0 * share:+.1f}%" if math.isfinite(share) else (
        "+inf" if share > 0 else "-inf"
    )


if __name__ == "__main__":
    sys.exit(main())
