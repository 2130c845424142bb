"""Generate docs/api.md from the package's public docstrings.

Usage:  python docs/generate_api.py

Walks every ``repro`` submodule, collects public classes/functions and
their signatures plus first docstring paragraphs, and writes a compact
markdown reference.  Re-run after API changes; the output is committed
so the reference is readable without tooling.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import pathlib
import pkgutil
import sys

import repro

OUT = pathlib.Path(__file__).parent / "api.md"


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n\n")[0].replace("\n", " ").strip()


def iter_modules():
    yield "repro", repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        try:
            yield info.name, importlib.import_module(info.name)
        except Exception as error:  # pragma: no cover - defensive
            print(f"skipping {info.name}: {error}", file=sys.stderr)


def public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", "").startswith("repro"):
                yield name, obj


def signature_of(obj) -> str:
    if inspect.isclass(obj) and issubclass(obj, enum.Enum):
        # The stdlib's enum call signature changes between Python
        # versions; the member values are what a caller passes.
        return "(" + " | ".join(repr(member.value) for member in obj) + ")"
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def main() -> None:
    lines = [
        "# API reference",
        "",
        "Generated by `python docs/generate_api.py`; do not edit by hand.",
        "",
        "Guides: [model](model.md) · [algorithms](algorithms.md) · "
        "[benchmarks](benchmarks.md) · [observability](observability.md) "
        "(tracing, trace analytics & diffing, violation attribution, the "
        "benchmark regression gate) · [performance](performance.md) (the "
        "search kernels, their cost caches and reference twins) · "
        "[static analysis](static_analysis.md) (the linter, the typing "
        "gate, and the solution audit).",
        "",
        "**Import-stability policy.** `repro.api` (plus the `repro` "
        "package root) is the stable surface: names exported there keep "
        "working across refactors, with one release of "
        "`DeprecationWarning` before any removal.  Deep modules "
        "(`repro.core.flow`, `repro.detailed`, ...) stay importable for "
        "subclassing and instrumentation but may move without notice; "
        "`repro.core` re-exports nothing, so import the flow classes "
        "from `repro.api`.",
        "",
    ]
    seen = set()
    for module_name, module in iter_modules():
        # A one-dot package that declares __all__ re-exports its
        # submodules' names; anywhere else a name is listed only under
        # the module that defines it.
        reexports = module_name.count(".") == 1 and hasattr(module, "__all__")
        members = [
            (name, obj)
            for name, obj in public_members(module)
            if obj.__module__ == module_name or reexports
        ]
        fresh = [(n, o) for n, o in members if id(o) not in seen]
        if not fresh:
            continue
        lines.append(f"## `{module_name}`")
        summary = first_paragraph(module)
        if summary:
            lines.append("")
            lines.append(summary)
        lines.append("")
        for name, obj in sorted(fresh):
            seen.add(id(obj))
            kind = "class" if inspect.isclass(obj) else "def"
            lines.append(f"- **`{kind} {name}{signature_of(obj)}`** — "
                         f"{first_paragraph(obj) or '(undocumented)'}")
        lines.append("")
    OUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {OUT} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
