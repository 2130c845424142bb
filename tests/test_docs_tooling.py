"""The committed API reference is what the generator produces."""

import importlib
import importlib.util
import pathlib
import re

DOCS = pathlib.Path(__file__).parent.parent / "docs"


def test_generate_api_runs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "generate_api", DOCS / "generate_api.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "api.md"
    monkeypatch.setattr(module, "OUT", out)
    module.main()
    assert out.read_text() == (DOCS / "api.md").read_text(), (
        "docs/api.md is stale; run `python docs/generate_api.py`"
    )


def test_each_name_is_listed_under_its_own_module():
    """A name under ``## `M``` is defined in ``M`` or in ``M.__all__``."""
    misplaced = []
    module = None
    for line in (DOCS / "api.md").read_text().splitlines():
        heading = re.match(r"## `([\w.]+)`$", line)
        if heading:
            module = importlib.import_module(heading.group(1))
            continue
        entry = re.match(r"- \*\*`(?:class|def) (\w+)", line)
        if entry and module is not None:
            name = entry.group(1)
            obj = getattr(module, name)
            if obj.__module__ != module.__name__ and name not in getattr(
                module, "__all__", ()
            ):
                misplaced.append(f"{module.__name__}.{name}")
    assert misplaced == []
