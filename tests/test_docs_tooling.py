"""The committed API reference is what the generator produces."""

import importlib.util
import pathlib

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
