"""The benchmark's traced entry points must exist in opsys.

``benchmark/tracing.py`` patches opsys functions by name; a refactor that
renames one would otherwise surface only when the benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def test_traced_opsys_entry_points_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmark/ untouched
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [t for t in tracing.TARGETS if t[1].split(".")[0] == "opsys"]
    assert targets
    for name, module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {module_name}.{attr} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), f"{name}: {module_name}.{attr} is not callable"
