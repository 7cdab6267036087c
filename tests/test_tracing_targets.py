"""The benchmark's tracer patches dprw entry points by name; every name it
lists must resolve, so a rename fails here before it breaks a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, path) for _, module_name, path, _ in module.TARGETS]


@pytest.mark.parametrize("module_name, path", _traced_names(), ids=lambda v: v)
def test_traced_entry_point_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module_name} has no {path}"
        owner = getattr(owner, part)
    assert callable(owner)
