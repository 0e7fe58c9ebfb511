"""The telemetry name registry has no rows without a producer."""

import ast
from pathlib import Path

import pytest

from repro.obs import namespaces

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
REGISTRY_FILE = SRC / "obs" / "namespaces.py"


def _string_literals() -> set:
    """Every string constant in ``src/repro`` outside the registry."""
    literals = set()
    for path in SRC.rglob("*.py"):
        if path == REGISTRY_FILE:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    return literals


@pytest.mark.parametrize(
    "registry", ["METRIC_NAMES", "SPAN_NAMES", "EVENT_NAMES"]
)
def test_every_registered_name_has_a_producer(registry):
    orphans = set(getattr(namespaces, registry)) - _string_literals()
    assert not orphans, f"{registry} rows no module produces: {orphans}"
