"""Every function and method the benchmark tracer rebinds must still exist.

``perfbench/tracer.py`` patches names by string; a refactor that renames or
moves one of them would break ``--trace 1`` runs without failing a test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, layer", _targets())
def test_trace_target_resolves(module_name, attr, layer):
    home = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        # the tracer reads the method from the class body, not from a base class
        assert method in vars(getattr(home, cls_name)), f"{attr} is not defined in its class body"
    else:
        assert callable(getattr(home, attr)), f"{module_name}.{attr} is not callable"
