"""The names the benchmark harness reaches into must exist in the package.

``perfbench/tracing.py`` wraps package functions by module and attribute
path, and ``perfbench/run.py`` records ``_kernels.HAVE_NUMBA``; a rename in
the package would otherwise only surface in the middle of a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("name, target", sorted(_traced().items()))
def test_traced_function_exists(name, target):
    module, path = target
    owner = importlib.import_module(f"fusionframes.{module}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner), name


def test_kernels_report_numba():
    from fusionframes import _kernels

    assert isinstance(_kernels.HAVE_NUMBA, bool)
