"""The benchmark's traced functions still exist in liestruct.

``perfbench/spans.py`` wraps each ``(module, function)`` of ``TRACED`` by
name when ``run.py --trace 1`` starts a traced pass; a function that was
renamed or moved would stop that pass with an error and fail no other test.
This test only reads ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_pairs() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


TRACED = traced_pairs()


@pytest.mark.parametrize("module,func", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
def test_traced_function_resolves(module, func):
    owner = importlib.import_module(f"liestruct.{module}")
    if "." in func:  # "Class.method" names a classmethod, unwrapped by its __func__
        cls_name, meth = func.split(".")
        assert isinstance(getattr(owner, cls_name).__dict__[meth], classmethod)
    else:
        assert callable(getattr(owner, func))
