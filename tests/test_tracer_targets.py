"""Every name the benchmark tracer (perfbench/tracer.py) patches still exists.

The tracer replaces module functions and class methods by name; a refactor
that deletes or moves one would otherwise break `perfbench/run.py --trace 1`
without failing a test. The tracer file is read, never imported as a module,
so no bytecode cache is written next to it.
"""

import importlib
import inspect
import os
import runpy

import pytest

TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)
_TRACER = runpy.run_path(TRACER)
TARGETS = _TRACER["SPANS"] + _TRACER["COUNTS"]


@pytest.mark.parametrize("layer,attr,name", TARGETS, ids=[f"{l}.{a}" for l, a, _ in TARGETS])
def test_tracer_target_resolves(layer, attr, name):
    module = importlib.import_module(f"weylorbits.{layer}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert inspect.isfunction(vars(getattr(module, cls_name)).get(meth)), name
    else:
        target = vars(module).get(attr)
        assert callable(target), name
        if attr in _TRACER["CACHES"]:
            assert callable(getattr(target, "cache_info", None)), name
