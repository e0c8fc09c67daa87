"""The benchmark tracer wraps functions by name; every name must resolve."""

import importlib
import importlib.util
import os

import pytest

from dafbe._backend import kernels

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", os.path.join(BENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_target_resolves(targets):
    assert targets
    for name, mod_name, cls_name, attr in targets:
        owner = kernels if mod_name == "kernels" else importlib.import_module(mod_name)
        if cls_name is None:
            assert callable(getattr(owner, attr, None)), name
        else:
            # the tracer reads the class dict, so inherited attributes do not count
            raw = getattr(owner, cls_name).__dict__.get(attr)
            assert raw is not None, name
            assert callable(getattr(raw, "__func__", raw)), name
