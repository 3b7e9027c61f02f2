"""The benchmark's per-layer hooks still find their targets.

``perfbench/spans.py`` wraps polarmin functions where their callers look
them up.  A refactor that stops a module from importing a hooked name, or
turns a hooked cached property into something else, silently nulls the
per-layer metric that depends on it; this catches that without running
the benchmark.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


spans = load_spans()


@pytest.mark.parametrize("span", sorted(spans.FUNCTION_HOOKS))
def test_function_hook_sites_bind_the_home_object(span):
    home, attr, sites = spans.FUNCTION_HOOKS[span]
    original = getattr(importlib.import_module(home), attr)
    for site in sites:
        assert getattr(importlib.import_module(site), attr, None) is original, f"{site}.{attr}"


@pytest.mark.parametrize("span", sorted(spans.PROPERTY_HOOKS))
def test_property_hooks_are_cached_properties(span):
    home, cls_name, prop = spans.PROPERTY_HOOKS[span]
    cls = getattr(importlib.import_module(home), cls_name)
    assert isinstance(cls.__dict__.get(prop), functools.cached_property)
