"""perfbench's trace wraps subnetpack functions by name: each name must exist.

A traced name that is removed or renamed would otherwise fail only a traced
benchmark run.
"""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def test_every_traced_name_resolves_in_subnetpack():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = []
    for mod_name, attr, *_ in tracing.TRACED:
        obj = importlib.import_module(f"subnetpack.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"subnetpack.{mod_name}.{attr}")
    assert missing == []
