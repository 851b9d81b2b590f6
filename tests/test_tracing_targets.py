"""Every function the benchmark tracer wraps must exist in brainalign.

``perfbench/tracing.py`` looks each ``(module, function)`` pair up with
``getattr`` when a traced run starts; a renamed or deleted function would
break ``--trace 1`` without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for mod_name, fn_name, _ in tracing.TARGETS:
        module = importlib.import_module(f"brainalign.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"brainalign.{mod_name}.{fn_name}"
