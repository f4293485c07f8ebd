"""The benchmark tracer wraps classifier functions by name.

`perfbench/tracer.py` looks each name in ENTRY_POINTS up with getattr
when a traced run starts, so renaming or deleting one of them breaks
`perfbench/run.py --trace 1` without failing any classifier test.  This
loads the tracer by path, without running it, and checks every name.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


def test_tracer_entry_points_resolve():
    missing = []
    for short, names in _entry_points().items():
        module = importlib.import_module(f"arnoldnf.{short}")
        missing += [
            f"{short}.{name}"
            for name in names
            if not callable(getattr(module, name, None))
        ]
    assert not missing, missing
    scalars = importlib.import_module("arnoldnf.scalars")
    assert callable(scalars.AlgebraicScalar.inverted)
