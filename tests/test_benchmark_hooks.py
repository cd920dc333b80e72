"""The benchmark's tracer (`perfbench/tracing.py`) wraps functions it names
by module and attribute path.  Renaming or deleting one breaks
`perfbench/run.py --trace 1`; this test makes such a change fail here too.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, targets in tracing.TARGETS.items():
        for module_name, path in targets:
            owner = importlib.import_module(module_name)
            try:
                for part in path.split("."):
                    owner = vars(owner)[part] if isinstance(owner, type) else getattr(owner, part)
            except (AttributeError, KeyError):
                missing.append(f"{name}: {module_name}.{path}")
    assert missing == []
