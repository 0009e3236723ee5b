"""The benchmark tracer's targets against the library.

``bench/tracing.py`` wraps library functions by name while a traced
benchmark run (``bench/run.py --trace 1``) is installed.  A renamed or
removed target would only fail there, so this suite checks every
``(owner, attribute)`` it names.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    targets = load_tracing().TARGETS
    assert targets
    missing = [name for name, owner, attr in targets if attr not in vars(owner)]
    assert missing == []
    for name, owner, attr in targets:
        assert callable(getattr(owner, attr)), name
