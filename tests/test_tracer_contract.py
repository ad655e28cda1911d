"""The benchmark's tracer (perfbench/tracer.py) must find every function
it patches, so a renamed or inlined traced function fails here and not
only in a traced benchmark run."""

import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    """The tracer module, executed from its source without writing a
    bytecode cache next to it."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_installs_and_removes_every_site():
    tracer = load_tracer()
    with tracer.Tracer():
        assert len(tracer.installed_wrappers()) == len(tracer.SITES)
    assert tracer.installed_wrappers() == []
