"""The benchmark's tracer wraps program functions by dotted name
(``perfbench/trace.py``).  A renamed or deleted function would break only
traced benchmark runs, so this test enters and exits the tracer once and
checks that every name resolves and every original comes back."""

import sys
from pathlib import Path

import ecsforge.cli  # noqa: F401  -- imports every module the tracer wraps

ROOT = Path(__file__).resolve().parent.parent


def _bindings() -> dict:
    """Every attribute of every ecsforge module and of their classes, by
    identity, so that any attribute left wrapped shows up as a change."""
    found = {}
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("ecsforge"):
            continue
        for attr, value in vars(module).items():
            found[(module_name, attr)] = id(value)
            if isinstance(value, type):
                for method, fn in vars(value).items():
                    found[(module_name, attr, method)] = id(fn)
    return found


def test_every_traced_name_resolves_and_is_restored(monkeypatch):
    # the benchmark's own runner puts the repository root on sys.path too
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.trace import COUNT_METRICS, SPAN_METRICS, Tracer

    names = {
        name for table in (SPAN_METRICS, COUNT_METRICS) for group in table.values() for name in group
    }
    missing = []
    for dotted in sorted(names):
        module_name, *owners, attr = dotted.split(".")
        owner = sys.modules.get(f"ecsforge.{module_name}")
        for part in owners:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            missing.append(dotted)
    assert missing == []

    before = _bindings()
    with Tracer():
        assert _bindings() != before
    assert _bindings() == before
