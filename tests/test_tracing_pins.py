"""The benchmark's tracer patches gorensum entry points by name; every name
it pins must exist, and leaving the tracer must restore every one."""

import importlib
from pathlib import Path


def _bindings(modules):
    """Every module-level name and class attribute of the package."""
    out = {}
    for mod in modules:
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for name, member in vars(value).items():
                    out[(mod.__name__, attr, name)] = member
    return out


def test_tracer_patches_and_restores_every_pinned_name(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    modules = tracing._modules()
    before = _bindings(modules)
    pinned = [
        (module, qualname)
        for module, entries in tracing.LAYERS.values()
        for qualname in entries
    ]

    def current(module, qualname):
        if "." in qualname:
            cls, attr = qualname.split(".")
            return vars(getattr(module, cls))[attr]
        return getattr(module, qualname)

    originals = [current(m, q) for m, q in pinned]
    with tracing.Tracer():
        assert all(current(m, q) is not o for (m, q), o in zip(pinned, originals))
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
