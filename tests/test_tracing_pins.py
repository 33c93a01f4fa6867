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


def test_trace_counters_match_what_the_engine_is_given(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    from gorensum import linalg
    from gorensum.fields import GF
    from gorensum.ideals import Algebra
    from gorensum.oracle import tor_betti
    from gorensum.poly import Ring, parse_poly

    ring = Ring(["x", "y", "z"], GF(32003))
    gens = ["x^2 + y*z", "y^3 + x*z^2", "z^4"]
    real = linalg._reduce_rows
    runs = []
    for _ in range(2):
        seen = {"calls": 0, "rows_in": 0, "cells": 0, "rank": 0}

        def reduce_rows(field, rows, ncols):
            result = real(field, rows, ncols)
            seen["calls"] += 1
            seen["rows_in"] += len(rows)
            seen["cells"] += len(rows) * ncols
            seen["rank"] += len(result[1])
            return result

        monkeypatch.setattr(linalg, "_reduce_rows", reduce_rows)
        with tracing.Tracer() as tracer:
            table = tor_betti(Algebra(ring, [parse_poly(ring, g) for g in gens]))
        monkeypatch.setattr(linalg, "_reduce_rows", real)
        # a complete intersection of degrees 2, 3, 4 is resolved by its
        # Koszul complex
        assert table.entries == {(0, 0): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1,
                                 (2, 5): 1, (2, 6): 1, (2, 7): 1, (3, 9): 1}
        counters = tracing.deterministic_counters(tracer)
        assert seen["calls"] > 0 and seen["rank"] > 0
        assert {key: counters[f"linalg.{key}"] for key in seen} == seen
        runs.append(counters)
    assert runs[0] == runs[1]
