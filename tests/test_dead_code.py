"""Every module-level function and class of the package is used: called or
named somewhere else in `src/gorensum`, exported in `gorensum.__all__`, or
pinned by the benchmark's tracer (`perfbench/tracing.LAYERS`).

References are read with `ast`, module by module: a bare name counts in the
module that defines it or imports it with `from .module import name`, and
`module.name` counts where `from . import module` binds the module.  A
definition's references to itself do not count.
"""

import ast
import importlib
from pathlib import Path

import gorensum

SRC = Path(__file__).resolve().parents[1] / "src" / "gorensum"

# Kept alive only by the tracer's pins: the deletion list of ROADMAP item 2,
# step 3, as far as it names module-level definitions.  A benchmark change
# that unpins one deletes it and takes it off this list.
PINNED_ONLY = {
    ("apolarity", "hilbert_from_catalecticants"),
    ("apolarity", "socle_and_thom_to_K"),
    ("ideals", "ideal_slices"),
    ("linalg", "EchelonBasis"),
    ("linalg", "kernel_basis"),
    ("linalg", "row_space_equal"),
    ("linalg", "row_space_intersection"),
    ("linalg", "rref"),
    ("linalg", "solve_particular"),
    ("oracle", "hilbert_function"),
}


def _definitions_and_references(src=SRC):
    """({(module, name): definition node}, set of (module, name) referenced
    outside the named definition), over the modules in src."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    defs = {
        (mod, node.name): node
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    refs = set()
    for mod, tree in trees.items():
        names = {name: (m, name) for (m, name) in defs if m == mod}
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[local] = alias.name
                    else:
                        names[local] = (node.module, alias.name)
        for top in tree.body:
            own = (mod, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id in names:
                    key = names[node.id]
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in modules):
                    key = (modules[node.value.id], node.attr)
                else:
                    continue
                if key != own:
                    refs.add(key)
    return defs, refs


def _pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC.parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    return {
        (module.__name__.rsplit(".", 1)[1], qualname.split(".")[0])
        for module, entries in tracing.LAYERS.values()
        for qualname in entries
    }


def _unreferenced():
    defs, refs = _definitions_and_references()
    exported = set(gorensum.__all__)
    return {key for key in defs if key not in refs and key[1] not in exported}


def test_every_definition_is_used_exported_or_pinned(monkeypatch):
    dead = sorted(_unreferenced() - _pinned(monkeypatch))
    assert not dead, "unused definitions: " + ", ".join(f"{m}.{n}" for m, n in dead)


def test_pinned_only_definitions_are_the_listed_ones(monkeypatch):
    pinned_only = _unreferenced() & _pinned(monkeypatch)
    assert pinned_only == PINNED_ONLY, (
        "kept only by the tracer's pins, now: "
        + ", ".join(f"{m}.{n}" for m, n in sorted(pinned_only))
    )


def test_guard_sees_references_through_each_import_form(tmp_path):
    # calls through `from . import module`, `from .module import name` and
    # the defining module all count; recursion and a bare import do not
    src = tmp_path / "gorensum"
    src.mkdir()
    (src / "a.py").write_text(
        "def used_here():\n    return 1\n\n\n"
        "def caller():\n    return used_here()\n\n\n"
        "def by_module():\n    return 2\n\n\n"
        "def by_name():\n    return 3\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "def imported_only():\n    return 4\n"
    )
    (src / "b.py").write_text(
        "from . import a\nfrom .a import by_name, imported_only  # noqa: F401\n\n\n"
        "def run():\n    return a.by_module() + by_name()\n"
    )
    defs, refs = _definitions_and_references(src)
    unused = {key for key in defs if key not in refs}
    assert unused == {("a", "caller"), ("a", "recursive"), ("a", "imported_only"),
                      ("b", "run")}
