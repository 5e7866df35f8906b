"""Layering guard for the engine, checked on the source's AST.

The engine sits below the serving stack and the experiment drivers:

* no module under ``repro/engine`` imports ``repro.serve`` or
  ``repro.cluster`` (at any depth, deferred imports included);
* from ``repro.experiments`` it imports only the names on
  :data:`EXPERIMENTS_ALLOWLIST`.  The list may only shrink: every name
  on it must still be imported, so a name the engine stops using has to
  leave the list.
"""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
ENGINE_MODULES = sorted(
    str(p.relative_to(SRC)) for p in (SRC / "engine").rglob("*.py")
)

#: The only names the engine may import from ``repro.experiments``.
EXPERIMENTS_ALLOWLIST = {"ProjectionCache"}


def imports(module: str) -> "list[tuple[str, str | None]]":
    """``(module, name)`` per imported name; ``name`` is ``None`` for a
    plain ``import module``."""
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found += [
                (f"{node.module}.{alias.name}", None)
                if node.module == "repro"
                else (node.module, alias.name)
                for alias in node.names
            ]
    return found


def within(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


@pytest.mark.parametrize("module", ENGINE_MODULES)
def test_engine_never_imports_serve_or_cluster(module):
    offenders = [
        name
        for name, _ in imports(module)
        if within(name, "repro.serve") or within(name, "repro.cluster")
    ]
    assert offenders == []


@pytest.mark.parametrize("module", ENGINE_MODULES)
def test_engine_imports_only_allowlisted_experiment_names(module):
    offenders = [
        (name, imported)
        for name, imported in imports(module)
        if within(name, "repro.experiments")
        and imported not in EXPERIMENTS_ALLOWLIST
    ]
    assert offenders == []


def test_the_allowlist_only_names_what_is_imported():
    used = {
        imported
        for module in ENGINE_MODULES
        for name, imported in imports(module)
        if within(name, "repro.experiments")
    }
    assert used == EXPERIMENTS_ALLOWLIST
