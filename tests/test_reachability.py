"""Nothing in ``src/repro`` that nothing in ``src/repro`` reaches, unless listed.

A top-level function or class, or a method of a top-level class (dunders
excluded), is *unreached* when its name appears nowhere in ``src/repro``
outside its own body.  A method that overrides one of an ``asyncio``
base class (a protocol callback) is reached: the event loop calls it.  A name counts as used when it appears as an
``ast.Name``, an attribute, an import alias or an identifier-shaped
string constant (``getattr`` targets, ``__all__`` entries).  Uses inside
``__init__.py`` files do not count: a re-export alone reaches nothing.
The scan is name-based, so a dead method that shares its name with a
live one is not found; what it finds is a lower bound.

Every unreached definition must be in ``reachability_allowlist.txt``
with a category and a one-line reason:

* ``b`` — public API, named in an ``__all__`` and in a doc, and kept;
* ``c`` — an oracle the tests compare a faster path against;
* ``d`` — a seam that only tests or benchmarks use;
* ``pending`` — not yet decided (wire it in, move it or delete it).

The test fails on a new unreached definition, and on an allowlist entry
that is now reached or no longer exists, so the list can only shrink.
"""

import ast
import asyncio
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
ALLOWLIST = Path(__file__).with_name("reachability_allowlist.txt")
CATEGORIES = {"b", "c", "d", "pending"}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _asyncio_methods(node: ast.ClassDef) -> "set[str]":
    """Names defined by the class's ``asyncio.…`` bases."""
    names: "set[str]" = set()
    for base in node.bases:
        first, *rest = ast.unparse(base).split(".")
        if first == "asyncio":
            found = asyncio
            for part in rest:
                found = getattr(found, part)
            names.update(dir(found))
    return names


def _definitions(tree: ast.Module):
    """``(qualified name, node)`` of top-level defs and their methods,
    less the callbacks the event loop calls."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                callbacks = _asyncio_methods(node)
                for item in node.body:
                    if isinstance(item, _DEFS) and item.name not in callbacks:
                        yield f"{node.name}.{item.name}", item


def _used_names(tree: ast.Module):
    """``(name, line)`` for every use of a name in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            yield node.value, node.lineno


def unreached() -> "set[str]":
    """``"module/path.py:Qual.name"`` of every unreached definition."""
    trees = {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    }
    uses: "dict[str, list[tuple[str, int]]]" = {}
    for path, tree in trees.items():
        if not path.endswith("__init__.py"):
            for name, line in _used_names(tree):
                uses.setdefault(name, []).append((path, line))
    found = set()
    for path, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                where != path or line not in own
                for where, line in uses.get(name, [])
            ):
                found.add(f"{path}:{qualname}")
    return found


def _allowlist() -> "dict[str, tuple[str, str]]":
    entries = {}
    for raw in ALLOWLIST.read_text().splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        key, category, reason = (part.strip() for part in raw.split("|", 2))
        assert key not in entries, f"{key} listed twice"
        entries[key] = (category, reason)
    return entries


def test_allowlist_entries_are_well_formed():
    for key, (category, reason) in _allowlist().items():
        assert category in CATEGORIES, f"{key}: unknown category {category!r}"
        assert reason, f"{key}: no reason given"


def test_no_new_unreached_definition():
    new = sorted(unreached() - set(_allowlist()))
    assert not new, (
        "definitions nothing in src/repro reaches (wire them in, delete "
        f"them, or list them with a category and reason): {new}"
    )


def test_allowlist_only_shrinks():
    stale = sorted(set(_allowlist()) - unreached())
    assert not stale, (
        "allowlisted definitions that are now reached or gone; drop them "
        f"from {ALLOWLIST.name}: {stale}"
    )

