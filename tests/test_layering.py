"""The layer order of ``docs/architecture.md``, checked on every import.

The Package map table gives each package under ``src/repro`` a layer: a
number, a span such as ``1–4``, or ``support`` (below layer 1).  A
``repro.X`` import in a module of package ``P`` (deferred imports
included) points upward when ``X``'s lowest layer is above ``P``'s
highest.  Every upward edge must be on :data:`UPWARD_ALLOWLIST`, and
every entry there must still be found, so the list can only shrink.
Every package must have a row.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
ARCHITECTURE = REPO / "docs" / "architecture.md"

#: Known upward edges ``(importer, imported)``, with what they take.
UPWARD_ALLOWLIST = {
    # ProjectionCache, from repro.experiments.cache (ROADMAP item 2).
    ("engine", "experiments"),
    # decode_camera, from repro.serve.protocol, to replay a trace.
    ("trace", "serve"),
}

#: Packages that import ``repro.experiments``, which ROADMAP item 2
#: makes a leaf.  ``serve`` (camera_key) sits above it in the table, so
#: the layer check alone does not see that edge.  May only shrink.
EXPERIMENTS_IMPORTERS = {"engine", "serve"}

_ROW = re.compile(r"^\|(?P<packages>[^|]+)\|(?P<layer>[^|]+)\|")


def layer_table() -> "dict[str, tuple[int, int]]":
    """``{package: (lowest, highest)}`` from the Package map table."""
    text = ARCHITECTURE.read_text(encoding="utf-8")
    section = text.split("## Package map", 1)[1].split("\n\n", 2)[1]
    table = {}
    for line in section.splitlines()[2:]:
        match = _ROW.match(line)
        layer = match["layer"].strip()
        if layer == "support":
            span = (0, 0)
        else:
            low, _, high = layer.partition("–")
            span = (int(low), int(high or low))
        for name in re.findall(r"`repro\.(\w+)`", match["packages"]):
            table[name] = span
    return table


def packages() -> "list[str]":
    return sorted(p.parent.name for p in SRC.glob("*/__init__.py"))


def imported_packages(path: Path) -> "set[str]":
    """The ``repro`` packages a module imports, at any depth."""
    here = ["repro", *path.parent.relative_to(SRC).parts]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = here[: len(here) - node.level + 1] if node.level else []
            module = base + (node.module.split(".") if node.module else [])
            if module == ["repro"]:
                modules = [module + [alias.name] for alias in node.names]
            else:
                modules = [module]
        else:
            continue
        for parts in modules:
            if parts[0] == "repro" and len(parts) > 1:
                found.add(parts[1])
    return found


def package_edges() -> "set[tuple[str, str]]":
    """``(importer, imported)`` between distinct packages."""
    edges = set()
    for package in packages():
        for path in (SRC / package).rglob("*.py"):
            for other in imported_packages(path):
                if other != package and (SRC / other / "__init__.py").exists():
                    edges.add((package, other))
    return edges


def test_every_package_has_a_row():
    missing = sorted(set(packages()) - set(layer_table()))
    assert not missing, f"no Package map row in {ARCHITECTURE.name}: {missing}"


def test_imports_point_down_the_layer_order():
    layers = layer_table()
    upward = {
        (importer, imported)
        for importer, imported in package_edges()
        if layers[imported][0] > layers[importer][1]
    }
    assert upward == UPWARD_ALLOWLIST


def test_experiments_importers_only_shrink():
    importers = {a for a, b in package_edges() if b == "experiments"}
    assert importers == EXPERIMENTS_IMPORTERS
