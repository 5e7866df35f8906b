"""Layering guard for the serving stack, checked on the source's AST.

Two rules keep the one-server design from decaying back into copies:

* ``repro.serve`` sits below ``repro.cluster``: no module under
  ``repro/serve`` imports ``repro.cluster`` (at any depth, deferred
  imports included);
* the connection path, admission, writes, drain and the HTTP adapter
  are written once, in :class:`repro.serve.server.WireServer`: no
  server built on it — and nothing in the gateway or router modules —
  defines them again.

A third keeps one request budget: the clock a request's deadline is
read on (``time.monotonic``) is read in ``serve/protocol.py`` only,
apart from the named clocks below that are not request budgets.
"""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent

#: Methods that exist once, on WireServer.
CORE_METHODS = (
    "_handle_conn",
    "_dispatch",
    "_admit",
    "_send",
    "_send_error",
    "drain",
    "_handle_http",
)

#: The modules whose servers run on the core.
FRONT_ENDS = ("serve/gateway.py", "cluster/router.py")

#: Reads of ``time.monotonic`` outside ``serve/protocol.py``, by module
#: and scope: clocks that are not request budgets.
OTHER_CLOCKS = {
    ("cluster/health.py", "BackendHealth"): "markup time",
    ("cluster/health.py", "HealthMonitor.observe"): "markup time",
    ("cluster/health.py", "HealthMonitor.set_draining"): "markup time",
    ("cluster/supervisor.py", "LocalFleet._await_ready"): "fleet startup",
    ("cluster/supervisor.py", "LocalFleet.close"): "fleet stop",
    ("serve/server.py", "WireServer.drain"): "drain grace",
}


def parse(relative: str) -> ast.Module:
    return ast.parse((SRC / relative).read_text(encoding="utf-8"))


def imported_modules(tree: ast.Module) -> "list[str]":
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
    return names


def defined_functions(node: ast.AST) -> "set[str]":
    return {
        child.name
        for child in ast.walk(node)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def monotonic_reads(tree: ast.Module) -> "set[str]":
    """Scopes (``Class.method``) that read ``time.monotonic``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "monotonic"
                and isinstance(child.value, ast.Name)
                and child.value.id == "time"
            ) or (isinstance(child, ast.Name) and child.id == "monotonic"):
                found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, ())
    return found


def server_subclasses() -> "list[tuple[str, ast.ClassDef]]":
    """Every class under ``repro`` whose bases name ``WireServer``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "WireServer"
                for base in node.bases
            ):
                found.append((str(path.relative_to(SRC)), node))
    return found


@pytest.mark.parametrize(
    "module",
    sorted(str(p.relative_to(SRC)) for p in (SRC / "serve").rglob("*.py")),
)
def test_serve_never_imports_cluster(module):
    offenders = [
        name
        for name in imported_modules(parse(module))
        if name == "repro.cluster" or name.startswith("repro.cluster.")
    ]
    assert offenders == []


def test_the_core_defines_every_shared_method():
    core = next(
        node
        for node in parse("serve/server.py").body
        if isinstance(node, ast.ClassDef) and node.name == "WireServer"
    )
    assert set(CORE_METHODS) <= defined_functions(core)


def test_both_servers_run_on_the_core():
    assert sorted(node.name for _, node in server_subclasses()) == [
        "RenderGateway",
        "ShardRouter",
    ]


@pytest.mark.parametrize("module", FRONT_ENDS)
def test_front_end_modules_do_not_redefine_the_core(module):
    assert defined_functions(parse(module)) & set(CORE_METHODS) == set()


def test_no_server_subclass_redefines_the_core():
    redefined = {
        f"{module}:{node.name}.{name}"
        for module, node in server_subclasses()
        for name in defined_functions(node) & set(CORE_METHODS)
    }
    assert redefined == set()


def test_only_protocol_reads_the_request_clock():
    reads = {
        (module, scope)
        for package in ("serve", "cluster")
        for path in sorted((SRC / package).rglob("*.py"))
        if (module := str(path.relative_to(SRC))) != "serve/protocol.py"
        for scope in monotonic_reads(parse(module))
    }
    assert reads == set(OTHER_CLOCKS)
