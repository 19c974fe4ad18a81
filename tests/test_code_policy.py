"""Source policies of ``src/repro``, checked as plain AST scans.

Each scan maps a module's tree and key (its path under ``src/repro``, e.g.
``service/ledger.py``) to the lines that break its policy.  It runs over the
whole library, which must give nothing, and over its seeded fixture in
``tests/fixtures/policy_seeded/``, which must give a hit.  The scans have no
suppression syntax; their allow-lists are the named constants below.
"""

import ast
import functools
import importlib.util
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures" / "policy_seeded" / "repro"

#: The ``BaseException``-derived control flow of the sweep supervision.  A
#: handler naming one of these exempts a broad ``except Exception`` beside it.
CONTROL_FLOW = {"CellTimeout", "SweepInterrupted", "KeyboardInterrupt"}

#: The one module that may start processes: the supervised worker pool.
PROCESS_MODULE = "pipeline/backends.py"
PROCESS_NAMES = {"multiprocessing", "fork", "forkpty", "Process"}

#: The modules that fill an ``LRUCache``.  ``soc/chip.py`` freezes the
#: arrays it caches (pinned by ``test_chip_background_cache.py``); the
#: runner's chip cache and the service's lock table hold no arrays.
CACHE_SITES = {"soc/chip.py", "pipeline/runner.py", "service/server.py"}


def _self_attr(node):
    """``x`` for a ``self.x`` node, else None."""
    is_self = isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self"
    return node.attr if is_self else None


def _name(node):
    """The last part of a (dotted) name: ``f`` for ``f`` and ``x.f``, else None."""
    return getattr(node, "attr", getattr(node, "id", None))


def _called(node):
    return _name(node.func) if isinstance(node, ast.Call) else None


def exception_scan(tree, key):
    """EXC001: ``pipeline/`` and ``service/`` never swallow the sweep's control
    flow.  No bare ``except`` or ``except BaseException``; ``except
    Exception`` re-raises or shares its ``try`` with a control-flow handler."""
    if not key.startswith(("pipeline/", "service/")):
        return []
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try):
            continue
        names = [{_name(n) for n in getattr(h.type, "elts", [h.type])} for h in node.handlers]
        guarded = any(n & CONTROL_FLOW for n in names)
        for handler, caught in zip(node.handlers, names):
            reraises = any(isinstance(n, ast.Raise) and n.exc is None for n in ast.walk(handler))
            broad = "Exception" in caught and not (reraises or guarded)
            if handler.type is None or "BaseException" in caught or broad:
                found.append(handler.lineno)
    return found


def _touches(node, locks, held, out):
    """Append ``(attr, line, held, stored)`` for each ``self.<attr>`` below;
    a store into ``self.<attr>[key]`` stores ``attr``."""
    if isinstance(node, (ast.With, ast.AsyncWith)) and any(
        _self_attr(item.context_expr) in locks for item in node.items
    ):
        held = True
    attr = _self_attr(node.value if isinstance(node, ast.Subscript) else node)
    if attr is not None and attr not in locks:
        out.append((attr, node.lineno, held, not isinstance(node.ctx, ast.Load)))
    for child in ast.iter_child_nodes(node):
        _touches(child, locks, held, out)


def lock_scan(tree, key):
    """CONC001: per class holding a ``Lock``/``RLock`` in ``self.<lock>``, an
    attribute stored outside ``__init__`` and touched under the lock anywhere
    is touched under a lock in every method but ``__init__``."""
    found = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        locks = {
            _self_attr(target)
            for n in ast.walk(cls)
            if isinstance(n, ast.Assign) and _called(n.value) in ("Lock", "RLock")
            for target in n.targets
        } - {None}
        touches = []
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and method.name != "__init__":
                _touches(method, locks, False, touches)
        shared = {a for a, _, _, stored in touches if stored}
        shared &= {a for a, _, held, _ in touches if held}
        found += [line for a, line, held, _ in touches if a in shared and not held]
    return sorted(set(found))


def fork_scan(tree, key):
    """CONC002: ``multiprocessing`` and ``fork``/``forkpty``/``Process`` appear
    only in the supervised pool: a fork clones only the calling thread."""
    if key == PROCESS_MODULE:
        return []
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if any(name.split(".")[0] in PROCESS_NAMES for name in names):
            found.append(node.lineno)
    return found


def memo_scan(tree, key):
    """CONC003: no bare-dict ``if k not in D: D[k] = ...`` in the threaded
    modules; a shared cache there is the locking, bounded ``LRUCache``."""
    if not key.startswith(("service/", "pipeline/", "caching.py")):
        return []
    found = []
    for node in ast.walk(tree):
        test = getattr(node, "test", None)
        if not (isinstance(node, ast.If) and isinstance(test, ast.Compare)):
            continue
        if not isinstance(test.ops[0], ast.NotIn):
            continue
        slot = (ast.dump(test.comparators[0]), ast.dump(test.left))
        for n in (n for statement in node.body for n in ast.walk(statement)):
            if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store):
                if (ast.dump(n.value), ast.dump(n.slice)) == slot:
                    found.append(n.lineno)
    return found


def cache_scan(tree, key):
    """CACHE001: ``get_or_compute`` is called only at :data:`CACHE_SITES`, and
    nothing re-thaws an array (``writeable = True``, ``setflags(write=True)``)."""
    found = []
    for node in ast.walk(tree):
        if _called(node) == "get_or_compute" and key not in CACHE_SITES:
            found.append(node.lineno)
        elif _called(node) == "setflags" and any(
            k.arg == "write" and getattr(k.value, "value", None) is True for k in node.keywords
        ):
            found.append(node.lineno)
        elif isinstance(node, ast.Assign) and getattr(node.value, "value", None) is True:
            if any(getattr(target, "attr", None) == "writeable" for target in node.targets):
                found.append(node.lineno)
    return found


#: rule -> (scan, its seeded fixture under ``policy_seeded/repro``)
SCANS = {
    "EXC001": (exception_scan, "pipeline/handler_exc001.py"),
    "CONC001": (lock_scan, "counter_conc001.py"),
    "CONC002": (fork_scan, "forker_conc002.py"),
    "CONC003": (memo_scan, "service/memo_conc003.py"),
    "CACHE001": (cache_scan, "serve_cache001.py"),
}


@functools.lru_cache(maxsize=None)
def library():
    return {
        path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text())
        for path in sorted(PACKAGE.rglob("*.py"))
    }


@pytest.mark.parametrize("rule", sorted(SCANS))
def test_library_keeps_the_policy(rule):
    scan, _ = SCANS[rule]
    assert len(library()) > 50  # the whole tree, not a subset
    found = {key: lines for key, tree in library().items() if (lines := scan(tree, key))}
    assert found == {}


@pytest.mark.parametrize("rule", sorted(SCANS))
def test_seeded_fixture_breaks_the_policy(rule):
    scan, fixture = SCANS[rule]
    assert scan(ast.parse((FIXTURES / fixture).read_text()), fixture)


@pytest.mark.skipif(importlib.util.find_spec("mypy") is None, reason="CI installs mypy")
def test_mypy_passes_on_the_typed_core():
    from mypy import api

    stdout, stderr, status = api.run(["--config-file", str(REPO_ROOT / "mypy.ini")])
    assert status == 0, f"mypy failed:\n{stdout}\n{stderr}"
