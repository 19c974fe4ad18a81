"""Every library module is reachable from an entry point.

Walks the static import graph (module-level and function-local imports)
from the CLI, the scenario pipeline, the detection service and the linter's
``__main__``.  A name imported from a package resolves to the module that
package re-exports it from, so a package ``__init__`` reaches nothing by
itself: a module that only a re-export, a test or an example imports is
dead code and fails this test.
"""

import ast
import os
import pathlib
import subprocess
import sys
from typing import Dict, Iterator, Optional, Set, Tuple

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

ROOTS = (
    "repro.__main__",
    "repro.cli",
    "repro.pipeline.registry",
    "repro.pipeline.stages",
    "repro.pipeline.runner",
    "repro.service.server",
    "repro.service.client",
    "repro.analysis.__main__",
)

#: Modules kept only as oracles that tests compare the library against.
ORACLES = {"repro.rtl.simulator"}


def _base(name: str) -> pathlib.Path:
    return SRC.joinpath(*name.split("."))


def _is_package(name: str) -> bool:
    return (_base(name) / "__init__.py").is_file()


def _is_module(name: str) -> bool:
    return _base(name).with_suffix(".py").is_file()


def _source(name: str) -> pathlib.Path:
    return _base(name) / "__init__.py" if _is_package(name) else _base(name).with_suffix(".py")


def _absolute(importer: str, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module or ""
    package = importer if _is_package(importer) else importer.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _reexports(package: str) -> Dict[str, Tuple[str, str]]:
    """Names a package ``__init__`` binds by import: alias -> (module, name)."""
    bindings = {}
    for node in ast.parse(_source(package).read_text()).body:
        if isinstance(node, ast.ImportFrom):
            origin = _absolute(package, node)
            for alias in node.names:
                bindings[alias.asname or alias.name] = (origin, alias.name)
    return bindings


def _resolve(module: str, name: str) -> Optional[str]:
    """The repro module that defines ``name`` as imported from ``module``."""
    qualified = f"{module}.{name}"
    if _is_module(qualified) or _is_package(qualified):
        return qualified
    if _is_package(module):
        origin = _reexports(module).get(name)
        return _resolve(*origin) if origin else module
    return module if _is_module(module) else None


def _imports(module: str) -> Iterator[str]:
    for node in ast.walk(ast.parse(_source(module).read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            origin = _absolute(module, node)
            for alias in node.names:
                target = _resolve(origin, alias.name)
                if target is not None:
                    yield target


def reachable() -> Set[str]:
    seen: Set[str] = set()
    todo = list(ROOTS)
    while todo:
        module = todo.pop()
        if module in seen or not module.startswith("repro"):
            continue
        seen.add(module)
        if _is_module(module):  # a package's own re-exports are not followed
            todo.extend(_imports(module))
    return seen


def library_modules() -> Set[str]:
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }


def test_every_library_module_is_reached_from_an_entry_point():
    unreached = library_modules() - reachable() - ORACLES
    assert not unreached, f"modules no entry point imports: {sorted(unreached)}"


def test_oracles_are_still_present_and_unreached():
    assert ORACLES <= library_modules()
    assert not ORACLES & reachable()


def test_package_reexports_are_not_followed():
    # `from repro.detection import BatchCPADetector` reaches the defining
    # module, not every module the package's __init__ imports.
    assert _resolve("repro.detection", "BatchCPADetector") == "repro.detection.batch"
    assert _resolve("repro.pipeline", "faults") == "repro.pipeline.faults"


def test_import_leaves_scipy_out():
    # scipy is a test-only dependency (the measurement-chain oracle): the
    # library must not pay its import time.
    code = "import sys, repro; assert 'scipy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
