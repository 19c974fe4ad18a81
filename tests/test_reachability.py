"""Every library module and every symbol is reachable from an entry point.

Modules.  Walks the static import graph (module-level and function-local
imports) from the CLI, the scenario pipeline and the detection service.  A
name imported from a package resolves to the module that package re-exports
it from, so a package ``__init__`` reaches nothing by itself: a module that
only a re-export, a test or an example imports is dead code and fails this
test.

Symbols.  Every top-level function and class and every method of a reached
module must be reached too.  A plain AST name-reference pass decides it: a
symbol is reached when a reached body, or the module-level code of a
reached module, names it.  A function or class is named by a bare name or
an attribute (``module.name``); a method or property only by an attribute
(``x.name``) or the string constant of ``getattr``/``hasattr`` -- a bare
name in a body is a local, a parameter or a builtin (``slice(...)``), not
the method.  An attribute read off a name bound by a non-repro import
(``np.tile``) names nothing of the library.  Import statements, type
annotations and package ``__init__`` re-exports name nothing.  A method
needs its class reached as well.  The roots are

* the module-level code of every reached module;
* a function or class registered by a project decorator
  (``@stage_builder``, ``@_register``), since the decorator names it;
* the dunder methods of a reached class, and the stdlib hooks in
  :data:`STDLIB_HOOKS` that ``http.server``/``socketserver`` call by name;
* :data:`ENTRY_POINTS`, the documented library entry points, and the
  public API of :data:`ENTRY_MODULES`, the service's client library;
* the allow-list :func:`outside_callers`: what only code outside
  ``src/`` reaches.  It is built from perfbench's own tables
  (:data:`PERFBENCH_HOOKS`), which ``test_perfbench_hooks_resolve`` walks
  by ``getattr``, so the allow-list cannot drift from what perfbench
  patches and imports.  The test oracles (``tests/rtl_oracle.py``,
  ``tests/measurement_chain.py``) use only reached library API and add
  nothing.

An attribute name matches every method of that name, so the pass
over-approximates reach: what it flags is named by no reached code at all.
Code that nothing reaches is deleted, not kept for tests.
"""

import ast
import functools
import importlib
import inspect
import os
import pathlib
import subprocess
import sys
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import probes  # noqa: E402

ROOTS = (
    "repro.__main__",
    "repro.cli",
    "repro.pipeline.registry",
    "repro.pipeline.stages",
    "repro.pipeline.runner",
    "repro.service.server",
    "repro.service.client",
)

#: Library modules kept only as oracles that tests compare the library
#: against.  None: the oracles live in tests/ (``rtl_oracle``,
#: ``measurement_chain``).
ORACLES: Set[str] = set()

#: Documented entry points for code outside the package: the runner's
#: one-call scenario API (the package docstring's quickstart).
ENTRY_POINTS = (("repro.pipeline.runner", "run_scenario"),)

#: Modules whose whole public API is an entry point: the ``/verify``
#: service's client library (``ServiceClient``, ``result_from``).
ENTRY_MODULES = ("repro.service.client",)

#: Methods the standard library calls by name on our subclasses:
#: ``BaseHTTPRequestHandler`` (``do_GET``/``do_POST``/``log_message``),
#: ``BaseRequestHandler.setup`` and ``ThreadingMixIn.process_request_thread``.
STDLIB_HOOKS = frozenset(
    {"do_GET", "do_POST", "log_message", "setup", "process_request_thread"}
)

#: Decorators that only wrap or describe a definition.  Any other
#: decorator registers what it decorates, which makes it a root.
WRAPPING_DECORATORS = frozenset(
    {
        "abstractmethod",
        "classmethod",
        "contextmanager",
        "dataclass",
        "lru_cache",
        "property",
        "setter",
        "staticmethod",
    }
)

#: Hooks perfbench reaches besides its probe tables, as (module, attribute
#: path): the process pool it times, the runner's chip-cache counters
#: (``probes.cache_counters``) and the methods ``probes.install`` wraps.
_PERFBENCH_EXTRA = (
    ("repro.pipeline.backends", "run_process"),
    ("repro.pipeline.runner", "ExperimentRunner.chip_cache_stats"),
    ("repro.pipeline.runner", "Pipeline.execute"),
    ("repro.pipeline.runner", "stages_for"),
    ("repro.pipeline.artifacts", "ScenarioResult.to_wire"),
    ("repro.service.server", "DetectionService.handle_verify"),
)


def _perfbench_imports() -> Iterator[Tuple[str, str]]:
    """Every ``from repro... import name`` in perfbench's sources.

    These are the module-level cache hooks (``clear_*`` in ``child.py``,
    ``*_cache_stats`` in ``probes.cache_counters``) and the library API
    the workloads drive (``ServiceClient``, ``verify_signature``, ...).
    """
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                for alias in node.names:
                    yield node.module, alias.name


#: Everything perfbench patches or imports from the library.
PERFBENCH_HOOKS: Tuple[Tuple[str, str], ...] = tuple(
    sorted(
        {
            (module, path)
            for module, path, _ in probes.LAYER_PROBES
            + probes.SERVICE_PROBES
            + probes.CLIENT_PROBES
        }
        | set(_PERFBENCH_EXTRA)
        | set(_perfbench_imports())
    )
)


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


# -- symbols ---------------------------------------------------------------------

Symbol = Tuple[str, str]  # (module, qualified name), e.g. ("repro.rtl.netlist", "Netlist.fanout")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_NAMED_BY_STRING = frozenset({"getattr", "hasattr", "setattr"})


def _walk(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` minus type annotations, which construct and call nothing."""
    todo = [node]
    while todo:
        node = todo.pop()
        yield node
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            children = value if isinstance(value, list) else [value]
            todo.extend(child for child in children if isinstance(child, ast.AST))


class _Names(NamedTuple):
    """What a piece of code names: bare names, and attribute names."""

    bare: Set[str]
    attributes: Set[str]

    def __ior__(self, other: "_Names") -> "_Names":
        self.bare.update(other.bare)
        self.attributes.update(other.attributes)
        return self


def _off_foreign(node: ast.expr, foreign: FrozenSet[str]) -> bool:
    """Whether ``node`` is (an attribute chain rooted at) a non-repro import."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in foreign


def _names(nodes: Iterable[ast.AST], aliases: Dict[str, str], foreign: FrozenSet[str]) -> _Names:
    """The names ``nodes`` use (import statements and annotations excluded).

    An attribute read off a name a non-repro ``import`` binds (``np.tile``)
    names nothing of the library.
    """
    found = _Names(set(), set())
    for node in nodes:
        for sub in _walk(node):
            if isinstance(sub, ast.Name):
                found.bare.add(aliases.get(sub.id, sub.id))
            elif isinstance(sub, ast.Attribute):
                if not _off_foreign(sub, foreign):
                    found.attributes.add(sub.attr)
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in _NAMED_BY_STRING
                and len(sub.args) >= 2
                and not _off_foreign(sub.args[0], foreign)
                and isinstance(sub.args[1], ast.Constant)
                and isinstance(sub.args[1].value, str)
            ):
                found.attributes.add(sub.args[1].value)
    return found


def _foreign_imports(tree: ast.AST) -> FrozenSet[str]:
    """Local names bound by the module's ``import``s of non-repro code."""
    bound: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if not alias.name.startswith("repro"):
                    bound.add(alias.asname or alias.name.partition(".")[0])
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if not (node.module or "").startswith("repro"):
                bound.update(alias.asname or alias.name for alias in node.names)
    return frozenset(bound)


def _registered(node: ast.AST) -> bool:
    def name(decorator: ast.expr) -> str:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Attribute):
            return decorator.attr
        return getattr(decorator, "id", "")

    return any(name(d) not in WRAPPING_DECORATORS for d in getattr(node, "decorator_list", ()))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Definition(NamedTuple):
    """One symbol: its name, owning class, and the AST its reach names."""

    name: str
    owner: Optional[Symbol]
    nodes: List[ast.AST]
    aliases: Dict[str, str]
    foreign: FrozenSet[str]
    root: bool


def _definitions(
    sources: Dict[str, str], is_root: Callable[[Symbol], bool]
) -> Tuple[Dict[Symbol, _Definition], _Names]:
    """Every symbol of ``sources`` and the names their module-level code uses."""
    definitions: Dict[Symbol, _Definition] = {}
    module_names = _Names(set(), set())
    for module, source in sources.items():
        tree = ast.parse(source)
        aliases = {
            alias.asname: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.asname
        }
        foreign = _foreign_imports(tree)
        for node in tree.body:
            if isinstance(node, _FUNCTIONS):
                definitions[module, node.name] = _Definition(
                    node.name, None, [node], aliases, foreign,
                    _registered(node) or is_root((module, node.name)),
                )
            elif isinstance(node, ast.ClassDef):
                # The class's own reach: decorators, bases, keywords and the
                # statements of its body other than methods.
                shell = [*node.decorator_list, *node.bases, *node.keywords]
                shell += [item for item in node.body if not isinstance(item, _FUNCTIONS)]
                definitions[module, node.name] = _Definition(
                    node.name, None, shell, aliases, foreign,
                    _registered(node) or is_root((module, node.name)),
                )
                for item in node.body:
                    if isinstance(item, _FUNCTIONS):
                        qualname = f"{node.name}.{item.name}"
                        definitions[module, qualname] = _Definition(
                            item.name, (module, node.name), [item], aliases, foreign,
                            _is_dunder(item.name)
                            or item.name in STDLIB_HOOKS
                            or _registered(item)
                            or is_root((module, qualname)),
                        )
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                module_names |= _names([node], aliases, foreign)
    return definitions, module_names


def unreached_symbols(
    sources: Dict[str, str], is_root: Callable[[Symbol], bool]
) -> Set[Symbol]:
    """The symbols of ``sources`` that no root reaches by name.

    A top-level function or class is reached by its bare name or as an
    attribute (``module.name``); a method or property only as an attribute
    (``x.name``) or a ``getattr``-family string, since a bare name in a
    body is a local, a parameter or a builtin, never the method.
    """
    definitions, referenced = _definitions(sources, is_root)
    reached: Set[Symbol] = set()
    changed = True
    while changed:
        changed = False
        for symbol, definition in definitions.items():
            if symbol in reached:
                continue
            if definition.owner is not None and definition.owner not in reached:
                continue
            named = definition.name in referenced.attributes or (
                definition.owner is None and definition.name in referenced.bare
            )
            if definition.root or named:
                reached.add(symbol)
                referenced |= _names(definition.nodes, definition.aliases, definition.foreign)
                changed = True
    return set(definitions) - reached


def _defining_symbol(module: str, path: str) -> Optional[Symbol]:
    """Where ``module.path`` is defined: (module, qualname), or None for data."""
    target = importlib.import_module(module)
    for part in path.split("."):
        target = inspect.getattr_static(target, part)
    if isinstance(target, (staticmethod, classmethod)):
        target = target.__func__
    if isinstance(target, property):
        target = target.fget
    if not (inspect.isfunction(target) or inspect.isclass(target)):
        return None
    return target.__module__, target.__qualname__


@functools.lru_cache(maxsize=None)
def outside_callers() -> FrozenSet[Symbol]:
    """What only code outside ``src/`` reaches: every perfbench hook that is
    a library function, class or method (resolved lazily, so a hook that
    no longer resolves fails ``test_perfbench_hooks_resolve`` by name)."""
    symbols = (_defining_symbol(module, path) for module, path in PERFBENCH_HOOKS)
    return frozenset(symbol for symbol in symbols if symbol is not None)


def library_sources() -> Dict[str, str]:
    return {module: _source(module).read_text() for module in reachable() & library_modules()}


def _is_root(symbol: Symbol) -> bool:
    module, qualname = symbol
    public = not any(part.startswith("_") for part in qualname.split("."))
    return (
        symbol in ENTRY_POINTS
        or symbol in outside_callers()
        or (module in ENTRY_MODULES and public)
    )


def test_every_library_module_is_reached_from_an_entry_point():
    unreached = library_modules() - reachable() - ORACLES
    assert not unreached, f"modules no entry point imports: {sorted(unreached)}"


def test_every_symbol_is_reached_from_an_entry_point():
    unreached = unreached_symbols(library_sources(), _is_root)
    flagged = sorted(f"{module}:{qualname}" for module, qualname in unreached)
    assert not flagged, f"symbols no entry point names: {flagged}"


def test_an_uncalled_public_function_is_flagged():
    sources = library_sources()
    sources["repro.rtl.netlist"] += "\n\ndef orphan_helper():\n    return 1\n"
    sources["repro.soc.chip"] += "\n\nclass Orphan:\n    def used(self):\n        return 2\n"
    assert unreached_symbols(sources, _is_root) == {
        ("repro.rtl.netlist", "orphan_helper"),
        ("repro.soc.chip", "Orphan"),
        ("repro.soc.chip", "Orphan.used"),
    }


def test_a_method_named_like_a_builtin_or_a_local_is_flagged():
    # analysis/masking.py calls the builtin ``slice(...)`` and
    # AcquisitionCampaign.per_cycle_noise_sigma reads its ``full_scale_v``
    # parameter: bare names, which reach no method or property of that name.
    sources = library_sources()
    sources["repro.rtl.activity"] += (
        "\n\nclass Seeded:\n"
        "    def slice(self):\n        pass\n"
        "    @property\n    def full_scale_v(self):\n        return 0.0\n"
        "\n\nSEEDED = Seeded()\n"
    )
    assert unreached_symbols(sources, _is_root) == {
        ("repro.rtl.activity", "Seeded.slice"),
        ("repro.rtl.activity", "Seeded.full_scale_v"),
    }


def test_an_attribute_of_a_foreign_import_names_no_library_symbol():
    # ``np.zeros(...)`` across the library names numpy's function, not a
    # library method or function called ``zeros``.
    sources = library_sources()
    sources["repro.rtl.activity"] += (
        "\n\nclass Seeded:\n"
        "    def zeros(self):\n        pass\n"
        "\n\ndef zeros():\n    pass\n"
        "\n\nSEEDED = Seeded()\n"
    )
    assert unreached_symbols(sources, _is_root) == {
        ("repro.rtl.activity", "Seeded.zeros"),
        ("repro.rtl.activity", "zeros"),
    }


def test_an_unnamed_method_of_a_reached_class_is_flagged():
    source = (
        "class Live:\n"
        "    def __init__(self):\n        self.helper()\n"
        "    def helper(self):\n        pass\n"
        "    def orphan(self):\n        pass\n"
        "Live()\n"
    )
    assert unreached_symbols({"m": source}, lambda symbol: False) == {("m", "Live.orphan")}


def test_allow_list_entries_exist():
    # Every entry names a function, class, method or module the library has.
    definitions, _ = _definitions(library_sources(), lambda symbol: False)
    assert outside_callers() <= set(definitions)
    assert set(ENTRY_POINTS) <= set(definitions)
    assert set(ENTRY_MODULES) <= library_modules()


def test_perfbench_hooks_resolve():
    # perfbench patches and imports these by name; walk each with getattr,
    # without patching, so a library rename fails here and not in a
    # benchmark run.
    assert len(PERFBENCH_HOOKS) > 20
    for module, path in PERFBENCH_HOOKS:
        target = importlib.import_module(module)
        for part in path.split("."):
            target = getattr(target, part)


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


def test_import_leaves_networkx_out():
    # The netlist keeps its own adjacency: importing the package and its
    # pipeline loads no graph library.  The sweep backends load with the
    # first run_many, so the import starts no multiprocessing machinery
    # either.
    code = (
        "import sys, repro, repro.pipeline\n"
        "assert 'networkx' not in sys.modules\n"
        "lazy = ('repro.pipeline.backends', 'multiprocessing')\n"
        "loaded = [name for name in lazy if name in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
