"""The repro-lint rule set: the checks that have caught real bugs here.

========== =====================================================================
CACHE001   cache-serving compute callables must freeze (``writeable=False``)
           the arrays they hand to a shared cache, and nothing may re-thaw them
EXC001     ``pipeline/`` and ``service/`` must never catch the
           ``BaseException``-derived control-flow exceptions
           (``CellTimeout``/``SweepInterrupted``) by accident
CONC001    lock discipline: an attribute guarded by a ``Lock``/``RLock``
           in *any* method must be accessed under that lock in *every*
           method/function of the same class (or module, for globals);
           flags the off-lock read and read-modify-write
CONC002    fork-after-thread: no ``os.fork`` / ``Process(...)`` start in
           code reachable from a module that starts threads, outside the
           sanctioned supervisor (``pipeline/backends.py``)
CONC003    thread-shared caches must be the locking ``caching.LRUCache``:
           no bare-dict get-or-create memoization in ``service/``,
           ``pipeline/`` or ``caching.py``
DEAD001    stale suppression: an ``allow[ID]`` pragma whose target line no
           longer triggers ID is itself a violation -- the suppression
           inventory must stay live
========== =====================================================================

CACHE001 and EXC001 visit one module at a time; CONC001--003 are
:class:`~repro.lint.project.ProjectRule` subclasses over the shared
symbol table and call graph; DEAD001 is a post-pass the engine runs once
per module after every other rule reported.  The rules are pure AST
analyses -- no imports of the linted code -- so the linter runs on any
checkout, broken or not.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import Finding, LintModule, Rule
from repro.lint.project import (
    MODULE_BODY,
    AttrAccess,
    LintProject,
    ModuleSummary,
    ProjectRule,
    dotted_name,
)

__all__ = [
    "ALL_RULES",
    "RULE_INDEX",
    "CacheFreezeRule",
    "ExceptionDisciplineRule",
    "ForkAfterThreadRule",
    "LockDisciplineRule",
    "SharedCacheRule",
    "StalePragmaRule",
]

Violations = List[Tuple[int, str]]
ProjectViolations = List[Tuple[str, int, str]]


# -- CACHE001 --------------------------------------------------------------------


def _assigned_writeable(node: ast.Assign) -> Optional[bool]:
    """The constant of ``x.flags.writeable = <bool>``, if that's what it is."""
    if not (isinstance(node.value, ast.Constant) and isinstance(node.value.value, bool)):
        return None
    if any(
        isinstance(target, ast.Attribute)
        and target.attr == "writeable"
        and isinstance(target.value, ast.Attribute)
        and target.value.attr == "flags"
        for target in node.targets
    ):
        return node.value.value
    return None


def _setflags_write(node: ast.Call) -> Optional[bool]:
    """The ``write=`` constant of a ``.setflags(...)`` call, if that's what it is."""
    if not (isinstance(node.func, ast.Attribute) and node.func.attr == "setflags"):
        return None
    for keyword in node.keywords:
        if keyword.arg == "write" and isinstance(keyword.value, ast.Constant):
            return bool(keyword.value.value)
    return None


def _function_freezes_directly(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and _assigned_writeable(node) is False:
            return True
        if isinstance(node, ast.Call) and _setflags_write(node) is False:
            return True
    return False


def _called_local_names(func: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names.add(node.func.id)
    return names


class CacheFreezeRule(Rule):
    rule_id = "CACHE001"
    title = "cache-served arrays must be frozen"
    rationale = (
        "Shared caches (LRUCache.get_or_compute) hand the same array to "
        "every caller; a compute callable that does not set "
        "writeable=False lets one caller silently corrupt every other "
        "caller's data -- the class of bug the template cache is designed "
        "against.  Re-marking a served array writeable is equally banned."
    )

    def check(self, module: LintModule) -> Violations:
        found: Violations = []
        # All named function defs in the module, any nesting level: the
        # compute callables passed to get_or_compute are typically nested
        # closures over the cache key's inputs.
        functions: Dict[str, ast.AST] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[node.name] = node
        # Fixpoint: a function freezes if it does so directly or delegates
        # to a local function that freezes (one common idiom: a shared
        # ``_frozen_copy`` helper).
        freezers = {
            name for name, func in functions.items() if _function_freezes_directly(func)
        }
        changed = True
        while changed:
            changed = False
            for name, func in functions.items():
                if name in freezers:
                    continue
                if _called_local_names(func) & freezers:
                    freezers.add(name)
                    changed = True

        def compute_violation(call: ast.Call, compute: ast.AST) -> Optional[str]:
            if isinstance(compute, ast.Lambda):
                if isinstance(compute.body, ast.Call) and isinstance(
                    compute.body.func, ast.Name
                ):
                    callee = compute.body.func.id
                    if callee in freezers:
                        return None
                    return (
                        f"compute lambda delegates to {callee}(), which never "
                        "marks its result writeable=False before it is cached"
                    )
                return (
                    "compute lambda passed to a cache does not produce a "
                    "frozen (writeable=False) value"
                )
            if isinstance(compute, ast.Name):
                if compute.id in freezers:
                    return None
                return (
                    f"compute callable {compute.id}() never marks its result "
                    "writeable=False before it is cached"
                )
            return (
                "cannot verify the compute callable freezes "
                "(writeable=False) the value it hands to the cache"
            )

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            write = _setflags_write(node)
            if write is True:
                found.append(
                    (
                        node.lineno,
                        "setflags(write=True) re-thaws an array; cache-served "
                        "arrays must stay read-only",
                    )
                )
                continue
            if not (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "get_or_compute"
            ):
                continue
            compute: Optional[ast.AST] = None
            if len(node.args) >= 2:
                compute = node.args[1]
            else:
                for keyword in node.keywords:
                    if keyword.arg == "compute":
                        compute = keyword.value
            if compute is None:
                continue
            problem = compute_violation(node, compute)
            if problem is not None:
                found.append((node.lineno, problem))
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and _assigned_writeable(node) is True:
                found.append(
                    (
                        node.lineno,
                        "flags.writeable = True re-thaws an array; "
                        "cache-served arrays must stay read-only",
                    )
                )
        return found


# -- EXC001 ----------------------------------------------------------------------

#: The BaseException-derived control-flow exceptions of the supervision
#: layer.  A handler naming one of these proves the author thought about
#: interrupt/timeout flow, which is what exempts a sibling
#: ``except Exception``.
_CONTROL_FLOW_NAMES = {"CellTimeout", "SweepInterrupted", "KeyboardInterrupt"}


def _exception_names(handler_type: Optional[ast.AST]) -> Set[str]:
    if handler_type is None:
        return set()
    nodes: Sequence[ast.AST]
    if isinstance(handler_type, ast.Tuple):
        nodes = handler_type.elts
    else:
        nodes = [handler_type]
    names: Set[str] = set()
    for node in nodes:
        dotted = dotted_name(node)
        if dotted is not None:
            names.add(dotted.split(".")[-1])
        else:
            names.add("<dynamic>")
    return names


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for node in ast.walk(handler)
    )


#: Module-key prefixes EXC001 polices.  ``service/`` request handlers
#: wrap everything in ``except Exception`` to produce 500 responses --
#: exactly the construct that would silently eat a sweep interrupt.
_EXC_PREFIXES = ("pipeline/", "service/")


class ExceptionDisciplineRule(Rule):
    rule_id = "EXC001"
    title = "pipeline/ and service/ must not swallow control-flow exceptions"
    rationale = (
        "CellTimeout and SweepInterrupted derive from BaseException "
        "precisely so except Exception cannot eat them; a bare except or "
        "except BaseException re-opens that hole, and a broad "
        "except Exception hides the failure taxonomy unless the handler "
        "re-raises or a sibling handler names the control-flow exceptions "
        "explicitly."
    )

    def applies_to(self, module: LintModule) -> bool:
        return module.module_key.startswith(_EXC_PREFIXES)

    def check(self, module: LintModule) -> Violations:
        found: Violations = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Try):
                continue
            try_names: Set[str] = set()
            for handler in node.handlers:
                try_names |= _exception_names(handler.type)
            control_flow_handled = bool(try_names & _CONTROL_FLOW_NAMES)
            for handler in node.handlers:
                names = _exception_names(handler.type)
                if handler.type is None:
                    found.append(
                        (
                            handler.lineno,
                            "bare except swallows the BaseException-derived "
                            "CellTimeout/SweepInterrupted control flow",
                        )
                    )
                    continue
                if "BaseException" in names:
                    found.append(
                        (
                            handler.lineno,
                            "except BaseException swallows the "
                            "CellTimeout/SweepInterrupted control flow; never "
                            "catch BaseException",
                        )
                    )
                    continue
                if "Exception" in names and not (
                    _reraises(handler) or control_flow_handled
                ):
                    found.append(
                        (
                            handler.lineno,
                            f"broad except Exception in {module.module_key} "
                            "without a re-raise or an explicit sibling "
                            "CellTimeout/SweepInterrupted handler; narrow the "
                            "catch or name the control flow",
                        )
                    )
        return found


# -- CONC001 ---------------------------------------------------------------------


class LockDisciplineRule(ProjectRule):
    rule_id = "CONC001"
    title = "lock-guarded state must be accessed under its lock everywhere"
    rationale = (
        "An attribute taken under a Lock/RLock in one method is shared "
        "mutable state; touching it bare in another method is a data race "
        "the interpreter will not flag and the thread backend will hit."
    )

    def check_project(self, project: LintProject) -> ProjectViolations:
        found: ProjectViolations = []
        for summary in project.modules.values():
            for class_summary in summary.classes.values():
                found.extend(
                    self._check_scope(
                        summary.logical_path,
                        class_summary.accesses,
                        lock_names=set(class_summary.lock_attrs),
                        owner=class_summary.name,
                        attr_fmt="self.{attr}",
                        lock_fmt="self.{lock}",
                    )
                )
            found.extend(
                self._check_scope(
                    summary.logical_path,
                    summary.global_accesses,
                    lock_names=set(summary.global_locks),
                    owner=summary.module_key or summary.logical_path,
                    attr_fmt="{attr}",
                    lock_fmt="{lock}",
                )
            )
        return found

    def _check_scope(
        self,
        path: str,
        accesses: Sequence[AttrAccess],
        lock_names: Set[str],
        owner: str,
        attr_fmt: str,
        lock_fmt: str,
    ) -> ProjectViolations:
        # Attributes mutated outside __init__ (module bodies count as
        # init for globals): only those are shared *state*; attributes
        # assigned once at construction and read thereafter are config.
        mutable: Set[str] = set()
        guards: Dict[str, Set[str]] = {}
        for access in accesses:
            if access.attr in lock_names:
                continue
            if (
                access.mode in ("write", "rmw")
                and not access.in_init
                and access.function != MODULE_BODY
            ):
                mutable.add(access.attr)
            if access.locks:
                guards.setdefault(access.attr, set()).update(access.locks)
        found: ProjectViolations = []
        for access in accesses:
            if access.attr in lock_names or access.attr not in mutable:
                continue
            guarding = guards.get(access.attr)
            if not guarding:
                continue
            if access.locks or access.in_init or access.function == MODULE_BODY:
                continue
            lock_name = lock_fmt.format(lock=sorted(guarding)[0])
            attr_name = attr_fmt.format(attr=access.attr)
            verb = "read" if access.mode == "read" else "read-modify-write of"
            where = (
                access.function
                if "." in access.function
                else f"{owner}.{access.function}"
            )
            found.append(
                (
                    path,
                    access.line,
                    f"off-lock {verb} {attr_name} in {where}"
                    f"; it is guarded by {lock_name} elsewhere -- every "
                    "access must hold that lock",
                )
            )
        return found


# -- CONC002 ---------------------------------------------------------------------

#: The supervised worker pool: the one module allowed to spawn processes.
_SANCTIONED_FORK_MODULE = "pipeline/backends.py"


class ForkAfterThreadRule(ProjectRule):
    rule_id = "CONC002"
    title = "no fork/Process start reachable from thread-starting code"
    rationale = (
        "fork() only clones the calling thread: locks held by other "
        "threads stay locked forever in the child. Process spawning must "
        "stay inside the supervised pool (pipeline/backends.py), which "
        "owns the fork context and crash recovery."
    )

    def check_project(self, project: LintProject) -> ProjectViolations:
        thread_reached = project.thread_rooted()
        thread_modules = sorted(
            key for key, summary in project.modules.items() if summary.starts_threads
        )
        found: ProjectViolations = []
        for key, summary in project.modules.items():
            if key == _SANCTIONED_FORK_MODULE:
                continue
            for qualname, function in summary.functions.items():
                if not function.fork_calls:
                    continue
                fid = project.function_id(key, qualname)
                hazardous = summary.starts_threads or fid in thread_reached
                if not hazardous:
                    continue
                witness = key if summary.starts_threads else (
                    thread_modules[0] if thread_modules else "?"
                )
                for line, api in function.fork_calls:
                    found.append(
                        (
                            summary.logical_path,
                            line,
                            f"{api} in {qualname} is reachable from "
                            f"thread-starting module {witness}; forking "
                            "after threads exist deadlocks inherited locks "
                            "-- spawn through the supervised pool in "
                            f"{_SANCTIONED_FORK_MODULE}",
                        )
                    )
        return found


# -- CONC003 ---------------------------------------------------------------------

#: Modules whose shared mappings must be the locking LRUCache.
_CACHE_SCOPES = ("service/", "pipeline/")
_CACHE_MODULES = ("caching.py",)

#: The sanctioned implementation itself (class, module).
_SANCTIONED_CACHE = ("LRUCache", "caching.py")


class SharedCacheRule(ProjectRule):
    rule_id = "CONC003"
    title = "thread-shared caches must be caching.LRUCache"
    rationale = (
        "A bare-dict get-or-create in threaded modules is an unbounded, "
        "racy cache: check-then-insert interleaves, and nothing evicts. "
        "caching.LRUCache is locked, bounded and first-insert-wins."
    )

    def _in_scope(self, summary: ModuleSummary) -> bool:
        key = summary.module_key
        return key.startswith(_CACHE_SCOPES) or key in _CACHE_MODULES

    def check_project(self, project: LintProject) -> ProjectViolations:
        found: ProjectViolations = []
        for key, summary in project.modules.items():
            if not self._in_scope(summary):
                continue
            # group the ops of one mapping within one function
            grouped: Dict[Tuple[str, str, str], List] = {}
            for op in summary.cache_ops:
                if (op.scope, key) == _SANCTIONED_CACHE:
                    continue
                grouped.setdefault((op.scope, op.target, op.function), []).append(op)
            for (scope, target, function), ops in sorted(grouped.items()):
                kinds = {op.op for op in ops}
                if "guard" not in kinds or "store" not in kinds:
                    continue
                store_line = min(op.line for op in ops if op.op == "store")
                owner = function if "." in function or not scope else (
                    f"{scope}.{function}"
                )
                locked = all(op.locks for op in ops)
                detail = (
                    "even hand-locked dicts are unbounded and easy to touch "
                    "off-lock" if locked else "the check-then-insert is racy"
                )
                found.append(
                    (
                        summary.logical_path,
                        store_line,
                        f"bare-dict get-or-create on '{target}' in {owner}; "
                        f"{detail} -- use caching.LRUCache for thread-shared "
                        "memoization",
                    )
                )
        return found


# -- DEAD001 ---------------------------------------------------------------------


class StalePragmaRule(Rule):
    """Stale ``allow[ID]`` pragmas (run by the engine as a post-pass).

    Not a :class:`ProjectRule`: it needs the per-module pragma table and
    the *other* rules' findings, which only the engine holds.  The engine
    calls :meth:`audit` once per module after module and project rules.
    """

    rule_id = "DEAD001"
    title = "suppression pragmas must suppress a live finding"
    rationale = (
        "A pragma that no longer matches a finding is a silenced alarm "
        "wired to nothing: the violation it excused is gone (or moved), "
        "and the next real one on that line would be invisibly excused."
    )

    def check(self, module) -> List[Tuple[int, str]]:  # type: ignore[override]
        return []

    def audit(
        self,
        pragmas: Dict[Tuple[int, str], str],
        findings: Sequence[Finding],
        active_ids: Set[str],
    ) -> List[Tuple[int, str]]:
        """Stale pragmas given every finding reported for the module."""
        matched = {(finding.line, finding.rule_id) for finding in findings}
        found: List[Tuple[int, str]] = []
        for (line, rule_id), reason in sorted(pragmas.items()):
            if rule_id not in active_ids or rule_id == self.rule_id:
                continue
            if (line, rule_id) in matched:
                continue
            found.append(
                (
                    line,
                    f"stale pragma: allow[{rule_id}] ({reason!r}) suppresses "
                    "nothing on this line; delete it or move it to the "
                    "violation it excuses",
                )
            )
        return found


# -- registry --------------------------------------------------------------------

ALL_RULES: Tuple[Rule, ...] = (
    CacheFreezeRule(),
    ExceptionDisciplineRule(),
    LockDisciplineRule(),
    ForkAfterThreadRule(),
    SharedCacheRule(),
    StalePragmaRule(),
)

RULE_INDEX: Dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}
