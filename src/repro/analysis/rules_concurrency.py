"""The project-wide concurrency & seed-flow rule pack (repro-lint v2).

Five rules over the :class:`~repro.analysis.project.LintProject` symbol
table + call graph, guarding the invariants the concurrent subsystems
(threaded service, supervised fork pool, shared caches) and the future
``backend="thread"`` rely on:

========== =====================================================================
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
RNG002     seed-stream collision: two ``default_rng(...)`` call sites
           reachable in one sweep cell whose seed expressions are
           syntactically identical draw the *same* stream
DEAD001    stale suppression: an ``allow[ID]`` pragma whose target line no
           longer triggers ID (and an expired baseline entry) is itself a
           violation -- the suppression inventory must stay live
========== =====================================================================

CONC001--003 and RNG002 are :class:`ProjectRule` subclasses; DEAD001 is a
post-pass the engine runs once per module after every other rule reported.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import Finding, Rule
from repro.analysis.project import (
    MODULE_BODY,
    AttrAccess,
    LintProject,
    ModuleSummary,
    ProjectRule,
)

__all__ = [
    "ForkAfterThreadRule",
    "LockDisciplineRule",
    "SeedStreamCollisionRule",
    "SharedCacheRule",
    "StalePragmaRule",
]

Violations = List[Tuple[str, int, str]]


# -- CONC001 ---------------------------------------------------------------------


class LockDisciplineRule(ProjectRule):
    rule_id = "CONC001"
    title = "lock-guarded state must be accessed under its lock everywhere"
    rationale = (
        "An attribute taken under a Lock/RLock in one method is shared "
        "mutable state; touching it bare in another method is a data race "
        "the interpreter will not flag and the thread backend will hit."
    )

    def check_project(self, project: LintProject) -> Violations:
        found: Violations = []
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
    ) -> Violations:
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
        found: Violations = []
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

    def check_project(self, project: LintProject) -> Violations:
        thread_reached = project.thread_rooted()
        thread_modules = sorted(
            key for key, summary in project.modules.items() if summary.starts_threads
        )
        found: Violations = []
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

    def check_project(self, project: LintProject) -> Violations:
        found: Violations = []
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


# -- RNG002 ----------------------------------------------------------------------


class SeedStreamCollisionRule(ProjectRule):
    rule_id = "RNG002"
    title = "no identically-seeded default_rng sites in one sweep cell"
    rationale = (
        "Two default_rng(...) sites with the same seed expression, both "
        "reachable while executing one sweep cell, draw the *same* "
        "stream: noise correlates with signal and Monte-Carlo variance "
        "silently halves. Streams must be per-contributor "
        "(SeedSequence.spawn or distinct derivation)."
    )

    #: Call-graph roots: executing one sweep cell starts here.
    root_modules = ("pipeline/stages.py", "pipeline/runner.py")

    def check_project(self, project: LintProject) -> Violations:
        roots: List[str] = []
        for module_key in self.root_modules:
            roots.extend(project.functions_of_module(module_key))
        if not roots:
            return []
        reached = project.reachable_from(roots)
        sites: Dict[str, List[Tuple[str, int, str, str]]] = {}
        for key, summary in project.modules.items():
            for qualname, function in summary.functions.items():
                if project.function_id(key, qualname) not in reached:
                    continue
                for line, seed_src in function.rng_calls:
                    if not seed_src:
                        continue  # unseeded: fresh OS entropy, RNG001's turf
                    sites.setdefault(seed_src, []).append(
                        (summary.logical_path, line, qualname, key)
                    )
        found: Violations = []
        for seed_src, group in sorted(sites.items()):
            distinct = sorted(set(group))
            if len(distinct) < 2:
                continue
            for path, line, qualname, key in distinct:
                # collision partners named by stable module key and
                # qualname -- not the invocation-dependent path, nor line
                # numbers that drift with unrelated edits -- so baseline
                # entries match however the lint was launched
                others = sorted(
                    {
                        f"{o_key}:{o_qualname}"
                        for o_path, o_line, o_qualname, o_key in distinct
                        if (o_path, o_line) != (path, line)
                    }
                )
                found.append(
                    (
                        path,
                        line,
                        f"default_rng({seed_src}) in {qualname} collides with "
                        f"{', '.join(others)} -- identical seed expression "
                        "reachable in one sweep cell yields one shared "
                        "stream; derive per-contributor seeds",
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
