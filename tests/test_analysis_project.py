"""repro-lint: symbol table / call graph units + the project rules.

Per the house style each rule gets a violating fixture (asserting rule id
*and* line), a clean fixture, and a pragma'd fixture; the project layer
itself (summaries, import-aware resolution, reachability) is unit-tested
first since every rule stands on it.
"""

import textwrap
from pathlib import Path

import pytest
from lint_helpers import lint_source

from repro.lint.engine import (
    LintModule,
    lint_sources,
    unsuppressed,
)
from repro.lint.project import (
    MODULE_BODY,
    LintProject,
    ModuleSummary,
    summarize_module,
)
from repro.lint.rules import RULE_INDEX


def snippet(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


def summarize(text: str, path: str) -> ModuleSummary:
    return summarize_module(LintModule.from_source(snippet(text), path))


def violations(findings, rule_id: str):
    return [f for f in unsuppressed(findings) if f.rule_id == rule_id]


# -- ModuleSummary extraction ----------------------------------------------------


class TestSummaryExtraction:
    def test_lock_attrs_and_held_locks(self):
        summary = summarize(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def put(self, item):
                    with self._lock:
                        self._items.append(item)

                def drain(self):
                    self._items.clear()
            """,
            "src/repro/box.py",
        )
        box = summary.classes["Box"]
        assert set(box.lock_attrs) == {"_lock"}
        modes = {
            (access.function, access.mode, bool(access.locks))
            for access in box.accesses
            if access.attr == "_items"
        }
        assert ("Box.put", "rmw", True) in modes
        assert ("Box.drain", "rmw", False) in modes
        init = [a for a in box.accesses if a.function == "Box.__init__"]
        assert all(a.in_init for a in init)

    def test_thread_and_fork_sites(self):
        summary = summarize(
            """
            import multiprocessing
            import os
            import threading

            def serve():
                threading.Thread(target=work).start()

            def work(seed):
                os.fork()
                multiprocessing.Process(target=work).start()
            """,
            "src/repro/svc.py",
        )
        assert summary.starts_threads
        assert summary.functions["serve"].starts_thread
        work = summary.functions["work"]
        assert [(line, api) for line, api in work.fork_calls] == [
            (9, "os.fork"),
            (10, "multiprocessing.Process"),
        ]

    def test_threading_server_base_marks_module(self):
        summary = summarize(
            """
            from http.server import ThreadingHTTPServer

            class Server(ThreadingHTTPServer):
                pass
            """,
            "src/repro/srv.py",
        )
        assert summary.starts_threads

# -- call graph ------------------------------------------------------------------


class TestCallGraph:
    def _project(self):
        sources = {
            "src/repro/pipeline/stages.py": snippet(
                """
                from repro.detection import det

                def run_cell(spec):
                    return det.detect(spec)
                """
            ),
            "src/repro/detection/det.py": snippet(
                """
                from repro.measurement.meas import acquire

                class Detector:
                    def go(self):
                        return self.helper()

                    def helper(self):
                        return acquire(1)

                def detect(spec):
                    return Detector().go()
                """
            ),
            "src/repro/measurement/meas.py": snippet(
                """
                def acquire(seed):
                    return seed
                """
            ),
        }
        summaries = [
            summarize_module(LintModule.from_source(source, path))
            for path, source in sources.items()
        ]
        return LintProject(summaries)

    def test_resolution_through_imports_self_and_constructors(self):
        project = self._project()
        cell = "pipeline/stages.py::run_cell"
        assert "detection/det.py::detect" in project.callees(cell)
        go = project.callees("detection/det.py::Detector.go")
        assert "detection/det.py::Detector.helper" in go
        helper = project.callees("detection/det.py::Detector.helper")
        assert "measurement/meas.py::acquire" in helper
        detect = project.callees("detection/det.py::detect")
        assert "detection/det.py::Detector.__init__" not in detect  # no __init__
        assert "detection/det.py::Detector.go" in detect

    def test_reachability_closure_includes_module_bodies(self):
        project = self._project()
        reached = project.reachable_from(["pipeline/stages.py::run_cell"])
        assert "measurement/meas.py::acquire" in reached
        # importing a reached module ran its body
        assert f"detection/det.py::{MODULE_BODY}" in reached

    def test_unreachable_function_stays_out(self):
        project = self._project()
        reached = project.reachable_from(["measurement/meas.py::acquire"])
        assert "detection/det.py::detect" not in reached


# -- CONC001 ---------------------------------------------------------------------


class TestCONC001:
    def test_off_lock_rmw_and_read_are_flagged(self):
        findings = lint_source(
            snippet(
                """
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._total = 0

                    def add(self, n):
                        with self._lock:
                            self._total += n

                    def bump(self):
                        self._total += 1

                    def peek(self):
                        return self._total
                """
            ),
            "src/repro/counter.py",
        )
        found = violations(findings, "CONC001")
        assert [f.line for f in found] == [13, 16]
        assert "bump" in found[0].message and "_lock" in found[0].message

    def test_fully_locked_class_is_clean(self):
        findings = lint_source(
            snippet(
                """
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._total = 0
                        self.limit = 10

                    def add(self, n):
                        with self._lock:
                            self._total += n

                    def capacity(self):
                        return self.limit
                """
            ),
            "src/repro/counter.py",
        )
        # ``limit`` is never mutated after __init__: config, not state.
        assert violations(findings, "CONC001") == []

    def test_module_global_discipline(self):
        findings = lint_source(
            snippet(
                """
                import threading

                _LOCK = threading.Lock()
                _STATE = {}

                def set_item(key, value):
                    with _LOCK:
                        _STATE[key] = value

                def drop(key):
                    del _STATE[key]
                """
            ),
            "src/repro/registry_mod.py",
        )
        found = violations(findings, "CONC001")
        assert [f.line for f in found] == [11]
        assert "_STATE" in found[0].message

    def test_pragma_suppresses_with_reason(self):
        findings = lint_source(
            snippet(
                """
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._total = 0

                    def add(self, n):
                        with self._lock:
                            self._total += n

                    def racy_peek(self):
                        # repro-lint: allow[CONC001] monitoring read; staleness is fine
                        return self._total
                """
            ),
            "src/repro/counter.py",
        )
        assert violations(findings, "CONC001") == []
        assert any(f.rule_id == "CONC001" and f.suppressed for f in findings)


# -- CONC002 ---------------------------------------------------------------------


_FORKER = """
import os

def run():
    spawn()

def spawn():
    os.fork()
"""

_THREADER = """
import threading
from repro import work

def serve():
    threading.Thread(target=work.run).start()
"""


class TestCONC002:
    def test_fork_reachable_from_thread_module_is_flagged(self):
        findings = lint_sources(
            {
                "src/repro/svc.py": snippet(_THREADER),
                "src/repro/work.py": snippet(_FORKER),
            }
        )
        found = violations(findings, "CONC002")
        assert len(found) == 1
        assert found[0].path == "src/repro/work.py"
        assert found[0].line == 7
        assert "svc.py" in found[0].message

    def test_sanctioned_supervisor_is_exempt(self):
        findings = lint_sources(
            {
                "src/repro/svc.py": snippet(_THREADER.replace("repro import work", "repro.pipeline import backends").replace("work.run", "backends.run")),
                "src/repro/pipeline/backends.py": snippet(_FORKER),
            }
        )
        assert violations(findings, "CONC002") == []

    def test_fork_without_thread_reachability_is_clean(self):
        findings = lint_sources(
            {
                "src/repro/svc.py": snippet(
                    """
                    import threading

                    def serve():
                        threading.Thread(target=print).start()
                    """
                ),
                "src/repro/work.py": snippet(_FORKER),
            }
        )
        assert violations(findings, "CONC002") == []

    def test_pragma_suppresses(self):
        findings = lint_sources(
            {
                "src/repro/svc.py": snippet(_THREADER),
                "src/repro/work.py": snippet(_FORKER).replace(
                    "    os.fork()",
                    "    # repro-lint: allow[CONC002] pre-thread daemonization path\n"
                    "    os.fork()",
                ),
            }
        )
        assert violations(findings, "CONC002") == []


# -- CONC003 ---------------------------------------------------------------------


_MEMO_CLASS = """
import threading

class Service:
    def __init__(self):
        self._lock = threading.Lock()
        self._cache = {}

    def lookup(self, key):
        with self._lock:
            value = self._cache.get(key)
            if value is None:
                value = key * 2
                self._cache[key] = value
            return value
"""


class TestCONC003:
    def test_bare_dict_memoization_in_service_is_flagged(self):
        findings = lint_source(snippet(_MEMO_CLASS), "src/repro/service/widget.py")
        found = violations(findings, "CONC003")
        assert [f.line for f in found] == [13]
        assert "LRUCache" in found[0].message

    def test_membership_guard_variant_is_flagged(self):
        findings = lint_source(
            snippet(
                """
                _MEMO = {}

                def lookup(key):
                    if key not in _MEMO:
                        _MEMO[key] = key * 2
                    return _MEMO[key]
                """
            ),
            "src/repro/pipeline/helper.py",
        )
        found = violations(findings, "CONC003")
        assert [f.line for f in found] == [5]

    def test_out_of_scope_module_is_clean(self):
        findings = lint_source(snippet(_MEMO_CLASS), "src/repro/soc/widget.py")
        assert violations(findings, "CONC003") == []

    def test_state_table_without_missing_key_guard_is_clean(self):
        # TokenBucket-style unconditional read-update-store is state,
        # not memoization.
        findings = lint_source(
            snippet(
                """
                import threading

                class Bucket:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._levels = {}

                    def consume(self, who, now):
                        with self._lock:
                            level, last = self._levels.get(who, (1.0, now))
                            self._levels[who] = (level - 0.1, now)
                """
            ),
            "src/repro/service/bucket.py",
        )
        assert violations(findings, "CONC003") == []

    def test_sanctioned_lrucache_implementation_is_exempt(self):
        source = snippet(_MEMO_CLASS).replace("class Service:", "class LRUCache:")
        findings = lint_source(source, "src/repro/caching.py")
        assert violations(findings, "CONC003") == []
        # ...but a second bare-dict class in caching.py is not exempt
        findings = lint_source(source.replace("LRUCache", "SideCache"),
                               "src/repro/caching.py")
        assert len(violations(findings, "CONC003")) == 1

    def test_pragma_suppresses(self):
        source = snippet(_MEMO_CLASS).replace(
            "                self._cache[key] = value",
            "                # repro-lint: allow[CONC003] bounded by caller\n"
            "                self._cache[key] = value",
        )
        findings = lint_source(source, "src/repro/service/widget.py")
        assert violations(findings, "CONC003") == []


# -- DEAD001 ---------------------------------------------------------------------


class TestDEAD001:
    def test_stale_pragma_is_flagged(self):
        findings = lint_source(
            snippet(
                """
                # repro-lint: allow[CACHE001] stale: the re-thaw below was removed
                x = 1
                """
            ),
            "src/repro/mod.py",
        )
        found = violations(findings, "DEAD001")
        assert [f.line for f in found] == [2]
        assert "CACHE001" in found[0].message

    def test_live_pragma_is_not_stale(self):
        findings = lint_source(
            snippet(
                """
                def thaw(array):
                    # repro-lint: allow[CACHE001] the caller owns this private copy
                    array.flags.writeable = True
                """
            ),
            "src/repro/mod.py",
        )
        assert violations(findings, "DEAD001") == []
        assert any(f.rule_id == "CACHE001" and f.suppressed for f in findings)

    def test_pragma_for_inactive_rule_is_not_judged(self):
        findings = lint_source(
            snippet(
                """
                # repro-lint: allow[CACHE001] only judged when CACHE001 runs
                x = 1
                """
            ),
            "src/repro/mod.py",
            rules=[RULE_INDEX["EXC001"], RULE_INDEX["DEAD001"]],
        )
        assert violations(findings, "DEAD001") == []

    def test_malformed_pragmas_stay_lint001_not_dead001(self):
        findings = lint_source(
            snippet(
                """
                x = 1  # repro-lint: allow[CACHE001]
                """
            ),
            "src/repro/mod.py",
        )
        assert violations(findings, "DEAD001") == []
        assert [f.rule_id for f in unsuppressed(findings)] == ["LINT001"]


# -- seeded fixtures (the CI liveness guards) ------------------------------------

_SEEDED = Path(__file__).resolve().parent / "fixtures" / "lint_seeded" / "repro"


class TestSeededFixtures:
    """Each rule's CI smoke fixture must exist and still trigger.

    CI lints these files and requires a nonzero exit; this test pins the
    same facts in tier-1, so deleting or 'fixing' a fixture fails both.
    """

    @pytest.mark.parametrize(
        "relative, rule_id",
        [
            ("serve_cache001.py", "CACHE001"),
            ("pipeline/handler_exc001.py", "EXC001"),
            ("counter_conc001.py", "CONC001"),
            ("forker_conc002.py", "CONC002"),
            ("service/memo_conc003.py", "CONC003"),
            ("stale_dead001.py", "DEAD001"),
        ],
    )
    def test_fixture_triggers_its_rule(self, relative, rule_id):
        path = _SEEDED / relative
        assert path.exists(), f"CI smoke fixture missing: {path}"
        findings = lint_source(path.read_text(), str(path))
        assert rule_id in {f.rule_id for f in unsuppressed(findings)}
