"""repro-lint rule suite: per-module rule fixtures plus the src/ self-check.

CACHE001 and EXC001 each get minimal violating snippets -- asserting the
rule ID and the exact line -- and clean and pragma'd snippets (the
project rules live in ``test_analysis_project.py``).  The self-check
then pins the acceptance criterion directly: the shipped ``src/`` tree
has zero unsuppressed violations and every suppression carries a reason.
"""

import importlib.util
import json
import pathlib
import shutil
import textwrap

import numpy as np
import pytest
from lint_helpers import lint_source

from repro.lint.engine import (
    META_RULE_ID,
    Finding,
    lint_paths,
    module_key_for,
    render_json,
    render_text,
    unsuppressed,
)
from repro.lint.rules import ALL_RULES, RULE_INDEX

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def snippet(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


def rule_ids(findings, include_suppressed: bool = False):
    return [
        f.rule_id
        for f in findings
        if include_suppressed or not f.suppressed
    ]


def the_finding(findings, rule_id: str) -> Finding:
    matches = [f for f in findings if f.rule_id == rule_id]
    assert len(matches) == 1, f"expected exactly one {rule_id}, got {matches}"
    return matches[0]


# -- CACHE001 --------------------------------------------------------------------


class TestCACHE001:
    def test_unfrozen_compute_function_is_flagged(self):
        findings = lint_source(
            snippet(
                """
                def serve(cache, key):
                    def build():
                        return make_array()
                    return cache.get_or_compute(key, build)
                """
            ),
            "src/repro/soc/windows.py",
        )
        assert rule_ids(findings) == ["CACHE001"]
        assert the_finding(findings, "CACHE001").line == 4

    def test_freezing_compute_function_is_clean(self):
        findings = lint_source(
            snippet(
                """
                def serve(cache, key):
                    def build():
                        array = make_array()
                        array.flags.writeable = False
                        return array
                    return cache.get_or_compute(key, build)
                """
            ),
            "src/repro/soc/windows.py",
        )
        assert findings == []

    def test_lambda_delegating_to_freezer_is_clean(self):
        findings = lint_source(
            snippet(
                """
                def frozen_copy(array):
                    out = array.copy()
                    out.setflags(write=False)
                    return out

                def serve(cache, key, simulate):
                    return cache.get_or_compute(key, lambda: frozen_copy(simulate()))
                """
            ),
            "src/repro/soc/windows.py",
        )
        assert findings == []

    def test_transitive_freeze_through_local_helper_is_clean(self):
        findings = lint_source(
            snippet(
                """
                def freeze(array):
                    array.flags.writeable = False
                    return array

                def build():
                    return freeze(make_array())

                def serve(cache, key):
                    return cache.get_or_compute(key, build)
                """
            ),
            "src/repro/soc/windows.py",
        )
        assert findings == []

    def test_unresolvable_compute_is_flagged_and_pragma_escapes(self):
        source = snippet(
            """
            def serve(cache, key, builder):
                return cache.get_or_compute(key, builder.make)
            """
        )
        findings = lint_source(source, "src/repro/soc/windows.py")
        assert rule_ids(findings) == ["CACHE001"]
        pragma = source.replace(
            "    return cache.get_or_compute",
            "    # repro-lint: allow[CACHE001] serves objects, not arrays\n"
            "    return cache.get_or_compute",
        )
        assert unsuppressed(lint_source(pragma, "src/repro/soc/windows.py")) == []

    def test_rethawing_an_array_is_flagged(self):
        findings = lint_source(
            snippet(
                """
                def thaw(array):
                    array.flags.writeable = True
                    return array

                def thaw2(array):
                    array.setflags(write=True)
                    return array
                """
            ),
            "src/repro/soc/windows.py",
        )
        assert rule_ids(findings) == ["CACHE001", "CACHE001"]
        assert sorted(f.line for f in findings) == [2, 6]


# -- EXC001 ----------------------------------------------------------------------


class TestEXC001:
    def test_bare_except_in_pipeline_is_flagged(self):
        findings = lint_source(
            snippet(
                """
                def f():
                    try:
                        work()
                    except:
                        pass
                """
            ),
            "src/repro/pipeline/x.py",
        )
        assert rule_ids(findings) == ["EXC001"]
        assert the_finding(findings, "EXC001").line == 4

    def test_except_base_exception_is_always_flagged(self):
        findings = lint_source(
            snippet(
                """
                def f():
                    try:
                        work()
                    except BaseException:
                        raise
                """
            ),
            "src/repro/pipeline/x.py",
        )
        assert rule_ids(findings) == ["EXC001"]

    def test_broad_except_exception_without_reraise_is_flagged(self):
        findings = lint_source(
            snippet(
                """
                def f():
                    try:
                        work()
                    except Exception:
                        log()
                """
            ),
            "src/repro/pipeline/x.py",
        )
        assert rule_ids(findings) == ["EXC001"]
        assert the_finding(findings, "EXC001").line == 4

    def test_broad_except_with_bare_reraise_is_clean(self):
        findings = lint_source(
            snippet(
                """
                def f():
                    try:
                        work()
                    except Exception:
                        log()
                        raise
                """
            ),
            "src/repro/pipeline/x.py",
        )
        assert findings == []

    def test_sibling_control_flow_handler_exempts_broad_catch(self):
        findings = lint_source(
            snippet(
                """
                def f():
                    try:
                        work()
                    except (faults.CellTimeout, faults.SweepInterrupted):
                        raise
                    except Exception:
                        record()
                """
            ),
            "src/repro/pipeline/x.py",
        )
        assert findings == []

    def test_narrow_catches_are_clean(self):
        findings = lint_source(
            snippet(
                """
                def f():
                    try:
                        work()
                    except (KeyError, ValueError):
                        record()
                """
            ),
            "src/repro/pipeline/x.py",
        )
        assert findings == []

    def test_rule_is_scoped_to_pipeline(self):
        findings = lint_source(
            snippet(
                """
                def f():
                    try:
                        work()
                    except Exception:
                        pass
                """
            ),
            "src/repro/experiments/x.py",
        )
        assert findings == []

    def test_service_request_handlers_are_in_scope(self):
        source = snippet(
            """
            def handle():
                try:
                    dispatch()
                except Exception:
                    respond_500()
            """
        )
        findings = lint_source(source, "src/repro/service/server.py")
        assert rule_ids(findings) == ["EXC001"]
        # The sanctioned handler shape: supervision control flow is
        # re-raised by an explicit sibling before the broad catch.
        safe = snippet(
            """
            def handle():
                try:
                    dispatch()
                except (CellTimeout, SweepInterrupted):
                    raise
                except Exception:
                    respond_500()
            """
        )
        assert lint_source(safe, "src/repro/service/server.py") == []


# -- LINT001 (pragma meta-rule) --------------------------------------------------


class TestLINT001:
    def test_reasonless_pragma_is_a_finding_and_does_not_suppress(self):
        findings = lint_source(
            snippet(
                """
                def thaw(array):
                    array.flags.writeable = True  # repro-lint: allow[CACHE001]
                """
            ),
            "src/repro/x.py",
        )
        ids = sorted(rule_ids(findings))
        assert ids == ["CACHE001", "LINT001"]

    def test_unknown_rule_id_is_a_finding(self):
        findings = lint_source(
            "x = 1  # repro-lint: allow[NOPE-99] because\n",
            "src/repro/x.py",
        )
        assert rule_ids(findings) == [META_RULE_ID]

    def test_malformed_pragma_is_a_finding(self):
        findings = lint_source(
            "x = 1  # repro-lint: silence everything\n",
            "src/repro/x.py",
        )
        assert rule_ids(findings) == [META_RULE_ID]

    def test_lint001_itself_cannot_be_suppressed(self):
        findings = lint_source(
            "x = 1  # repro-lint: allow[LINT001] nice try\n",
            "src/repro/x.py",
        )
        assert rule_ids(findings) == [META_RULE_ID]

    def test_unparseable_file_is_a_finding(self):
        findings = lint_source("def broken(:\n", "src/repro/x.py")
        assert rule_ids(findings) == [META_RULE_ID]
        assert "does not parse" in findings[0].message


# -- reporters & CLI -------------------------------------------------------------


#: One CACHE001 violation on line 2 (the rule applies to every module).
RETHAW = "import numpy as np\nnp.ones(3).flags.writeable = True\n"


class TestReporting:
    def test_text_report_format(self):
        findings = lint_source(RETHAW, "src/repro/x.py")
        text = render_text(findings, files_checked=1)
        assert "src/repro/x.py:2: CACHE001" in text
        assert "1 violation(s), 0 suppressed across 1 file(s)" in text

    def test_json_report_shape(self):
        findings = lint_source(RETHAW, "src/repro/x.py")
        payload = json.loads(render_json(findings, files_checked=1))
        assert payload["tool"] == "repro-lint"
        assert payload["summary"] == {
            "files": 1, "violations": 1, "suppressed": 0,
        }
        (entry,) = payload["findings"]
        assert entry["rule"] == "CACHE001"
        assert entry["line"] == 2
        assert entry["suppressed"] is False

    def test_cli_flags_violations_with_exit_1(self, tmp_path, capsys):
        from repro.lint.__main__ import main

        bad = tmp_path / "bad.py"
        bad.write_text(RETHAW)
        assert main([str(bad)]) == 1
        assert "CACHE001" in capsys.readouterr().out

    def test_cli_clean_file_exits_0_json(self, tmp_path, capsys):
        from repro.lint.__main__ import main

        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main([str(good), "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["violations"] == 0

    def test_cli_usage_errors_exit_2(self, tmp_path, capsys):
        from repro.lint.__main__ import main

        assert main([]) == 2
        assert main([str(tmp_path / "missing.py")]) == 2
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main([str(good), "--rules", "BOGUS"]) == 2

    def test_cli_rule_selection_and_listing(self, tmp_path, capsys):
        from repro.lint.__main__ import main

        bad = tmp_path / "bad.py"
        bad.write_text(RETHAW)
        assert main([str(bad), "--rules", "EXC001"]) == 0
        capsys.readouterr()
        assert main(["--list-rules"]) == 0
        listed = [
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
            if line and not line.startswith(" ")
        ]
        assert listed == [rule.rule_id for rule in ALL_RULES]


# -- the self-check: the shipped tree is clean -----------------------------------


class TestSrcTreeSelfCheck:
    @staticmethod
    def _gated_findings():
        """The tree's findings as the CI gate sees them."""
        return lint_paths([str(SRC)])

    def test_src_has_zero_unsuppressed_violations(self):
        findings, files_checked = self._gated_findings()
        assert files_checked > 50  # the whole tree, not a subset
        problems = unsuppressed(findings)
        assert problems == [], render_text(findings, files_checked)

    def test_every_suppression_carries_a_reason(self):
        findings, _ = self._gated_findings()
        suppressed = [f for f in findings if f.suppressed]
        assert suppressed, "expected the documented pragma sites to exist"
        for finding in suppressed:
            assert finding.suppression_reason, finding

    def test_src_concurrency_rules_are_live_on_the_tree(self, tmp_path):
        # The only fork in the library is the supervised pool.  A copy of
        # the tree with a fork in pipeline/store.py, reached only through a
        # new call from the threaded service, must trip CONC002 there:
        # proof the project pass resolves calls across the real tree.
        tree = tmp_path / "repro"
        shutil.copytree(
            SRC / "repro", tree, ignore=shutil.ignore_patterns("__pycache__")
        )
        store = tree / "pipeline" / "store.py"
        store.write_text(
            store.read_text() + "\n\ndef _fork_snapshot(root):\n    os.fork()\n"
        )
        findings, _ = lint_paths([str(tree)], [RULE_INDEX["CONC002"]])
        assert unsuppressed(findings) == []
        server = tree / "service" / "server.py"
        server.write_text(
            server.read_text()
            + "\n\ndef _snapshot(root):\n"
            "    from repro.pipeline import store\n"
            "    store._fork_snapshot(root)\n"
        )
        findings, _ = lint_paths([str(tree)], [RULE_INDEX["CONC002"]])
        (hit,) = unsuppressed(findings)
        assert (hit.rule_id, module_key_for(hit.path)) == ("CONC002", "pipeline/store.py")
        assert "os.fork in _fork_snapshot" in hit.message

    def test_rule_inventory_is_complete(self):
        assert sorted(RULE_INDEX) == [
            "CACHE001",
            "CONC001",
            "CONC002",
            "CONC003",
            "DEAD001",
            "EXC001",
        ]
        for rule in ALL_RULES:
            assert rule.title and rule.rationale


# -- satellite fixes -------------------------------------------------------------


class TestSatelliteFixes:
    def test_provenance_clock_is_the_single_patch_point(self, monkeypatch):
        from repro.pipeline import artifacts

        monkeypatch.setattr(
            artifacts, "provenance_clock", lambda: "2026-01-01T00:00:00+00:00"
        )
        prov = artifacts.Provenance(spec_hash="abc")
        assert prov.created_at == "2026-01-01T00:00:00+00:00"

    def test_provenance_clock_returns_utc_iso8601(self):
        from repro.pipeline.artifacts import provenance_clock

        stamp = provenance_clock()
        assert stamp.endswith("+00:00")

    def test_periodic_template_is_served_read_only(self):
        from repro.power.synthesis import PeriodicPowerTemplate
        from repro.rtl.signals import Clock

        template = PeriodicPowerTemplate(
            name="t", clock=Clock(name="clk", frequency_hz=1e6), power_w=np.ones(8)
        )
        assert not template.power_w.flags.writeable
        with pytest.raises(ValueError):
            template.power_w[0] = 2.0

    def test_freezing_does_not_alias_the_caller_array(self):
        from repro.power.synthesis import PeriodicPowerTemplate
        from repro.rtl.signals import Clock

        mine = np.ones(8)
        PeriodicPowerTemplate(
            name="t", clock=Clock(name="clk", frequency_hz=1e6), power_w=mine
        )
        assert mine.flags.writeable  # the template froze its own copy
        mine[0] = 5.0  # and my array still works

    def test_store_rebuild_errors_exclude_exception(self):
        from repro.pipeline.store import _REBUILD_ERRORS

        assert Exception not in _REBUILD_ERRORS
        assert BaseException not in _REBUILD_ERRORS
        assert ValueError in _REBUILD_ERRORS


# -- mypy (CI installs it; the container image does not ship it) -----------------


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy not installed in this environment (CI installs it)",
)
def test_mypy_passes_on_the_typed_core():
    from mypy import api

    stdout, stderr, status = api.run(
        ["--config-file", str(REPO_ROOT / "mypy.ini")]
    )
    assert status == 0, f"mypy failed:\n{stdout}\n{stderr}"
