"""repro-lint v2 reporting: SARIF 2.1.0 shape and baselines."""

import dataclasses
import json
import textwrap

import pytest
from lint_helpers import lint_source

from repro.analysis.baseline import (
    apply_baseline,
    load_baseline,
    update_baseline,
)
from repro.analysis.engine import (
    META_RULE_ID,
    Finding,
    unsuppressed,
)
from repro.analysis.rules import RULE_INDEX
from repro.analysis.sarif import SARIF_VERSION, render_sarif, sarif_dict

VIOLATING = textwrap.dedent(
    """
    import random

    def roll():
        return random.random()
    """
).lstrip("\n")

CLEAN = "VALUE = 1\n"


def _findings_with_suppressions():
    source = textwrap.dedent(
        """
        import random

        def roll():
            return random.random()

        def roll_excused():
            # repro-lint: allow[RNG001] demo fixture
            return random.random()
        """
    ).lstrip("\n")
    findings = lint_source(source, "src/repro/demo.py")
    baselined = Finding(
        rule_id="DET001",
        path="src/repro/other.py",
        line=3,
        message="time.time() call",
        suppressed=True,
        suppression_reason="baseline: legacy banner",
        baselined=True,
    )
    return list(findings) + [baselined]


# -- SARIF -----------------------------------------------------------------------


class TestSarif:
    def test_log_skeleton_matches_2_1_0_required_properties(self):
        log = sarif_dict(_findings_with_suppressions())
        # sarifLog: version + runs are the schema's required properties
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        assert isinstance(log["runs"], list) and log["runs"]
        run = log["runs"][0]
        # run requires tool; tool requires driver; driver requires name
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        for descriptor in driver["rules"]:
            assert set(descriptor) >= {"id", "shortDescription"}
            assert descriptor["shortDescription"]["text"]

    def test_results_carry_rule_index_message_and_location(self):
        log = sarif_dict(_findings_with_suppressions())
        run = log["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        assert run["results"], "expected findings in the demo fixture"
        for result in run["results"]:
            assert result["message"]["text"]
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"]
            assert location["region"]["startLine"] >= 1
            # ruleIndex must point at the descriptor for ruleId
            index = result["ruleIndex"]
            assert rules[index]["id"] == result["ruleId"]

    def test_suppression_kinds_distinguish_pragma_from_baseline(self):
        log = sarif_dict(_findings_with_suppressions())
        kinds = {}
        for result in log["runs"][0]["results"]:
            for suppression in result.get("suppressions", ()):
                assert suppression["kind"] in ("inSource", "external")
                kinds[result["ruleId"]] = suppression["kind"]
        assert kinds["RNG001"] == "inSource"  # pragma
        assert kinds["DET001"] == "external"  # baseline

    def test_unsuppressed_results_have_no_suppressions_key(self):
        log = sarif_dict(_findings_with_suppressions())
        raw = [
            result
            for result in log["runs"][0]["results"]
            if "suppressions" not in result
        ]
        assert raw, "the unsuppressed RNG001 must appear without suppressions"

    def test_render_is_valid_json(self):
        text = render_sarif(_findings_with_suppressions())
        assert json.loads(text)["version"] == "2.1.0"

    def test_meta_rule_always_has_a_descriptor(self):
        log = sarif_dict([], rules=[RULE_INDEX["RNG001"]])
        ids = [d["id"] for d in log["runs"][0]["tool"]["driver"]["rules"]]
        assert ids[0] == META_RULE_ID


# -- baseline --------------------------------------------------------------------


def _write_baseline(path, entries):
    path.write_text(json.dumps({"version": 1, "entries": entries}))


class TestBaseline:
    def _finding(self):
        return Finding(
            rule_id="RNG001",
            path="src/repro/demo.py",
            line=4,
            message="random.random() draws from the process-global stream",
        )

    def test_matching_entry_suppresses_and_records_justification(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        finding = self._finding()
        _write_baseline(
            baseline,
            [
                {
                    "rule": finding.rule_id,
                    "path": finding.path,
                    "line": finding.line,
                    "message": finding.message,
                    "justification": "legacy demo path",
                }
            ],
        )
        out = apply_baseline([finding], baseline)
        assert len(out) == 1
        assert out[0].suppressed and out[0].baselined
        assert out[0].suppression_reason == "baseline: legacy demo path"
        assert unsuppressed(out) == []

    def test_expired_entry_becomes_dead001_at_the_baseline_file(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        _write_baseline(
            baseline,
            [
                {
                    "rule": "RNG001",
                    "path": "src/repro/gone.py",
                    "line": 9,
                    "message": "random.random() call removed last week",
                    "justification": "was fine",
                }
            ],
        )
        out = apply_baseline([], baseline)
        assert [f.rule_id for f in out] == ["DEAD001"]
        assert out[0].path == str(baseline)
        assert "gone.py" in out[0].message
        assert not out[0].suppressed

    def test_out_of_scope_entry_is_neither_consumed_nor_expired(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        _write_baseline(
            baseline,
            [
                {
                    "rule": "RNG001",
                    "path": "src/repro/elsewhere.py",
                    "line": 9,
                    "message": "something",
                    "justification": "still valid",
                }
            ],
        )
        out = apply_baseline(
            [self._finding()], baseline, linted_paths=["src/repro/demo.py"]
        )
        assert [f.rule_id for f in out] == ["RNG001"]

    def test_one_entry_consumes_one_finding(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        finding = self._finding()
        _write_baseline(
            baseline,
            [
                {
                    "rule": finding.rule_id,
                    "path": finding.path,
                    "line": finding.line,
                    "message": finding.message,
                    "justification": "one only",
                }
            ],
        )
        out = apply_baseline([finding, finding], baseline)
        assert sorted(f.suppressed for f in out) == [False, True]

    @pytest.mark.parametrize(
        "entry, fragment",
        [
            ("not-a-dict", "not an object"),
            ({"rule": "RNG001"}, "missing key"),
            (
                {
                    "rule": "NOPE999",
                    "path": "x.py",
                    "message": "m",
                    "justification": "j",
                },
                "unknown rule",
            ),
            (
                {
                    "rule": "RNG001",
                    "path": "x.py",
                    "message": "m",
                    "justification": "   ",
                },
                "no justification",
            ),
            (
                {
                    "rule": META_RULE_ID,
                    "path": "x.py",
                    "message": "m",
                    "justification": "j",
                },
                "cannot be baselined",
            ),
        ],
    )
    def test_malformed_entries_are_lint001(self, tmp_path, entry, fragment):
        baseline = tmp_path / "baseline.json"
        _write_baseline(baseline, [entry])
        entries, problems = load_baseline(baseline)
        assert entries == []
        assert [p.rule_id for p in problems] == [META_RULE_ID]
        assert fragment in problems[0].message

    def test_unreadable_baseline_is_lint001(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{truncated")
        out = apply_baseline([], baseline)
        assert [f.rule_id for f in out] == [META_RULE_ID]

    def test_update_round_trip_carries_justifications(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        finding = self._finding()
        total, missing = update_baseline([finding], baseline)
        assert (total, missing) == (1, 1)  # fresh entry: justification owed
        data = json.loads(baseline.read_text())
        assert data["entries"][0]["justification"] == ""
        # the committer writes the justification...
        data["entries"][0]["justification"] = "reviewed 2026-08"
        baseline.write_text(json.dumps(data))
        # ...and a later --update-baseline must not lose it
        total, missing = update_baseline([finding], baseline)
        assert (total, missing) == (1, 0)
        data = json.loads(baseline.read_text())
        assert data["entries"][0]["justification"] == "reviewed 2026-08"
        # round-trip: the updated file suppresses the finding
        out = apply_baseline([finding], baseline)
        assert unsuppressed(out) == []

    def test_update_carries_reworded_finding_at_same_site(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        finding = self._finding()
        reworded = {
            "rule": finding.rule_id,
            "path": finding.path,
            "line": finding.line,
            "message": "the old wording",
            "justification": "still accepted",
        }
        # a reworded finding elsewhere in the file owes a new justification
        _write_baseline(baseline, [reworded])
        moved = dataclasses.replace(finding, line=finding.line + 1)
        assert update_baseline([moved], baseline) == (1, 1)
        # at the entry's own site it keeps the old one
        _write_baseline(baseline, [reworded])
        assert update_baseline([finding], baseline) == (1, 0)
        entry = json.loads(baseline.read_text())["entries"][0]
        assert entry["message"] == finding.message
        assert entry["justification"] == "still accepted"

    def test_update_drops_entries_for_fixed_findings(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        update_baseline([self._finding()], baseline)
        update_baseline([], baseline)
        assert json.loads(baseline.read_text())["entries"] == []

    def test_suppressed_findings_are_not_baselined_again(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        finding = Finding(
            rule_id="RNG001",
            path="a.py",
            line=1,
            message="m",
            suppressed=True,
            suppression_reason="pragma",
        )
        total, _ = update_baseline([finding], baseline)
        assert total == 0
