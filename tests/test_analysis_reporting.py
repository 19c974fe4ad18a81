"""repro-lint v2 reporting: SARIF 2.1.0 shape."""

import json
import textwrap

from lint_helpers import lint_source

from repro.analysis.engine import META_RULE_ID
from repro.analysis.rules import RULE_INDEX
from repro.analysis.sarif import SARIF_VERSION, render_sarif, sarif_dict


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
    return lint_source(source, "src/repro/demo.py")


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

    def test_pragma_suppressions_are_in_source(self):
        log = sarif_dict(_findings_with_suppressions())
        kinds = {}
        for result in log["runs"][0]["results"]:
            for suppression in result.get("suppressions", ()):
                kinds[result["ruleId"]] = suppression["kind"]
                assert suppression["justification"] == "demo fixture"
        assert kinds == {"RNG001": "inSource"}

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
