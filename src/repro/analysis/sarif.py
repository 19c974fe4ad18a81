"""SARIF 2.1.0 reporter: repro-lint findings as CI code-scanning input.

SARIF (Static Analysis Results Interchange Format, OASIS standard) is
what code-scanning UIs ingest to annotate diffs.  This emitter is
hand-rolled against the 2.1.0 schema -- no third-party dependency -- and
kept to the subset those consumers read:

* ``runs[].tool.driver.rules``: one descriptor per registered rule
  (id, short/full description, default ``error`` level);
* ``runs[].results``: one result per finding with ``ruleId``,
  ``ruleIndex``, ``message.text`` and a single physical location
  (``artifactLocation.uri`` + ``region.startLine``);
* suppressed findings are *included* with an ``inSource`` ``suppressions``
  entry (every suppression is a pragma) so the suppression inventory is
  visible to the scanner, per §3.27.23.

The shape is pinned by ``tests/test_analysis_reporting.py``, which
validates the required-property skeleton of the 2.1.0 schema.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.analysis.engine import META_RULE_ID, Finding, Rule

__all__ = ["render_sarif", "sarif_dict"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_TOOL_VERSION = "2.0.0"
_INFO_URI = "https://example.invalid/repro-lint"


def _rule_descriptor(rule: Rule) -> Dict[str, object]:
    return {
        "id": rule.rule_id,
        "name": type(rule).__name__,
        "shortDescription": {"text": rule.title or rule.rule_id},
        "fullDescription": {"text": rule.rationale or rule.title or rule.rule_id},
        "defaultConfiguration": {"level": "error"},
    }


def _meta_rule_descriptor() -> Dict[str, object]:
    return {
        "id": META_RULE_ID,
        "name": "LintMetaRule",
        "shortDescription": {"text": "lint inventory hygiene"},
        "fullDescription": {
            "text": (
                "Malformed/unknown/reason-less suppression pragmas "
                "and unparseable files."
            )
        },
        "defaultConfiguration": {"level": "error"},
    }


def _uri(path: str) -> str:
    return path.replace("\\", "/")


def sarif_dict(
    findings: Sequence[Finding],
    rules: Optional[Sequence[Rule]] = None,
) -> Dict[str, object]:
    """The SARIF log as a JSON-able dict (see :func:`render_sarif`)."""
    if rules is None:
        from repro.analysis.rules import ALL_RULES

        rules = ALL_RULES
    descriptors = [_meta_rule_descriptor()]
    descriptors.extend(_rule_descriptor(rule) for rule in rules)
    index_of = {str(d["id"]): i for i, d in enumerate(descriptors)}

    results: List[Dict[str, object]] = []
    for finding in findings:
        result: Dict[str, object] = {
            "ruleId": finding.rule_id,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": _uri(finding.path)},
                        "region": {"startLine": max(1, finding.line)},
                    }
                }
            ],
        }
        if finding.rule_id in index_of:
            result["ruleIndex"] = index_of[finding.rule_id]
        if finding.suppressed:
            result["suppressions"] = [
                {
                    "kind": "inSource",
                    "justification": finding.suppression_reason or "",
                }
            ]
        results.append(result)

    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": _TOOL_VERSION,
                        "informationUri": _INFO_URI,
                        "rules": descriptors,
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }


def render_sarif(
    findings: Sequence[Finding],
    rules: Optional[Sequence[Rule]] = None,
) -> str:
    """The SARIF 2.1.0 report (the ``--format=sarif`` / ``--sarif`` output)."""
    return json.dumps(sarif_dict(findings, rules), indent=2, sort_keys=True)
