"""``python -m repro.lint`` -- the repro-lint command line.

Check-only by default (there is deliberately no ``--fix``: every
violation is either a real bug or needs a reasoned pragma).  Exit codes:
``0`` clean, ``1`` unsuppressed findings, ``2`` usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.lint.engine import (
    Rule,
    lint_paths,
    render_json,
    render_text,
    unsuppressed,
)
from repro.lint.rules import ALL_RULES, RULE_INDEX

USAGE_EXIT = 2


def _select_rules(names: Optional[str]) -> List[Rule]:
    if not names:
        return list(ALL_RULES)
    selected: List[Rule] = []
    for name in names.split(","):
        name = name.strip()
        if not name:
            continue
        rule = RULE_INDEX.get(name)
        if rule is None:
            known = ", ".join(sorted(RULE_INDEX))
            raise SystemExit(
                f"repro-lint: unknown rule {name!r} (known: {known})"
            )
        selected.append(rule)
    return selected


def _list_rules() -> str:
    lines = []
    for rule in ALL_RULES:
        lines.append(f"{rule.rule_id}  {rule.title}")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "repro-lint: project-wide cache-safety, exception and "
            "concurrency checks over this repository's pinned invariants."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (e.g. src/)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings in the text report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule inventory and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.list_rules:
        print(_list_rules())
        return 0
    if not options.paths:
        parser.print_usage(sys.stderr)
        print("repro-lint: no paths given", file=sys.stderr)
        return USAGE_EXIT
    try:
        rules = _select_rules(options.rules)
    except SystemExit as error:
        print(error, file=sys.stderr)
        return USAGE_EXIT

    try:
        findings, files_checked = lint_paths(options.paths, rules)
    except FileNotFoundError as error:
        print(f"repro-lint: {error}", file=sys.stderr)
        return USAGE_EXIT

    if options.format == "json":
        print(render_json(findings, files_checked))
    else:
        print(
            render_text(
                findings,
                files_checked,
                show_suppressed=options.show_suppressed,
            )
        )
    return 1 if unsuppressed(findings) else 0


if __name__ == "__main__":
    raise SystemExit(main())
