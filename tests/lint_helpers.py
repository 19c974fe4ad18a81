"""Lint a source snippet under a logical path, as the rule tests need."""

from typing import List, Optional, Sequence

from repro.lint.engine import Finding, Rule, lint_sources


def lint_source(
    source: str,
    logical_path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one source string as a one-module project."""
    return lint_sources({logical_path: source}, rules)
