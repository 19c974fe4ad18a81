"""repro-lint: the AST-based cache-safety & concurrency lint engine.

Read-only cache-served arrays, interrupt-safe exception handling and
lock discipline are *invariants of the source*, not of any one test
run.  This engine walks Python files with the rules of
:mod:`repro.lint.rules` and reports violations of those invariants at CI
time, before a race or a corrupted cache entry shows up downstream.

Usage (also via ``python -m repro.lint``)::

    findings = lint_paths(["src/"])
    print(render_text(findings))

Suppression pragma grammar
--------------------------

A finding is suppressed by a pragma **with a reason** on the same line or
on a standalone comment line directly above::

    lock = cache.get_or_compute(key, Lock)  # repro-lint: allow[CACHE001] not an array

    # repro-lint: allow[CONC001] monitoring read; a stale value is fine
    return self._total

A malformed pragma, an unknown rule id, or an empty reason is itself a
finding (``LINT001``) and cannot be suppressed: the suppression inventory
must stay auditable.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import json
import re
import tokenize
from pathlib import Path, PurePosixPath
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "LintModule",
    "ModuleRecord",
    "Rule",
    "collect_pragmas",
    "lint_paths",
    "lint_sources",
    "render_json",
    "render_text",
]

#: Rule id of the engine's own findings: malformed/unknown/reason-less
#: pragmas and unparseable files.  Never suppressible.
META_RULE_ID = "LINT001"

_PRAGMA_MARKER = "repro-lint"
_PRAGMA_RE = re.compile(
    r"^#\s*repro-lint:\s*allow\[([A-Za-z0-9_-]+)\]\s*(.*?)\s*$"
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One lint finding, suppressed or not."""

    rule_id: str
    path: str
    line: int
    message: str
    suppressed: bool = False
    suppression_reason: Optional[str] = None

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-able representation (the ``--format=json`` entry shape)."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "suppressed": self.suppressed,
            "suppression_reason": self.suppression_reason,
        }

@dataclasses.dataclass
class LintModule:
    """One parsed module handed to the rules.

    ``logical_path`` is the path rules scope on (and findings report);
    for fixture snippets in tests it need not exist on disk.
    ``module_key`` is the path relative to the ``repro`` package root
    (e.g. ``"pipeline/backends.py"``), or ``""`` when the file is not
    under a ``repro`` directory -- rules that scope to repo modules
    (``pipeline/``, ``service/``) match on it.
    """

    logical_path: str
    source: str
    tree: ast.Module
    module_key: str

    @classmethod
    def from_source(cls, source: str, logical_path: str) -> "LintModule":
        """Parse ``source`` (raises :class:`SyntaxError` on bad input)."""
        tree = ast.parse(source, filename=logical_path)
        return cls(
            logical_path=logical_path,
            source=source,
            tree=tree,
            module_key=module_key_for(logical_path),
        )


def module_key_for(logical_path: str) -> str:
    """The path of a file relative to its ``repro`` package directory."""
    parts = PurePosixPath(str(logical_path).replace("\\", "/")).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1 :])
    return ""


class Rule:
    """Base class of one lint rule.

    Subclasses set the class attributes and implement :meth:`check`,
    returning ``(line, message)`` pairs; the engine attaches the rule id,
    the path and the suppression state.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def applies_to(self, module: LintModule) -> bool:
        """Whether this rule inspects ``module`` at all (default: yes)."""
        return True

    def check(self, module: LintModule) -> List[Tuple[int, str]]:
        """Violations in ``module`` as ``(line, message)`` pairs."""
        raise NotImplementedError


# -- pragma collection -----------------------------------------------------------


def collect_pragmas(
    source: str, known_rule_ids: Iterable[str]
) -> Tuple[Dict[Tuple[int, str], str], List[Finding]]:
    """Parse every suppression pragma out of ``source``.

    Returns ``(pragmas, meta_findings)``: ``pragmas`` maps
    ``(line, rule_id)`` to the suppression reason (an inline pragma
    covers its own line, a standalone comment line covers the next
    line); ``meta_findings`` are the ``LINT001`` findings for malformed
    pragmas, unknown rule ids and missing reasons (path left empty --
    the engine fills it in).
    """
    known = set(known_rule_ids)
    pragmas: Dict[Tuple[int, str], str] = {}
    problems: List[Tuple[int, str]] = []
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        tokens = []
    for token in tokens:
        if token.type != tokenize.COMMENT or _PRAGMA_MARKER not in token.string:
            continue
        line = token.start[0]
        match = _PRAGMA_RE.match(token.string)
        if match is None:
            problems.append(
                (
                    line,
                    "malformed repro-lint pragma (expected "
                    "'# repro-lint: allow[RULE-ID] reason')",
                )
            )
            continue
        rule_id, reason = match.group(1), match.group(2)
        if rule_id not in known:
            problems.append((line, f"pragma names unknown rule {rule_id!r}"))
            continue
        if rule_id == META_RULE_ID:
            problems.append((line, f"{META_RULE_ID} findings cannot be suppressed"))
            continue
        if not reason:
            problems.append(
                (
                    line,
                    f"suppression of {rule_id} carries no reason; every "
                    "pragma must say why the violation is intentional",
                )
            )
            continue
        before_comment = lines[line - 1][: token.start[1]] if line <= len(lines) else ""
        target_line = line if before_comment.strip() else line + 1
        pragmas[(target_line, rule_id)] = reason
    findings = [
        Finding(rule_id=META_RULE_ID, path="", line=line, message=message)
        for line, message in problems
    ]
    return pragmas, findings


# -- linting ---------------------------------------------------------------------


def _default_rules() -> Sequence[Rule]:
    from repro.lint.rules import ALL_RULES

    return ALL_RULES


@dataclasses.dataclass
class ModuleRecord:
    """The per-module result of the module pass.

    ``summary`` is the serializable project digest
    (:class:`repro.lint.project.ModuleSummary`), ``None`` when the
    file did not parse.
    """

    logical_path: str
    findings: List[Finding]
    pragmas: Dict[Tuple[int, str], str]
    summary: Optional[object]


def _known_ids(active: Sequence[Rule]) -> set:
    # Pragmas naming any *registered* rule stay valid when linting with a
    # subset (--rules EXC001 must not misread a CACHE001 pragma as
    # unknown); only genuinely unregistered ids are LINT001 findings.
    return (
        {rule.rule_id for rule in active}
        | {rule.rule_id for rule in _default_rules()}
        | {META_RULE_ID}
    )


def _module_pass(
    source: str,
    logical_path: str,
    active: Sequence[Rule],
    known_ids: Iterable[str],
) -> ModuleRecord:
    """Parse + per-module rules + pragma table + project digest for one file."""
    from repro.lint.project import summarize_module

    try:
        module = LintModule.from_source(source, logical_path)
    except SyntaxError as error:
        finding = Finding(
            rule_id=META_RULE_ID,
            path=logical_path,
            line=error.lineno or 1,
            message=f"file does not parse: {error.msg}",
        )
        return ModuleRecord(logical_path, [finding], {}, None)
    pragmas, meta_findings = collect_pragmas(module.source, known_ids)
    findings = [
        dataclasses.replace(finding, path=logical_path)
        for finding in meta_findings
    ]
    for rule in active:
        if not rule.applies_to(module):
            continue
        for line, message in rule.check(module):
            reason = pragmas.get((line, rule.rule_id))
            findings.append(
                Finding(
                    rule_id=rule.rule_id,
                    path=logical_path,
                    line=line,
                    message=message,
                    suppressed=reason is not None,
                    suppression_reason=reason,
                )
            )
    return ModuleRecord(logical_path, findings, pragmas, summarize_module(module))


def _finish_project(
    records: Sequence[ModuleRecord], active: Sequence[Rule]
) -> List[Finding]:
    """Project rules + the DEAD001 stale-pragma audit over all records."""
    from repro.lint.project import LintProject, ProjectRule
    from repro.lint.rules import StalePragmaRule

    per_path: Dict[str, List[Finding]] = {
        record.logical_path: list(record.findings) for record in records
    }
    by_path = {record.logical_path: record for record in records}

    project_rules = [rule for rule in active if isinstance(rule, ProjectRule)]
    if project_rules:
        summaries = []
        for record in records:
            if record.summary is None:
                continue
            summaries.append(record.summary)
        project = LintProject(summaries)
        for rule in project_rules:
            for path, line, message in rule.check_project(project):
                record = by_path.get(path)
                reason = (
                    record.pragmas.get((line, rule.rule_id))
                    if record is not None
                    else None
                )
                per_path.setdefault(path, []).append(
                    Finding(
                        rule_id=rule.rule_id,
                        path=path,
                        line=line,
                        message=message,
                        suppressed=reason is not None,
                        suppression_reason=reason,
                    )
                )

    active_ids = {rule.rule_id for rule in active}
    for audit_rule in (r for r in active if isinstance(r, StalePragmaRule)):
        for record in records:
            module_findings = per_path.get(record.logical_path, [])
            for line, message in audit_rule.audit(
                record.pragmas, module_findings, active_ids
            ):
                reason = record.pragmas.get((line, audit_rule.rule_id))
                module_findings.append(
                    Finding(
                        rule_id=audit_rule.rule_id,
                        path=record.logical_path,
                        line=line,
                        message=message,
                        suppressed=reason is not None,
                        suppression_reason=reason,
                    )
                )

    findings = [finding for path in sorted(per_path) for finding in per_path[path]]
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule_id, f.message))


def lint_sources(
    sources: Dict[str, str], rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Lint several sources as one project (the multi-module fixture API).

    ``sources`` maps logical path -> source text; project rules see all
    of them through one shared :class:`~repro.lint.project.LintProject`.
    """
    active = list(rules) if rules is not None else list(_default_rules())
    known = _known_ids(active)
    records = [
        _module_pass(source, logical_path, active, known)
        for logical_path, source in sources.items()
    ]
    return _finish_project(records, active)


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """Every ``.py`` file under ``paths`` (files kept as-is), sorted."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
            )
        else:
            files.append(path)
    return files


def lint_paths(
    paths: Iterable[str], rules: Optional[Sequence[Rule]] = None
) -> Tuple[List[Finding], int]:
    """Lint every Python file under ``paths``.

    Returns ``(findings, files_checked)``.  A missing path raises
    :class:`FileNotFoundError` (a CI job must not silently lint nothing);
    an unparseable file becomes a ``LINT001`` finding.
    """
    files = iter_python_files(paths)
    sources = {str(path): path.read_text() for path in files}
    return lint_sources(sources, rules), len(files)


# -- reporters -------------------------------------------------------------------


def unsuppressed(findings: Sequence[Finding]) -> List[Finding]:
    """The findings that actually fail a run."""
    return [finding for finding in findings if not finding.suppressed]


def render_text(
    findings: Sequence[Finding],
    files_checked: Optional[int] = None,
    show_suppressed: bool = False,
) -> str:
    """The human-readable report (one ``path:line: RULE-ID message`` per line)."""
    lines = []
    suppressed_count = 0
    for finding in findings:
        if finding.suppressed:
            suppressed_count += 1
            if show_suppressed:
                lines.append(
                    f"{finding.path}:{finding.line}: {finding.rule_id} "
                    f"suppressed ({finding.suppression_reason}): {finding.message}"
                )
            continue
        lines.append(
            f"{finding.path}:{finding.line}: {finding.rule_id} {finding.message}"
        )
    violations = len(findings) - suppressed_count
    summary = f"{violations} violation(s), {suppressed_count} suppressed"
    if files_checked is not None:
        summary += f" across {files_checked} file(s)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding], files_checked: Optional[int] = None
) -> str:
    """The machine-readable report consumed by the CI gate."""
    violations = unsuppressed(findings)
    payload = {
        "tool": "repro-lint",
        "report_version": 2,
        "summary": {
            "files": files_checked,
            "violations": len(violations),
            "suppressed": len(findings) - len(violations),
        },
        "findings": [finding.to_json_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
