"""The committed lint baseline: known findings, each with a justification.

New project-wide rules land against a decade of code; flooding every
legacy call site with suppression pragmas would bury the signal.  The
baseline is the alternative: a committed ``analysis/baseline.json``
listing the accepted findings, each entry carrying a *written
justification* (an empty one is a ``LINT001`` violation, exactly like a
reason-less pragma).

The contract keeps the baseline honest in both directions:

* a finding matching an entry is reported ``suppressed`` (and
  ``baselined``), consuming the entry -- one entry excuses one finding;
* an entry no finding matches anymore is *expired* and becomes a
  ``DEAD001`` violation at the baseline file, mirroring stale pragmas;
* a malformed entry (missing keys, unknown rule, empty justification)
  is a ``LINT001`` violation and cannot be suppressed.

Matching is by ``(rule, path, message)`` -- line numbers drift with
unrelated edits, messages only change when the finding itself does.
``--update-baseline`` regenerates the file from the current findings,
carrying justifications over and leaving new entries' empty (so the
committer must write them before the gate passes).  A finding whose
message was reworded but which still sits at its entry's recorded
``(rule, path, line)`` keeps that entry's justification too.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import dataclasses

from repro.analysis.engine import META_RULE_ID, Finding

__all__ = [
    "apply_baseline",
    "default_baseline_path",
    "load_baseline",
    "update_baseline",
]

#: Rule id stale (expired) baseline entries are reported under.
STALE_RULE_ID = "DEAD001"

_REQUIRED_KEYS = ("rule", "path", "message", "justification")


def default_baseline_path() -> Path:
    """The committed baseline next to this module (``analysis/baseline.json``)."""
    return Path(__file__).resolve().parent / "baseline.json"


def _canonical(path_str: str) -> str:
    """Absolute resolved form of a path, for entry<->finding matching.

    The baseline stores repo-relative paths; findings may carry absolute
    ones (the test suite lints ``str(SRC)``).  Both resolve to the same
    canonical string when run from the repo root.
    """
    try:
        return str(Path(path_str).resolve())
    except OSError:  # pragma: no cover
        return path_str


def _repo_relative(path_str: str) -> str:
    """The committable form of a finding path (relative to cwd if under it)."""
    try:
        resolved = Path(path_str).resolve()
        return resolved.relative_to(Path.cwd()).as_posix()
    except (OSError, ValueError):
        return path_str


def _known_rule_ids() -> set:
    from repro.analysis.rules import RULE_INDEX

    return set(RULE_INDEX) | {META_RULE_ID}


def load_baseline(
    path: Path,
) -> Tuple[List[Dict[str, object]], List[Finding]]:
    """Parse the baseline file into ``(entries, problems)``.

    ``problems`` are LINT001 findings for an unreadable file or malformed
    entries; well-formed entries are returned even when siblings are bad.
    """
    problems: List[Finding] = []
    location = str(path)

    def problem(message: str, line: int = 1) -> None:
        problems.append(
            Finding(rule_id=META_RULE_ID, path=location, line=line, message=message)
        )

    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        problem(f"baseline is unreadable: {error}")
        return [], problems
    raw_entries = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(raw_entries, list):
        problem("baseline must be an object with an 'entries' list")
        return [], problems

    known = _known_rule_ids()
    entries: List[Dict[str, object]] = []
    for index, entry in enumerate(raw_entries):
        label = f"baseline entry #{index}"
        if not isinstance(entry, dict):
            problem(f"{label} is not an object")
            continue
        missing = [key for key in _REQUIRED_KEYS if key not in entry]
        if missing:
            problem(f"{label} is missing key(s): {', '.join(missing)}")
            continue
        rule_id = str(entry["rule"])
        if rule_id not in known:
            problem(f"{label} names unknown rule {rule_id!r}")
            continue
        if rule_id == META_RULE_ID:
            problem(f"{label}: {META_RULE_ID} findings cannot be baselined")
            continue
        if not str(entry["justification"]).strip():
            problem(
                f"{label} ({rule_id} at {entry['path']}) carries no "
                "justification; every baselined finding must say why it "
                "is accepted"
            )
            continue
        entries.append(entry)
    return entries, problems


def apply_baseline(
    findings: Sequence[Finding],
    path: Optional[Path],
    linted_paths: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Suppress findings matching baseline entries; report expired entries.

    Returns a new findings list where each entry-matched finding is
    marked ``suppressed``/``baselined`` (one entry consumes one finding),
    plus ``LINT001`` findings for malformed entries and ``DEAD001``
    findings for entries nothing matches anymore.  ``path=None`` or a
    missing file is a no-op (no baseline in play).

    ``linted_paths`` scopes the expiry check: an entry whose ``path`` was
    not linted this run is out of scope -- neither consumed nor expired
    (linting one file must not declare the rest of the baseline stale).
    ``None`` means every entry is in scope.
    """
    if path is None or not path.exists():
        return list(findings)
    entries, problems = load_baseline(path)
    scope = (
        None
        if linted_paths is None
        else {_canonical(item) for item in linted_paths}
    )

    pool: Dict[Tuple[str, str, str], List[Dict[str, object]]] = {}
    for entry in entries:
        entry_path = _canonical(str(entry["path"]))
        if scope is not None and entry_path not in scope:
            continue
        key = (str(entry["rule"]), entry_path, str(entry["message"]))
        pool.setdefault(key, []).append(entry)

    result: List[Finding] = []
    for finding in findings:
        key = (finding.rule_id, _canonical(finding.path), finding.message)
        stack = pool.get(key)
        if finding.suppressed or not stack:
            result.append(finding)
            continue
        entry = stack.pop(0)
        result.append(
            dataclasses.replace(
                finding,
                suppressed=True,
                baselined=True,
                suppression_reason=f"baseline: {entry['justification']}",
            )
        )

    for stack in pool.values():
        for entry in stack:
            result.append(
                Finding(
                    rule_id=STALE_RULE_ID,
                    path=str(path),
                    line=int(entry.get("line", 1) or 1),  # type: ignore[arg-type]
                    message=(
                        f"expired baseline entry: {entry['rule']} at "
                        f"{entry['path']} ({str(entry['message'])[:80]!r}) "
                        "matches no current finding; remove it"
                    ),
                )
            )
    result.extend(problems)
    return sorted(result, key=lambda f: (f.path, f.line, f.rule_id, f.message))


def update_baseline(
    findings: Sequence[Finding], path: Path
) -> Tuple[int, int]:
    """Rewrite the baseline from the current unsuppressed findings.

    Justifications of entries still matching a finding are carried over,
    by message first and then -- for an entry whose message no finding
    matches -- by the exact ``(rule, path, line)`` it was recorded at;
    new entries get an empty justification the committer must fill in
    (the gate treats an empty one as LINT001).  Returns
    ``(total_entries, entries_needing_justification)``.
    """
    remaining = load_baseline(path)[0] if path.exists() else []

    def carry(finding: Finding, key: str) -> Optional[str]:
        """Pop the first old entry of ``finding``'s rule and path agreeing on ``key``."""
        for index, entry in enumerate(remaining):
            if (
                str(entry["rule"]) == finding.rule_id
                and _canonical(str(entry["path"])) == _canonical(finding.path)
                and str(entry.get(key)) == str(getattr(finding, key))
            ):
                return str(remaining.pop(index)["justification"])
        return None

    live = [f for f in findings if not f.suppressed and f.rule_id != META_RULE_ID]
    by_message = [carry(finding, "message") for finding in live]
    entries: List[Dict[str, object]] = []
    missing = 0
    for finding, carried in zip(live, by_message):
        justification = carried if carried is not None else carry(finding, "line") or ""
        if not justification:
            missing += 1
        entries.append(
            {
                "rule": finding.rule_id,
                "path": _repo_relative(finding.path),
                "line": finding.line,
                "message": finding.message,
                "justification": justification,
            }
        )
    entries.sort(key=lambda e: (e["path"], e["line"], e["rule"]))  # type: ignore[arg-type,return-value]
    payload = {"version": 1, "entries": entries}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return len(entries), missing
