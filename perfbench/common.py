"""Shared plumbing: paths, child processes and the per-workload result record."""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

#: A child that has not finished by then is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0


@dataclass
class Context:
    """Arguments of one benchmark run plus its private scratch directory."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: pathlib.Path

    def path(self, name: str) -> pathlib.Path:
        return self.work / name


@dataclass
class Outcome:
    """What a workload hands back to the reporter."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    # name -> (value, unit, note) for the human-readable report
    named: Dict[str, Tuple[float, str, str]] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    layer_notes: List[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def write_atomic(path: pathlib.Path, text: str) -> None:
    """Write ``text`` so a reader sees the old file or the whole new one."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def child_command(*args: str) -> List[str]:
    return [sys.executable, "-m", "perfbench.child", *args]


def run_child(args: List[str], out: pathlib.Path) -> Tuple[float, Optional[Dict[str, Any]], str]:
    """Run a child to completion; ``(wall_s, its JSON result or None, stderr tail)``."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            child_command(*args, "--out", str(out)),
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, "timed out"
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not out.exists():
        return wall, None, proc.stderr.strip()[-400:]
    return wall, json.loads(out.read_text()), ""


def fresh_work_dir(workload: str) -> pathlib.Path:
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work
