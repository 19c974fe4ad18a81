"""Benchmark: incremental repro-lint cache, warm vs cold over src/repro.

Acceptance pin for the v2 incremental cache: re-linting the unchanged
tree with a warm ``--cache-dir`` must beat the cold pass by at least 3x
-- a warm run replaces parse + per-module rules + summary extraction
with a stat check and a JSON read per file, leaving only the cheap
cross-module pass live.

Timings are in-process ``lint_paths`` calls (the same number the CLI
prints to stderr); subprocess wall clock would mostly measure
interpreter startup.  Warm findings must be identical to cold ones --
a cache that changes the report is worse than no cache.
"""

import time
from pathlib import Path

from record import record_benchmark

from repro.analysis.cache import LintCache, rules_signature
from repro.analysis.engine import lint_paths
from repro.analysis.rules import ALL_RULES

MIN_SPEEDUP = 3.0


SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_bench_warm_lint_beats_cold(tmp_path, report, relaxed):
    signature = rules_signature(ALL_RULES)

    start = time.perf_counter()
    cold_findings, files_checked = lint_paths(
        [str(SRC)], cache=LintCache(tmp_path / "cache", signature)
    )
    cold_s = time.perf_counter() - start
    assert files_checked > 50

    warm_cache = LintCache(tmp_path / "cache", signature)
    start = time.perf_counter()
    warm_findings, _ = lint_paths([str(SRC)], cache=warm_cache)
    warm_s = time.perf_counter() - start

    assert warm_cache.misses == 0
    assert warm_cache.hits == files_checked
    assert [f.to_json_dict() for f in warm_findings] == [
        f.to_json_dict() for f in cold_findings
    ]

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")

    entry = record_benchmark(
        "repro_lint_src",
        {
            "files_checked": files_checked,
            "cold_lint_s": cold_s,
            "warm_lint_s": warm_s,
            "speedup_warm": speedup,
            "findings_identical": True,
            "min_speedup_floor": MIN_SPEEDUP,
            "relaxed": relaxed,
        },
    )

    report(
        "repro-lint incremental cache: warm vs cold over src/repro",
        "\n".join(
            [
                f"files checked:      {files_checked}",
                f"cold (empty cache): {cold_s * 1e3:8.1f} ms",
                f"warm (all hits):    {warm_s * 1e3:8.1f} ms",
                f"speedup:            {speedup:8.1f}x (floor {MIN_SPEEDUP}x)",
                f"recorded:           {entry['commit']}",
            ]
        ),
    )

    if not relaxed:
        assert speedup >= MIN_SPEEDUP, (
            f"warm lint only {speedup:.1f}x faster than cold "
            f"(floor {MIN_SPEEDUP}x)"
        )
