#!/usr/bin/env python3
"""bench_compare: gate CI on wall-clock regressions in bench JSON output.

The JSON-writing harnesses (bench/p1_web_scale, bench/s2_multiquery,
bench/r3_durability, bench/r4_churn) write one JSON object per line with the
fixed schema

    {"workload": str, "wall_ms": float, "virtual_ms": float,
     "messages": int, "bytes": int}

to BENCH_WEB.json / BENCH_MULTIQUERY.json / BENCH_DURABILITY.json /
BENCH_CHURN.json at the repo root. This tool compares a freshly produced
file against a stored baseline and exits 1 when any workload row's wall_ms
regressed by more than the threshold
(default 15%). A missing baseline is not an error — first runs pass and the
produced file becomes the next baseline.

virtual_ms / messages / bytes are *determinism* measures: they must match the
baseline exactly for the same code, so a mismatch is printed as a warning
(code changes legitimately move them; wall-clock is the only gate).

Two further gates run within CURRENT alone (no baseline needed):

  sharing      when the multiquery bench emits both s2_multiquery_q16 and
               s2_multiquery_shared_q16 rows, cross-query sharing must keep
               shared message traffic at or below half the unshared count
               (the sublinearity claim of the result cache + batch
               envelopes).

  memory       any row carrying a bytes_per_document field (the p1 bench's
               p1_web_scale_memory row describes its 10^5-document lazy
               web) must stay at or below the per-document ceiling; the lazy
               arena/interner representation must not regress into
               megabytes-per-web territory.

Each violation exits 1 and prints the offending metric deltas, not a bare
failure.

Usage: bench_compare.py BASELINE CURRENT [--threshold 0.15]
Exit: 0 ok (or no baseline), 1 regression, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def load(path: str) -> dict[str, dict]:
    rows: dict[str, dict] = {}
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{line_no}: bad JSON: {e}") from e
            for field in ("workload", "wall_ms"):
                if field not in row:
                    raise ValueError(
                        f"{path}:{line_no}: bench row is missing metric "
                        f"'{field}' (row: {line})")
            # Validate metric types up front so a malformed row fails with
            # the metric's name, not a TypeError deep in the comparison.
            for field in ("wall_ms", "virtual_ms", "messages", "bytes",
                          "cache_hit_rate", "bytes_per_document",
                          "peak_rss_bytes", "documents", "materialized"):
                if field in row and (isinstance(row[field], bool)
                                     or not isinstance(row[field],
                                                       (int, float))):
                    raise ValueError(
                        f"{path}:{line_no}: metric '{field}' is "
                        f"{row[field]!r}, expected a number")
            rows[row["workload"]] = row
    return rows


SHARING_GATE_Q = 16
SHARING_GATE_RATIO = 0.5


def check_sharing(current: dict[str, dict]) -> list[str]:
    """Sublinearity gate: shared q16 traffic must be <= half of unshared.

    Returns a list of human-readable violations (empty when the gate passes
    or the multiquery rows are absent). Each violation names the metric and
    its delta so a failing CI log is actionable on its own.
    """
    plain = current.get(f"s2_multiquery_q{SHARING_GATE_Q}")
    shared = current.get(f"s2_multiquery_shared_q{SHARING_GATE_Q}")
    if plain is None or shared is None:
        return []
    violations: list[str] = []
    for field in ("messages", "bytes"):
        missing = [row["workload"] for row in (plain, shared)
                   if field not in row]
        if missing:
            # A silently absent metric would pass the gate vacuously; name
            # the metric and the row so the failing log is actionable.
            violations.append(
                f"row(s) {', '.join(missing)} missing metric '{field}' — "
                "cannot evaluate the sharing gate")
            continue
        base, cur = plain[field], shared[field]
        limit = base * SHARING_GATE_RATIO
        ratio = cur / base if base else float("inf")
        verdict = "VIOLATION" if field == "messages" and cur > limit else "ok"
        print(f"bench_compare: sharing q{SHARING_GATE_Q}: {field} "
              f"unshared {base} -> shared {cur} "
              f"({ratio:.2f}x, gate {SHARING_GATE_RATIO:.2f}x on messages) "
              f"{verdict}")
        if verdict == "VIOLATION":
            violations.append(
                f"shared {field} {cur} exceeds {limit:.0f} "
                f"({SHARING_GATE_RATIO:.2f} x unshared {base}; "
                f"delta +{cur - limit:.0f})")
    if "cache_hit_rate" in shared:
        print(f"bench_compare: sharing q{SHARING_GATE_Q}: cache_hit_rate "
              f"{shared['cache_hit_rate']:.3f}")
    return violations


MEMORY_GATE_BYTES_PER_DOC = 1024


MEMORY_GATE_ROW = "p1_web_scale_memory"


def check_memory(current: dict[str, dict]) -> list[str]:
    """Memory gate: lazy-web rows must stay under the per-document ceiling.

    Applies to every row that carries a bytes_per_document field (the p1
    bench emits one MEMORY_GATE_ROW row for its 10^5-document web). A
    MEMORY_GATE_ROW row *without* the field is itself a violation — the gate
    must not pass vacuously because the bench stopped recording the metric.
    """
    violations: list[str] = []
    for name, row in sorted(current.items()):
        if "bytes_per_document" not in row:
            if name == MEMORY_GATE_ROW:
                violations.append(
                    f"row {name} missing metric 'bytes_per_document' — "
                    "cannot evaluate the memory gate")
            continue
        bpd = row["bytes_per_document"]
        verdict = ("VIOLATION" if bpd > MEMORY_GATE_BYTES_PER_DOC else "ok")
        docs = row.get("documents", "?")
        print(f"bench_compare: memory: {name}: {bpd} bytes/document "
              f"({docs} documents, gate {MEMORY_GATE_BYTES_PER_DOC}) "
              f"{verdict}")
        if verdict == "VIOLATION":
            violations.append(
                f"{name}: bytes_per_document {bpd} exceeds "
                f"{MEMORY_GATE_BYTES_PER_DOC} "
                f"(delta +{bpd - MEMORY_GATE_BYTES_PER_DOC})")
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="stored baseline JSON-lines file")
    parser.add_argument("current", help="freshly produced JSON-lines file")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed fractional wall_ms growth (default .15)")
    args = parser.parse_args()

    try:
        current = load(args.current)
    except (OSError, ValueError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2
    gate_violations: list[tuple[str, str]] = []
    for gate, check in (("sharing", check_sharing),
                        ("memory", check_memory)):
        for violation in check(current):
            print(f"bench_compare: {gate} gate: {violation}",
                  file=sys.stderr)
            gate_violations.append((gate, violation))

    if not os.path.exists(args.baseline):
        print(f"bench_compare: no baseline at {args.baseline}; passing"
              f"{' (current-run gates still enforced)' if gate_violations else ''}")
        return 1 if gate_violations else 0
    try:
        baseline = load(args.baseline)
    except (OSError, ValueError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2

    regressions = []
    for name, base_row in sorted(baseline.items()):
        cur_row = current.get(name)
        if cur_row is None:
            print(f"bench_compare: note: {name} missing from current run")
            continue
        base_wall, cur_wall = base_row["wall_ms"], cur_row["wall_ms"]
        limit = base_wall * (1.0 + args.threshold)
        verdict = "REGRESSION" if cur_wall > limit else "ok"
        print(f"bench_compare: {name}: wall {base_wall:.3f} -> "
              f"{cur_wall:.3f} ms (limit {limit:.3f}) {verdict}")
        if cur_wall > limit:
            regressions.append(name)
        for field in ("virtual_ms", "messages", "bytes"):
            if field in base_row and field in cur_row \
                    and base_row[field] != cur_row[field]:
                print(f"bench_compare: warning: {name}: {field} changed "
                      f"{base_row[field]} -> {cur_row[field]}")
    for name in sorted(set(current) - set(baseline)):
        print(f"bench_compare: note: new row {name}")

    if regressions:
        print(f"bench_compare: {len(regressions)} wall-clock regression(s) "
              f"beyond {args.threshold:.0%}", file=sys.stderr)
        return 1
    if gate_violations:
        gates = ", ".join(sorted({gate for gate, _ in gate_violations}))
        print(f"bench_compare: {len(gate_violations)} gate violation(s) "
              f"({gates})", file=sys.stderr)
        return 1
    print("bench_compare: within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
