#!/usr/bin/env python3
"""Validate a perfbench result file. Stdlib only.

  python3 perfbench/check_result.py RESULT.json [RESULT.json ...]

A result file (written by run.py) passes when:
  * every metric BENCHMARK.json lists for its mode (end_to_end for --trace 0,
    per_layer for --trace 1) is present, a finite number, with that unit,
    and no other metric is; an untraced result also carries wall_ms_tail
    with its percentile and sample count;
  * no operation failed: fail_ratio == 0;
  * a traced result has trace.coverage >= 0.95 and lists every count of the
    layers its workload runs;
  * where expected.json has a row for the result's workload and scale and
    the result ran at the seed the rows were recorded at (the default
    seed), the counts and the sha256 of the reference output equal that row
    exactly. A count that drifts means the input or the algorithm changed,
    not the speed. (run.py already fails an operation whose counts differ
    from the first operation's, at any seed.)
Prints every problem and exits 1 if there is one.
"""
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
MIN_COVERAGE = 0.95
# Per-layer metrics that are counts of a fixed input: they must repeat
# exactly across operations, runs and machines at a fixed seed.
COUNTS = (
    "extract.infected", "extract.components", "extract.trees",
    "extract.candidate_arcs", "dp.giant_nodes", "dp.giant_k",
    "dp.tiny_trees", "shard.ckpt_bytes",
)


def scale_key(scale):
    return f"{scale:g}"


def check(result, benchmark, expected):
    """Returns the list of problems with `result` (empty = it passes)."""
    problems = []
    mode = "per_layer" if result["trace"] else "end_to_end"
    metrics = result.get("metrics", {})
    wanted = {m["name"]: m["unit"] for m in benchmark[mode]}
    for name, unit in wanted.items():
        entry = metrics.get(name)
        if entry is None:
            problems.append(f"metric {name} is missing")
            continue
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number: {value!r}")
        if entry.get("unit") != unit:
            problems.append(f"metric {name} has unit {entry.get('unit')!r}, "
                            f"want {unit!r}")
    for name in sorted(set(metrics) - set(wanted)):
        problems.append(f"metric {name} is not in BENCHMARK.json {mode}")

    if result["failed"] != 0 or result["fail_ratio"] != 0:
        first = result["failures"][0] if result["failures"] else "?"
        problems.append(f"fail_ratio is {result['fail_ratio']} "
                        f"({result['failed']} of {result['attempted']} "
                        f"operations failed; first: {first})")

    tail = result.get("tail", {})
    if not result["trace"] and not (
            tail.get("unit") == "ms" and
            isinstance(tail.get("value"), (int, float)) and
            math.isfinite(tail["value"]) and tail.get("samples", 0) > 0):
        problems.append(f"wall_ms_tail is missing or malformed: {tail!r}")

    counts = result["counts"]
    if result["trace"]:
        coverage = metrics.get("trace.coverage", {}).get("value", 0.0)
        if not coverage >= MIN_COVERAGE:
            problems.append(f"trace.coverage {coverage} < {MIN_COVERAGE}")
        for name in COUNTS:
            if name not in result["not_applicable"] and name not in counts:
                problems.append(f"count {name} is missing")

    row = expected["workloads"].get(result["workload"], {}).get(
        scale_key(result["scale"]))
    if row is not None and result["seed"] == expected["seed"]:
        if result["reference_sha256"] != row["sha256"]:
            problems.append(f"reference output sha256 "
                            f"{result['reference_sha256']} != committed "
                            f"{row['sha256']}")
        for name, value in counts.items():
            if row["counts"].get(name) != value:
                problems.append(f"count {name} = {value}, committed "
                                f"{row['counts'].get(name)}")
    return problems


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    bad = 0
    for path in paths:
        problems = check(json.loads(Path(path).read_text()), benchmark,
                         expected)
        for problem in problems:
            print(f"check_result: {path}: {problem}", file=sys.stderr)
        if problems:
            bad += 1
        else:
            print(f"check_result: {path}: ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
