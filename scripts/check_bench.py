#!/usr/bin/env python3
"""Validate a bench JSON report (CI perf-smoke gate).

Usage: check_bench.py BENCH_report.json

Dispatches on the report's "benchmark" tag:

  tree_dp        — seed-vs-optimized DP solve: every row must record its
                   max_reach and hard_k_cap, match the seed baseline
                   bit-for-bit, carry self-consistent timings and compute
                   at least k* columns; full reports must additionally hold
                   a row at the CLI defaults.
  columnar_load  — .ridg mmap open vs text parse: every row must prove
                   run_rid bit-identity between backends and carry
                   self-consistent timings; full (non-smoke) reports must
                   additionally show >= 10x load speedup on every row, a
                   >= 1M-edge row, and sharded worker peak RSS on .ridg
                   below the in-RAM baseline.
  oocore         — streaming convert + out-of-core detect: every row must
                   run a dense detect probe infecting >= 5% of its nodes,
                   every measured row's convert, detect and dense-detect
                   peak RSS must sit under the report's rss_cap_kb ceiling,
                   and one row must prove byte-identity to the in-RAM writer
                   and run_rid bit-identity between the .ridg view and the
                   in-RAM graph; full reports must additionally grow the
                   .ridg >= 10x across rows with a flat (<= 1.5x spread)
                   converter RSS, and the largest file must be >= 4x the
                   RSS ceiling.

Exits non-zero with a message on the first failure. Stdlib only — no
third-party imports.
"""
import json
import sys

TREE_DP_KEYS = (
    "nodes", "max_reach", "hard_k_cap", "k", "baseline_ms", "optimized_ms",
    "speedup", "cols_fresh", "match",
)
# TreeDpOptions{} — what `ridnet_cli detect` solves with.
TREE_DP_CLI_DEFAULTS = {"max_reach": 48, "hard_k_cap": 256}

COLUMNAR_KEYS = (
    "nodes", "edges", "text_bytes", "ridg_bytes", "text_load_ms",
    "ridg_open_ms", "speedup", "match", "sharded",
    "rss_inram_kb", "rss_ridg_kb",
)

COLUMNAR_MIN_SPEEDUP = 10.0
COLUMNAR_MIN_EDGES = 1_000_000


def fail(msg: str) -> None:
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_shape(path: str, doc: dict, unit: str) -> list:
    if doc.get("unit") != unit:
        fail(f"{path}: unit is {doc.get('unit')!r}, want {unit!r}")
    if not isinstance(doc.get("smoke"), bool):
        fail(f"{path}: 'smoke' flag missing or not a bool")
    rows = doc.get("results")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: results missing or empty")
    return rows


def check_speedup_consistency(path: str, i: int, row: dict,
                              num_key: str, den_key: str) -> None:
    if row[num_key] <= 0 or row[den_key] <= 0:
        fail(f"{path}: results[{i}]: non-positive timing: {row}")
    if row["speedup"] <= 0:
        fail(f"{path}: results[{i}]: non-positive speedup: {row}")
    ratio = row[num_key] / row[den_key]
    if abs(ratio - row["speedup"]) > 0.05 * ratio + 0.01:
        fail(f"{path}: results[{i}]: speedup {row['speedup']} inconsistent "
             f"with {num_key}/{den_key} ratio {ratio:.3f}")


def check_tree_dp(path: str, doc: dict) -> None:
    rows = check_shape(path, doc, "ms/solve")
    for i, row in enumerate(rows):
        for key in TREE_DP_KEYS:
            if key not in row:
                fail(f"{path}: results[{i}] missing '{key}': {row}")
        if row["match"] is not True:
            fail(f"{path}: results[{i}] ({row['nodes']} nodes): optimized "
                 f"solution does not match the seed baseline")
        check_speedup_consistency(path, i, row, "baseline_ms", "optimized_ms")
        # cols_fresh counts k-columns computed beyond each previous cap, so
        # the total equals the final cap, which must cover the answer k*.
        if row["cols_fresh"] < row["k"]:
            fail(f"{path}: results[{i}]: cols_fresh {row['cols_fresh']} < "
                 f"k* = {row['k']} — table never reached the answer")

    cli_rows = [row for row in rows
                if all(row[key] == value
                       for key, value in TREE_DP_CLI_DEFAULTS.items())]
    if not doc["smoke"] and not cli_rows:
        fail(f"{path}: full report has no row at the CLI defaults "
             f"{TREE_DP_CLI_DEFAULTS}")

    sizes = sorted({row["nodes"] for row in rows})
    kind = "smoke" if doc["smoke"] else "full"
    print(f"check_bench: {path}: OK — {len(rows)} rows ({kind}), "
          f"sizes {sizes}, {len(cli_rows)} at CLI defaults, all matched")


def check_columnar_load(path: str, doc: dict) -> None:
    rows = check_shape(path, doc, "ms/load")
    full = not doc["smoke"]
    for i, row in enumerate(rows):
        for key in COLUMNAR_KEYS:
            if key not in row:
                fail(f"{path}: results[{i}] missing '{key}': {row}")
        if row["match"] is not True:
            fail(f"{path}: results[{i}] ({row['nodes']} nodes): columnar "
                 f"run_rid diverged from the in-RAM backend")
        check_speedup_consistency(path, i, row, "text_load_ms", "ridg_open_ms")
        if full and row["speedup"] < COLUMNAR_MIN_SPEEDUP:
            fail(f"{path}: results[{i}] ({row['edges']} edges): load speedup "
                 f"{row['speedup']}x below the {COLUMNAR_MIN_SPEEDUP}x bar")
        if row["sharded"]:
            if row["rss_inram_kb"] <= 0 or row["rss_ridg_kb"] <= 0:
                fail(f"{path}: results[{i}]: sharded ran but a peak-RSS "
                     f"gauge is not positive: {row}")
            if full and row["rss_ridg_kb"] >= row["rss_inram_kb"]:
                fail(f"{path}: results[{i}] ({row['edges']} edges): worker "
                     f"RSS on .ridg ({row['rss_ridg_kb']} KiB) not below the "
                     f"in-RAM baseline ({row['rss_inram_kb']} KiB)")
        elif full:
            fail(f"{path}: results[{i}]: full report without the sharded "
                 f"RSS comparison (fork unavailable?)")
    if full and not any(r["edges"] >= COLUMNAR_MIN_EDGES for r in rows):
        fail(f"{path}: full report has no row with >= "
             f"{COLUMNAR_MIN_EDGES} edges")

    sizes = sorted({row["edges"] for row in rows})
    kind = "smoke" if doc["smoke"] else "full"
    print(f"check_bench: {path}: OK — {len(rows)} rows ({kind}), "
          f"edge counts {sizes}, all bit-identical across backends")


OOCORE_KEYS = (
    "nodes", "edges_in", "edges", "ridg_bytes", "convert_s", "edges_per_s",
    "convert_rss_kb", "detect_s", "detect_rss_kb", "dense_infected",
    "dense_detect_s", "dense_detect_rss_kb", "measured", "oracle",
    "backend_match",
)

OOCORE_MIN_DENSE_SHARE = 0.05  # dense probe's infected share of the nodes
OOCORE_MIN_GROWTH = 10.0       # largest/smallest ridg_bytes, full mode
OOCORE_MIN_CAP_RATIO = 4.0     # largest ridg_bytes vs the RSS ceiling
OOCORE_MAX_RSS_SPREAD = 1.5    # converter RSS flatness across rows


def check_oocore(path: str, doc: dict) -> None:
    rows = check_shape(path, doc, "edges/s")
    full = not doc["smoke"]
    cap_kb = doc.get("rss_cap_kb")
    if not isinstance(cap_kb, (int, float)) or cap_kb <= 0:
        fail(f"{path}: rss_cap_kb missing or not positive")

    for i, row in enumerate(rows):
        for key in OOCORE_KEYS:
            if key not in row:
                fail(f"{path}: results[{i}] missing '{key}': {row}")
        if (row["convert_s"] <= 0 or row["detect_s"] <= 0
                or row["dense_detect_s"] <= 0):
            fail(f"{path}: results[{i}]: non-positive timing: {row}")
        if row["dense_infected"] < OOCORE_MIN_DENSE_SHARE * row["nodes"]:
            fail(f"{path}: results[{i}]: dense probe infected "
                 f"{row['dense_infected']} of {row['nodes']} nodes, below "
                 f"the {OOCORE_MIN_DENSE_SHARE:.0%} bar")
        ratio = row["edges_in"] / row["convert_s"]
        if abs(ratio - row["edges_per_s"]) > 0.05 * ratio + 1.0:
            fail(f"{path}: results[{i}]: edges_per_s {row['edges_per_s']} "
                 f"inconsistent with edges_in/convert_s {ratio:.0f}")
        if row["edges"] <= 0 or row["edges"] > row["edges_in"]:
            fail(f"{path}: results[{i}]: kept edges {row['edges']} outside "
                 f"(0, edges_in={row['edges_in']}]")
        if row["measured"]:
            for key in ("convert_rss_kb", "detect_rss_kb",
                        "dense_detect_rss_kb"):
                if row[key] <= 0:
                    fail(f"{path}: results[{i}]: measured but {key} not "
                         f"positive: {row}")
                if row[key] > cap_kb:
                    fail(f"{path}: results[{i}] ({row['edges_in']} edges): "
                         f"{key} {row[key]} KiB over the {cap_kb} KiB "
                         f"ceiling")
        elif full:
            fail(f"{path}: results[{i}]: full report without RSS "
                 f"measurements (fork unavailable?)")

    if not any(r["oracle"] for r in rows):
        fail(f"{path}: no row checked byte-identity against the in-RAM "
             f"writer")
    if not any(r["backend_match"] for r in rows):
        fail(f"{path}: no row checked run_rid bit-identity between the "
             f".ridg view and the in-RAM graph")

    if full:
        smallest = min(r["ridg_bytes"] for r in rows)
        largest = max(r["ridg_bytes"] for r in rows)
        if smallest <= 0 or largest < OOCORE_MIN_GROWTH * smallest:
            fail(f"{path}: .ridg growth {largest}/{smallest} below the "
                 f"{OOCORE_MIN_GROWTH}x bar")
        if largest < OOCORE_MIN_CAP_RATIO * cap_kb * 1024:
            fail(f"{path}: largest .ridg ({largest} bytes) below "
                 f"{OOCORE_MIN_CAP_RATIO}x the RSS ceiling "
                 f"({cap_kb} KiB) — the out-of-core claim is untested")
        rss = [r["convert_rss_kb"] for r in rows]
        if max(rss) > OOCORE_MAX_RSS_SPREAD * min(rss):
            fail(f"{path}: converter RSS not flat: {rss} KiB spread exceeds "
                 f"{OOCORE_MAX_RSS_SPREAD}x while the graph grew "
                 f">= {OOCORE_MIN_GROWTH}x")

    sizes = sorted({row["edges_in"] for row in rows})
    kind = "smoke" if doc["smoke"] else "full"
    print(f"check_bench: {path}: OK — {len(rows)} rows ({kind}), "
          f"edge streams {sizes}, RSS under {cap_kb} KiB, identities hold")


CHECKERS = {
    "tree_dp": check_tree_dp,
    "columnar_load": check_columnar_load,
    "oocore": check_oocore,
}


def check(path: str) -> None:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)  # raises on invalid JSON

    tag = doc.get("benchmark")
    checker = CHECKERS.get(tag)
    if checker is None:
        fail(f"{path}: unknown benchmark tag {tag!r} "
             f"(known: {sorted(CHECKERS)})")
    checker(path, doc)


def main() -> None:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    check(sys.argv[1])


if __name__ == "__main__":
    main()
