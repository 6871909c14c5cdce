#!/usr/bin/env python3
"""Small-scale self-test of the end-to-end benchmark. Stdlib only.

  python3 perfbench/selftest.py

Runs every workload at profile scale 0.05 for one second, untraced and
traced, at the default seed (where expected.json pins the counts and the
output digest) and at one other seed. Every run must exit 0 and its result
file must pass check_result.py. Then it hands the checker doctored copies
of a good result (a failed operation, a missing metric, a wrong unit, low
trace coverage, a drifted count, a changed output digest) and expects each
to be rejected. Takes well under a minute once the build exists.
"""
import copy
import json
import subprocess
import sys
from pathlib import Path

import check_result
from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.05"
OTHER_SEED = 3


def run(workload, seed, trace):
    path = ROOT / ".bench_build" / "results" / \
        f"selftest-{workload}-seed{seed}-trace{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", SCALE, "--result", str(path)],
        capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        raise SystemExit(f"selftest: {workload} seed={seed} trace={trace} "
                         f"exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(last)
    result = json.loads(path.read_text())
    assert line["metrics"] == result["metrics"], "result line != result file"
    assert line["correct"] and line["failed"] == 0, line
    return result


def expect_rejected(benchmark, expected, good, label, mutate):
    bad = copy.deepcopy(good)
    mutate(bad)
    if not check_result.check(bad, benchmark, expected):
        raise SystemExit(f"selftest: checker accepted a result with {label}")


def main():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    results = {}
    for workload in WORKLOADS:
        if SCALE not in expected["workloads"].get(workload, {}):
            raise SystemExit(f"selftest: expected.json has no scale {SCALE} "
                             f"row for {workload}")
        for seed in (check_result.DEFAULT_SEED, OTHER_SEED):
            for trace in (0, 1):
                results[workload, seed, trace] = run(workload, seed, trace)
                print(f"selftest: {workload} seed={seed} trace={trace} ok",
                      flush=True)

    traced = results["epinions_ridg_shards4", check_result.DEFAULT_SEED, 1]
    cases = {
        "a failed operation": lambda r: r.update(failed=1, fail_ratio=0.1),
        "a missing metric": lambda r: r["metrics"].pop("extract.ms"),
        "a wrong unit": lambda r: r["metrics"]["solve.ms"].update(unit="s"),
        "low trace coverage":
            lambda r: r["metrics"]["trace.coverage"].update(value=0.5),
        "a drifted count": lambda r: r["counts"].update(
            {"shard.ckpt_bytes": r["counts"]["shard.ckpt_bytes"] + 1}),
        "a changed output digest":
            lambda r: r.update(reference_sha256="0" * 64),
    }
    for label, mutate in cases.items():
        expect_rejected(benchmark, expected, traced, label, mutate)
    untraced = results["epinions_text_t1", check_result.DEFAULT_SEED, 0]
    expect_rejected(benchmark, expected, untraced, "no wall_ms_tail",
                    lambda r: r.pop("tail"))
    print(f"selftest: {len(results)} runs passed, checker rejected "
          f"{len(cases) + 1} doctored results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
