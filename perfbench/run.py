#!/usr/bin/env python3
"""End-to-end benchmark of `ridnet_cli detect` (see perfbench/WORKLOADS.md).

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                           [--trace 0|1] [--scale F] [--result FILE]

Builds ridnet_cli and the traced driver from this checkout (the CMake
package in perfbench/, build tree in .bench_build/), makes the workload's
inputs with the CLI (generate -> simulate, relabel.py with --seed, then
convert for .ridg workloads), then runs a closed loop with one client:
`ridnet_cli detect` as a fresh child process per operation, the next one
starting only after the previous one is reaped, for --seconds. Every operation's --out bytes must equal a reference made
during set-up by `detect --threads=1 --arc-gather=copy` on the text input.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced CLI
operations with runs of perfbench/detect_trace, which makes the CLI's
library calls and times each one, and reports the per-layer metrics. The
metric names and units are BENCHMARK.json's. The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; the full result
goes to --result (default .bench_build/results/). The exit code is nonzero
when an operation failed or the result does not pass check_result.py.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import NamedTuple

import check_result

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "RelWithDebInfo"
# Set-up repetitions per run; setup_s is their median.
SETUPS = 3
# wall_ms_tail needs at least one sample with ten samples above it.
MIN_OPS = 11
MIN_TRACED_PAIRS = 3
SIM_FLAGS = ["--n=1000", "--theta=0.5"]
# generate --seed and simulate --sim-seed: the CLI defaults, which make the
# Table II-sized instances the workloads are defined on. --seed relabels
# them (relabel.py) instead of redrawing them; see WORKLOADS.md, "Seeds".
CANONICAL_SEEDS = (42, 7)


class Workload(NamedTuple):
    profile: str
    ridg: bool
    flags: list

    @property
    def sharded(self):
        return any(f.startswith("--shards=") for f in self.flags)


# Why each workload was chosen, and which layers it loads and bypasses:
# WORKLOADS.md.
WORKLOADS = {
    "epinions_text_t1": Workload("epinions", False, ["--threads=1"]),
    "slashdot_ridg_t4": Workload("slashdot", True, ["--threads=4"]),
    "epinions_ridg_shards4": Workload("epinions", True, ["--shards=4"]),
}

WROTE_RE = re.compile(rb"^wrote \S+ \((\d+) initiators from (\d+) trees, "
                      rb"(\d+) components\)$", re.M)


class BenchError(Exception):
    pass


class Sample(NamedTuple):
    wall_ms: float
    user_ms: float
    sys_ms: float
    maxrss_kb: int
    code: int


def child_env():
    # Fault injection and remote-worker settings must not leak into runs.
    return {k: v for k, v in os.environ.items() if not k.startswith("RID_")}


def run_logged(args, log):
    with open(log, "ab") as out:
        code = subprocess.run([str(a) for a in args], stdout=out,
                              stderr=subprocess.STDOUT).returncode
    if code != 0:
        tail = log.read_text(errors="replace").splitlines()[-30:]
        raise BenchError(f"{args[0]} {args[1]} failed (exit {code}):\n" +
                         "\n".join(tail))


def build(build_root):
    cmake_dir = build_root / "cmake"
    log = build_root / "build.log"
    if not (cmake_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", HERE, "-B", cmake_dir, *generator,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], log)
    run_logged(["cmake", "--build", cmake_dir, "--target", "ridnet_cli",
                "detect_trace", "-j", min(4, os.cpu_count() or 1)], log)
    return cmake_dir / "ridnet/examples/ridnet_cli", cmake_dir / "detect_trace"


def stop_group(proc):
    """Kills the child's process group (the CLI and its shard workers), reaps
    the child, and waits until the orphaned workers are gone too."""
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        if proc.poll() is None:
            proc.wait()
        time.sleep(0.01)


def spawn(args, cwd):
    """Runs one child to completion: wall from fork to reap, wait4 rusage
    (which covers the child's own reaped children)."""
    with open(cwd / "op.stdout", "wb") as out, open(cwd / "op.stderr",
                                                     "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in args], cwd=cwd, stdout=out,
                                stderr=err, env=child_env(),
                                start_new_session=True)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            stop_group(proc)
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall * 1e3, usage.ru_utime * 1e3, usage.ru_stime * 1e3,
                  usage.ru_maxrss, proc.returncode)


def stderr_tail(cwd):
    lines = (cwd / "op.stderr").read_text(errors="replace").splitlines()
    return " | ".join(lines[-3:])


def run_checked(args, cwd, what):
    sample = spawn(args, cwd)
    if sample.code != 0:
        raise BenchError(f"{what} exited {sample.code}: {stderr_tail(cwd)}")
    return sample


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def timed_step(args, work, name, times):
    start = time.perf_counter()
    run_checked(args, work, name)
    times.setdefault(name, []).append(time.perf_counter() - start)


def same_files(work, files, digests):
    """Set-up repetitions must write identical files."""
    now = {f: sha256(work / f) for f in files}
    if digests and now != digests:
        raise BenchError(f"set-up is not deterministic: {now} != {digests}")
    return now


def set_up(cli, work, wl, seed, scale):
    """generate -> simulate -> relabel.py [-> convert]. The CLI steps run
    SETUPS times and must write identical files each time; setup_s is the
    median over repetitions of their summed time (the relabel is the
    benchmark's own work and is not part of it)."""
    times = {}
    digests = None
    for _ in range(SETUPS):
        timed_step([cli, "generate", f"--profile={wl.profile}",
                    f"--scale={scale}", f"--seed={CANONICAL_SEEDS[0]}",
                    "--out=canon.txt"], work, "generate", times)
        timed_step([cli, "simulate", "--graph=canon.txt", *SIM_FLAGS,
                    f"--sim-seed={CANONICAL_SEEDS[1]}",
                    "--snapshot=canon_snap.txt", "--truth=truth.txt"],
                   work, "simulate", times)
        digests = same_files(work, ["canon.txt", "canon_snap.txt"], digests)
    # In a child: a large heap here would raise the ru_maxrss of every
    # process spawned afterwards (exec inherits the parent's RSS high-water).
    start = time.perf_counter()
    if subprocess.run([sys.executable, HERE / "relabel.py", str(seed),
                       work]).returncode != 0:
        raise BenchError("relabel.py failed")
    relabel_s = time.perf_counter() - start
    if wl.ridg:
        digests = None
        for _ in range(SETUPS):
            timed_step([cli, "convert", "--graph=graph.txt",
                        "--snapshot=snap.txt", "--out=graph.ridg"],
                       work, "convert", times)
            digests = same_files(work, ["graph.ridg"], digests)
    out = {f"setup.{name}_s": median(ts)
           for name, ts in times.items()}
    out["setup_s"] = median(map(sum, zip(*times.values())))
    out["relabel_s"] = relabel_s
    return out


def parse_wrote(stdout):
    match = WROTE_RE.search(stdout)
    return tuple(int(g) for g in match.groups()) if match else None


class Reference(NamedTuple):
    out: bytes
    sha256: str
    wrote: tuple  # (initiators, trees, components)


def make_reference(cli, work):
    run_checked([cli, "detect", "--graph=graph.txt", "--snapshot=snap.txt",
                 "--threads=1", "--arc-gather=copy", "--out=ref.txt"],
                work, "reference detect")
    out = (work / "ref.txt").read_bytes()
    wrote = parse_wrote((work / "op.stdout").read_bytes())
    if wrote is None:
        raise BenchError("reference detect printed no 'wrote' line")
    return Reference(out, hashlib.sha256(out).hexdigest(), wrote)


class Loop:
    """Closed loop, one client: every operation is a fresh child process,
    checked against the reference before the next one starts."""

    def __init__(self, wl, work, ref, cli, driver):
        self.wl, self.work, self.ref = wl, work, ref
        self.cli, self.driver = cli, driver
        self.graph = ["--graph=graph.ridg"] if wl.ridg else [
            "--graph=graph.txt", "--snapshot=snap.txt"]
        self.cli_samples, self.driver_samples, self.reports = [], [], []
        self.attempted = 0
        self.failures = []

    def _args(self, program):
        args = [program] + (["detect"] if program == self.cli else [])
        args += self.graph + self.wl.flags + ["--out=out.txt"]
        if self.wl.sharded:
            args.append("--run-dir=rd")  # removed after every operation
        if program == self.driver:
            args.append("--report=report.json")
        return args

    def _fail(self, what):
        self.failures.append(f"operation {self.attempted}: {what}")

    def _finish(self, sample):
        """Common checks; True when the operation's output is correct."""
        ok = False
        if sample.code != 0:
            self._fail(f"exit {sample.code}: {stderr_tail(self.work)}")
        elif (self.work / "out.txt").read_bytes() != self.ref.out:
            self._fail("--out bytes differ from the reference")
        elif parse_wrote((self.work / "op.stdout").read_bytes()) != \
                self.ref.wrote:
            self._fail("initiator/tree/component counts differ from the "
                       "reference")
        else:
            ok = True
        (self.work / "out.txt").unlink(missing_ok=True)
        shutil.rmtree(self.work / "rd", ignore_errors=True)
        return ok

    def cli_op(self):
        self.attempted += 1
        sample = spawn(self._args(self.cli), self.work)
        if self._finish(sample):
            self.cli_samples.append(sample)

    def driver_op(self):
        self.attempted += 1
        sample = spawn(self._args(self.driver), self.work)
        if not self._finish(sample):
            return
        report = json.loads((self.work / "report.json").read_text())
        counts = report["counts"]
        initiators, trees, components = self.ref.wrote
        if (counts["initiators"], counts["trees"],
                counts["components"]) != (initiators, trees, components):
            self._fail("traced counts differ from the reference")
        elif counts["dp_initiators"] != counts["initiators"] or \
                counts["forest_nodes"] != counts["infected"]:
            self._fail("DP pass or forest disagrees with the pipeline: "
                       f"{counts}")
        elif self.reports and (counts != self.reports[0]["counts"] or
                               report["shard"]["ckpt_bytes"] !=
                               self.reports[0]["shard"]["ckpt_bytes"]):
            self._fail("counts drifted between operations")
        else:
            self.driver_samples.append(sample)
            self.reports.append(report)

    def run(self, seconds, traced):
        deadline = time.perf_counter() + seconds
        done = 0
        while True:
            self.cli_op()
            if traced:
                self.driver_op()
            done += 1
            if time.perf_counter() >= deadline and \
                    done >= (MIN_TRACED_PAIRS if traced else MIN_OPS):
                break


def tail(walls):
    """Highest percentile with at least ten samples above it."""
    ordered = sorted(walls)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(loop, setup):
    """The gated metrics, and wall_ms_tail with its percentile and sample
    count (printed and stored, but not in BENCHMARK.json: see
    WORKLOADS.md)."""
    walls = [s.wall_ms for s in loop.cli_samples]
    tail_ms, tail_pct = tail(walls)
    metrics = {
        "wall_ms_p50": median(walls),
        "cpu_ms_p50": median([s.user_ms + s.sys_ms for s in loop.cli_samples]),
        "peak_rss_mib": median([s.maxrss_kb for s in loop.cli_samples]) / 1024,
        "setup_s": setup["setup_s"],
    }
    return metrics, {"value": tail_ms, "unit": "ms", "percentile": tail_pct,
                     "samples": len(walls)}


def per_layer(loop, wl, setup):
    """Medians over the traced operations. Layers a workload does not run
    report 0 and are listed in not_applicable."""
    def call(report, name, field="ns"):
        return sum(c[field] for c in report["calls"] if c["name"] == name)

    def call_ms(report, name):
        return call(report, name) / 1e6

    def med(fn):
        return median([fn(r) for r in loop.reports])

    first = loop.reports[0]
    threads = first["threads"]
    counts = first["counts"]
    driver_walls = [s.wall_ms - r["extra_ns"] / 1e6
                    for s, r in zip(loop.driver_samples, loop.reports)]
    timed = [sum(c["ns"] for c in r["calls"]) / 1e6 for r in loop.reports]
    load_ms = med(lambda r: call_ms(r, "graph.load_text"))
    solve_ms = med(lambda r: call_ms(r, "solve"))
    metrics = {
        "graph.load_text_ms": load_ms,
        "graph.load_text_mb_s": (first["text_bytes"] / 1e6 / (load_ms / 1e3)
                                 if load_ms else 0.0),
        "graph.reverse_ms": med(lambda r: call_ms(r, "graph.reverse")),
        "graph.open_ridg_ms": med(lambda r: call_ms(r, "graph.open_ridg")),
        "snapshot.load_ms": med(lambda r: call_ms(r, "snapshot.load")),
        "snapshot.write_ms": med(lambda r: call_ms(r, "snapshot.write")),
        "extract.ms": med(lambda r: call_ms(r, "extract")),
        "extract.sys_ms": med(lambda r: call(r, "extract", "sys_us") / 1e3),
        "extract.minflt": med(lambda r: call(r, "extract", "minflt")),
        "extract.infected": counts["infected"],
        "extract.components": counts["components"],
        "extract.trees": counts["trees"],
        "extract.candidate_arcs": counts["candidate_arcs"],
        "solve.ms": solve_ms,
        "solve.parallel_eff": (med(lambda r: r["dp"]["tree_ns_sum"] / 1e6 /
                                   (threads * call_ms(r, "solve")))
                               if solve_ms else 0.0),
        "dp.tree_ms_sum": med(lambda r: r["dp"]["tree_ns_sum"] / 1e6),
        "dp.giant_ms": med(lambda r: r["dp"]["giant_ns"] / 1e6),
        "dp.giant_nodes": counts["giant_nodes"],
        "dp.giant_k": counts["giant_k"],
        "dp.tiny_trees": counts["tiny_trees"],
        "shard.ms": med(lambda r: call_ms(r, "shard")),
        "shard.child_cpu_ms": med(lambda r: r["shard"]["child_cpu_us"] / 1e3),
        "shard.child_rss_mib": med(lambda r: r["shard"]["child_maxrss_kb"] /
                                   1024),
        "shard.ckpt_bytes": first["shard"]["ckpt_bytes"],
        "proc.user_ms": median([s.user_ms for s in loop.cli_samples]),
        "proc.sys_ms": median([s.sys_ms for s in loop.cli_samples]),
        "trace.coverage": median([t / (r["main_to_write_ns"] / 1e6)
                                  for t, r in zip(timed, loop.reports)]),
        "trace.unattributed_ms": median([w - t for w, t in
                                         zip(driver_walls, timed)]),
        "trace.overhead_ms": (median(driver_walls) -
                              median([s.wall_ms for s in loop.cli_samples])),
        "setup.generate_s": setup["setup.generate_s"],
        "setup.simulate_s": setup["setup.simulate_s"],
        "setup.convert_s": setup.get("setup.convert_s", 0.0),
    }
    not_applicable = []
    if wl.ridg:
        not_applicable += ["graph.load_text_ms", "graph.load_text_mb_s",
                           "graph.reverse_ms"]
    else:
        not_applicable += ["graph.open_ridg_ms", "setup.convert_s"]
    if wl.sharded:
        not_applicable += ["solve.ms", "solve.parallel_eff"]
    else:
        not_applicable += ["shard.ms", "shard.child_cpu_ms",
                           "shard.child_rss_mib", "shard.ckpt_bytes"]
    result_counts = {name: metrics[name] for name in check_result.COUNTS
                     if name not in not_applicable}
    result_counts["initiators"] = counts["initiators"]
    return metrics, not_applicable, result_counts


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=check_result.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="profile scale (1.0 = Table II size)")
    parser.add_argument("--result", type=Path,
                        help="result file (default .bench_build/results/)")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    # Unwind through spawn(), which kills the running child's process group.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    missing = [p for p in ("CMakeLists.txt", "src", "examples/ridnet_cli.cpp")
               if not (ROOT / p).exists()]
    if missing:
        raise BenchError(f"{ROOT} is not a RIDNet checkout (missing "
                         f"{', '.join(missing)}); nothing to build")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root.mkdir(parents=True, exist_ok=True)
    cli, driver = build(build_root)
    work = build_root / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup = set_up(cli, work, wl, args.seed, args.scale)
    ref = make_reference(cli, work)
    loop = Loop(wl, work, ref, cli, driver)
    loop.run(args.seconds, traced=bool(args.trace))
    if not loop.cli_samples or (args.trace and not loop.reports):
        raise BenchError("no operation succeeded: " + "; ".join(loop.failures[:3]))

    result = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds,
        "host": {"nproc": os.cpu_count(), "build_type": BUILD_TYPE,
                 "cli": str(cli.relative_to(ROOT))},
        "attempted": loop.attempted, "failed": len(loop.failures),
        "fail_ratio": len(loop.failures) / loop.attempted,
        "failures": loop.failures[:10],
        "reference_sha256": ref.sha256,
        "counts": {"initiators": ref.wrote[0], "extract.trees": ref.wrote[1],
                   "extract.components": ref.wrote[2]},
        "not_applicable": [],
    }
    if args.trace:
        metrics, result["not_applicable"], counts = per_layer(loop, wl, setup)
        result["counts"].update(counts)
        wanted = benchmark["per_layer"]
    else:
        metrics, result["tail"] = end_to_end(loop, setup)
        wanted = benchmark["end_to_end"]
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]],
                                     "unit": m["unit"]} for m in wanted}
    problems = check_result.check(result, benchmark, expected)
    result["correct"] = not problems

    path = args.result or (build_root / "results" /
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}: seed={args.seed} scale={args.scale} "
          f"seconds={args.seconds} trace={args.trace} "
          f"profile={wl.profile} flags={' '.join(wl.flags)}")
    print(f"host: nproc={os.cpu_count()} build={BUILD_TYPE} "
          f"cli={result['host']['cli']}")
    print(f"set-up: {SETUPS} repetitions, relabel {setup['relabel_s']:.2f} s; "
          f"{len(loop.cli_samples)} CLI and {len(loop.reports)} traced "
          f"operations in {args.seconds} s")
    for name, entry in result["metrics"].items():
        note = " (not applicable)" if name in result["not_applicable"] else ""
        print(f"  {name:24s} {entry['value']:14.4f} {entry['unit']}{note}")
    if "tail" in result:
        tail_ = result["tail"]
        print(f"  {'wall_ms_tail':24s} {tail_['value']:14.4f} ms "
              f"(p{tail_['percentile']:.1f} of {tail_['samples']} samples)")
    print(f"  {'fail_ratio':24s} {result['fail_ratio']:14.4f} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(f"result: {path}")
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as error:
        print(f"run.py: {error}", file=sys.stderr)
        sys.exit(2)
