#!/usr/bin/env python3
"""Seeded relabeling of a workload's canonical instance. Stdlib only.

  python3 perfbench/relabel.py SEED WORKDIR

Reads WORKDIR/canon.txt (a `generate` edge list) and WORKDIR/canon_snap.txt
(its `simulate` snapshot) and writes WORKDIR/graph.txt and WORKDIR/snap.txt:
the same instance under a random node-id permutation drawn from SEED, with
the edge rows re-sorted by the new ids as in a SNAP dump. The CLI's loader
numbers nodes in order of first appearance (sources before destinations),
so the relabeled file gets other internal ids, another CSR layout and other
output bytes, while the cascade forest stays the same up to labels.
run.py calls this in a child process so its own heap stays small.
"""
import random
import sys
from pathlib import Path


def relabel(seed, work):
    first_seen = {}  # file label -> the loader's node id
    rows = []
    with open(work / "canon.txt") as lines:
        header = [line for line in lines if line.startswith("#")]
        lines.seek(0)
        for line in lines:
            if line.startswith("#"):
                continue
            src, dst, rest = line.split("\t", 2)
            rows.append((first_seen.setdefault(src, len(first_seen)),
                         first_seen.setdefault(dst, len(first_seen)), rest))
    perm = list(range(len(first_seen)))
    random.Random(seed).shuffle(perm)
    rows = sorted((perm[src], perm[dst], rest) for src, dst, rest in rows)
    loaded_id = {}
    for src, dst, _ in rows:
        loaded_id.setdefault(src, len(loaded_id))
        loaded_id.setdefault(dst, len(loaded_id))
    with open(work / "graph.txt", "w") as out:
        out.writelines(header)
        out.writelines(f"{src}\t{dst}\t{rest}" for src, dst, rest in rows)
    # Snapshot rows name the loader's node ids of canon.txt.
    with open(work / "canon_snap.txt") as lines:
        entries = [line.split() for line in lines if not line.startswith("#")]
    states = sorted((loaded_id[perm[int(node)]], state)
                    for node, state in entries)
    with open(work / "snap.txt", "w") as out:
        out.writelines(f"{node} {state}\n" for node, state in states)


if __name__ == "__main__":
    relabel(int(sys.argv[1]), Path(sys.argv[2]))
