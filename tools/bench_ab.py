#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark: a git ref against the working tree.

Run from the root of a treerep checkout:

    python3 tools/bench_ab.py HEAD~1 --workload boundary_action --pairs 10 --seed 101
    python3 tools/bench_ab.py main --workload verify --seconds 35 --malloc-thresholds

The ref's committed files are unpacked with `git archive` into a temporary
directory (the parent side); the working tree is the change side.  Pair i
runs `perfbench/run.py --workload W --seed S+i --seconds T --trace 0` once on
each side, the parent first in even pairs and the change first in odd ones,
so a drift in the host's speed falls on both sides alike.  Both sides run
the working tree's interpreter with the same environment;
`--malloc-thresholds` sets glibc's mmap and trim thresholds for those
processes only, which keeps large arrays on the heap instead of in fresh
mappings.

Every run is printed as it ends: its end-to-end metrics, its `detail`
line (the per-size medians) and its minor page faults (the growth of
`RUSAGE_CHILDREN`'s `ru_minflt` across the run), which tell a process whose
large arrays land in fresh mappings from one that reuses its heap.  The summary gives, per metric and per size,
each side's median with its quartiles, the signed change of the median,
(change / parent - 1) in percent, and the number of pairs the change
won, ties counting for neither side; the direction of each end-to-end metric
is read from BENCHMARK.json, and sizes are times (lower is better).  Its last
line gives each side's line count of `src/treerep/*.py` (as `wc -l` counts
them) and the signed difference, so a change that claims to shrink the
package quotes its size from the same command as its timings.  The exit
status is 1 when any run reads `correct: false` or `failed > 0`, else 0.
Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

MALLOC_THRESHOLDS = {"MALLOC_MMAP_THRESHOLD_": "268435456", "MALLOC_TRIM_THRESHOLD_": "1073741824"}


def unpack(ref: str, root: Path, dest: Path) -> None:
    """The committed files of `ref` under `dest`."""
    archive = dest / "ref.tar"
    with archive.open("wb") as f:
        subprocess.run(["git", "-C", str(root), "archive", ref], stdout=f, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()


def run_once(tree: Path, args, seed: int, env: dict) -> dict:
    """One benchmark process: its result line plus its `detail` sizes and
    its minor page faults (`minflt`)."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=10 * args.seconds + 600
    )
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(cmd)} in {tree} failed:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    detail = next((line for line in lines if line.startswith("detail ")), "detail {}")
    result["detail"] = json.loads(detail[len("detail "):])
    result["minflt"] = faults
    return result


def source_lines(tree: Path) -> int:
    """Lines of the package's modules, `src/treerep/*.py`, counted as `wc -l` does."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "treerep").glob("*.py"))


def values(result: dict) -> dict:
    """Metric name -> value: the end-to-end metrics, then the sizes."""
    out = {name: m["value"] for name, m in result["metrics"].items()}
    out.update(result["detail"])
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def change_pct(parent: float, change: float) -> str:
    """The change median against the parent's, (change / parent - 1) in
    percent and signed; n/a where the parent's median is 0."""
    return f"{(change / parent - 1) * 100:+.1f}%" if parent else "n/a"


def summary(runs: list[tuple[dict, dict]], higher_better: set[str]) -> list[str]:
    names = list(values(runs[0][0]))
    lines = [
        f"{'metric':22s} {'parent median (q1-q3)':>34s} {'change median (q1-q3)':>34s}"
        f" {'change':>8s}  change better"
    ]
    for name in names:
        pairs = [(values(p)[name], values(c)[name]) for p, c in runs]
        sign = -1 if name in higher_better else 1
        wins = sum(sign * (c - p) < 0 for p, c in pairs)
        cells, medians = [], []
        for side in zip(*pairs):
            q1, q2, q3 = quartiles(list(side))
            cells.append(f"{q2:.6g} ({q1:.6g}-{q3:.6g})")
            medians.append(q2)
        lines.append(
            f"{name:22s} {cells[0]:>34s} {cells[1]:>34s} {change_pct(*medians):>8s}"
            f"  {wins}/{len(pairs)}"
        )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="git ref of the parent side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=101, help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--malloc-thresholds", action="store_true",
                    help="set " + " and ".join(f"{k}={v}" for k, v in MALLOC_THRESHOLDS.items()))
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    root = Path.cwd()
    if not (root / "perfbench" / "run.py").is_file():
        sys.exit(f"error: {root} holds no perfbench/run.py; run from the root of a treerep checkout")
    bench = json.loads((root / "BENCHMARK.json").read_text())
    higher_better = {m["name"] for m in bench["end_to_end"] if m["better"] == "higher"}
    env = dict(os.environ, **(MALLOC_THRESHOLDS if args.malloc_thresholds else {}))
    runs = []
    broken = 0  # runs reading correct: false or failed > 0
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        unpack(args.ref, root, Path(tmp))
        sides = {"parent": Path(tmp) / "tree", "change": root}
        lines = {side: source_lines(tree) for side, tree in sides.items()}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                got[side] = result = run_once(sides[side], args, seed, env)
                shown = " ".join(f"{k}={v:.6g}" for k, v in values(result).items())
                print(f"pair {i} seed {seed} {side}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      f"minflt={result['minflt']} {shown}", flush=True)
                broken += not result["correct"] or result["failed"] > 0
            runs.append((got["parent"], got["change"]))
    print("\n".join(summary(runs, higher_better)))
    print(f"src/treerep/*.py lines: parent {lines['parent']}, change {lines['change']} "
          f"({lines['change'] - lines['parent']:+d})")
    if broken:
        print(f"error: {broken} run(s) read correct: false or failed > 0", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
