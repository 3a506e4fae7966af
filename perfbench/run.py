#!/usr/bin/env python3
"""treerep benchmark: three seeded workloads, end to end and per layer.

Run from the root of a treerep checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --summary --seconds 35     # all workloads, by name

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
measures the workload untraced for half the time, then traced for the other
half, and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is the JSON result; the lines before it give the
provenance, the per-size timings and any failed check.  See README.md.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
MIN_PASSES = 3
SIZE_SECONDS = 0.5  # untraced: time each size gets per pass, at least one call
MIN_TRACE_PASSES = 2
E2E_UNITS = {
    "setup_s": "s",
    "q2_s": "s",
    "q3_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def find_checkout() -> Path:
    """The checkout root holding src/treerep; refuse to run without it."""
    root = Path.cwd()
    if not (root / "src" / "treerep" / "__init__.py").is_file():
        sys.exit(f"error: {root} holds no src/treerep; run from the root of a treerep checkout")
    return root


def import_package(root: Path) -> SimpleNamespace:
    src = root / "src"
    sys.path.insert(0, str(src))
    modules = {
        name: importlib.import_module(f"treerep.{name}")
        for name in ("tree", "automorphism", "measure", "operators", "representation", "suites", "cli")
    }
    where = Path(modules["cli"].__file__).resolve()
    if not where.is_relative_to(src.resolve()):
        sys.exit(f"error: imported treerep from {where}, not from {src}")
    return SimpleNamespace(**modules)


def schema_validator(root: Path):
    import jsonschema

    schema = json.loads((root / "docs" / "report_schema.json").read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


# -- provenance -------------------------------------------------------------------


def provenance(root: Path, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha or "unknown (not a git checkout)",
        "src_sha256": workloads.sha256(
            b"".join(p.read_bytes() for p in sorted((root / "src" / "treerep").glob("*.py")))
        ),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "env": {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "TREEREP_THREADS")},
    }


# -- measurement --------------------------------------------------------------------


def import_seconds(root: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI, as a user pays it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import treerep.cli"], env=env, check=True, timeout=120)
    return time.perf_counter() - start


def setup(pkg, root: Path, name: str, seed: int, tmp: Path, validator, ref: speed.Reference):
    """Import, input generation and cache warm-up, SETUP_REPS times.

    Returns the workload and the median raw and scaled set-up seconds.
    """
    raw, times = [], []
    for _ in range(SETUP_REPS):
        before = ref.time()
        imported = import_seconds(root)
        cache_clear = getattr(pkg.tree.letter_matrix, "cache_clear", None)
        if cache_clear:
            cache_clear()
        t0 = time.perf_counter()
        wl = workloads.PREPARE[name](pkg, seed, tmp, validator)
        elapsed = imported + time.perf_counter() - t0
        raw.append(elapsed)
        times.append(ref.scale(elapsed, before, ref.time()))
    return wl, statistics.median(raw), statistics.median(times)


class Loop:
    """Closed loop over the workload's sizes, one call at a time.

    A pass calls every size in turn; a size is called again within the
    pass until `size_seconds` have gone to it, so short sizes collect as
    many samples as long ones take time.  The reference loops run right
    before and right after every call, and each call is also kept scaled
    by them (see speed.py); a pass's time is the sum of its calls' raw
    times.
    """

    def __init__(self, wl: workloads.Workload, ref: speed.Reference, size_seconds: float = 0.0):
        self.wl = wl
        self.ref = ref
        self.size_seconds = size_seconds
        self.per_size = {s.metric: [] for s in wl.sizes}
        self.scaled = {s.metric: [] for s in wl.sizes}
        self.passes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, size: workloads.Size) -> float:
        problems = None
        before = self.ref.time()
        start = time.perf_counter()
        try:
            out = size.call()
        except Exception:  # a failed call is counted, not fatal
            problems = [traceback.format_exc(limit=3)]
        elapsed = time.perf_counter() - start
        self.per_size[size.metric].append(elapsed)
        self.scaled[size.metric].append(self.ref.scale(elapsed, before, self.ref.time()))
        self.attempted += 1
        if problems is None:
            try:
                problems = size.check(out)
            except Exception:  # malformed output fails its check
                problems = [traceback.format_exc(limit=3)]
        if problems:
            self.failed += 1
            self.problems.extend(f"{size.metric}: {p}" for p in problems)
        return elapsed

    def one_pass(self) -> float:
        """Returns the pass's wall time; records the sum of its call times."""
        start = time.perf_counter()
        busy = 0.0
        for size in self.wl.sizes:
            spent = self.call(size)
            while spent < self.size_seconds:
                spent += self.call(size)
            busy += spent
        self.passes.append(busy)
        return time.perf_counter() - start

    def run(self, seconds: float, min_passes: int) -> None:
        """Passes until the next one would end past `seconds`."""
        deadline = time.perf_counter() + seconds
        last = self.one_pass()
        for _ in range(min_passes - 1):
            last = self.one_pass()
        while time.perf_counter() + last <= deadline:
            last = self.one_pass()

    def typical_pass(self, times: dict) -> float:
        """One call at every size, each at its median time."""
        return sum(statistics.median(v) for v in times.values())


def tail(values: list[float]) -> str:
    """Highest listed percentile with at least ten samples above it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            rank = max(0, math.ceil(p / 100 * n) - 1)
            return f"p{p:g}={sorted(values)[rank]:.6f}"
    return f"max={max(values):.6f} (no percentile has 10 samples above it)"


def size_lines(loop: Loop) -> list[str]:
    lines = []
    for size in loop.wl.sizes:
        vals, scl = loop.per_size[size.metric], loop.scaled[size.metric]
        lines.append(
            f"  {size.metric:16s} raw median={statistics.median(vals):.6f} s  {tail(vals)}  "
            f"scaled median={statistics.median(scl):.6f} s  {tail(scl)}  n={len(vals)}"
        )
    lines.append(
        f"  {'pass_s':16s} raw {loop.typical_pass(loop.per_size):.6f} s, "
        f"scaled {loop.typical_pass(loop.scaled):.6f} s (sums of the medians), {len(loop.passes)} passes"
    )
    return lines


def end_to_end(loop: Loop, setup_s: float) -> dict:
    by_label = {size.label: statistics.median(loop.scaled[size.metric]) for size in loop.wl.sizes}
    values = {
        "setup_s": setup_s,
        "q2_s": by_label["q2"],
        "q3_s": by_label["q3"],
        "pass_s": loop.typical_pass(loop.scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (loop.attempted - loop.failed) / loop.attempted,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def per_layer(tr: tracer.Tracer, wl, untraced: Loop, traced: Loop) -> tuple[dict, list[str], list[str]]:
    """Per-pass layer figures, notes, and coverage problems."""
    passes = len(traced.passes)
    totals = tr.totals()
    values = {}
    for name, unit in tracer.metric_names():
        base, _, field = name.rpartition(".")
        calls, self_s, rows = totals.get(base, (0, 0.0, 0))
        if name == "trace_overhead_ratio":
            value = statistics.median(traced.passes) / statistics.median(untraced.passes)
        elif name == "suites.busy_s":
            value = tr.busy_s / passes
        else:
            value = {"calls": calls, "self_s": self_s, "rows": rows}[field] / passes
        values[name] = {"value": value, "unit": unit}
    notes = [
        f"traced passes {passes}, untraced passes {len(untraced.passes)}; layer figures are per pass",
        f"suites ran on {len(tr.suite_threads)} thread(s)",
    ]
    if tr.absent:
        notes.append(f"absent from the package (reported as 0): {tr.absent}")
    problems = [
        f"coverage: {name} was never called"
        for name in wl.works
        if name not in tr.absent and name not in totals
    ] + [
        f"coverage: {name} was called {totals[name][0]} times per run, expected none"
        for name in wl.bypasses
        if name in totals
    ]
    return values, notes, problems


def run_workload(args) -> int:
    root = find_checkout()
    pkg = import_package(root)
    validator = schema_validator(root)
    print("provenance " + json.dumps(provenance(root, args.workload, args.seed), sort_keys=True))
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
        ref = speed.Reference(workloads.REFERENCE[args.workload])
        wl, setup_raw, setup_s = setup(pkg, root, args.workload, args.seed, Path(tmp), validator, ref)
        for note in wl.notes:
            print(note)
        Loop(wl, ref).one_pass()  # warm-up, discarded: lazy imports and first-touch allocations
        problems = []
        if args.trace:
            # one call per size and pass, so per-pass figures mean one call at each size
            untraced, traced = Loop(wl, speed.Reference(())), Loop(wl, speed.Reference(()))
            untraced.run(args.seconds / 2, MIN_TRACE_PASSES)
            with tracer.Tracer() as tr:
                traced.run(args.seconds / 2, MIN_TRACE_PASSES)
            metrics, notes, problems = per_layer(tr, wl, untraced, traced)
            loops = [untraced, traced]
            print("\n".join(notes))
        else:
            loop = Loop(wl, ref, SIZE_SECONDS)
            loop.run(args.seconds, MIN_PASSES)
            metrics = end_to_end(loop, setup_s)
            loops = [loop]
            print(f"{args.workload}: setup_s raw={setup_raw:.6f} scaled={setup_s:.6f}")
            print("\n".join(size_lines(loop)))
            print("detail " + json.dumps(
                {s.metric: statistics.median(loop.scaled[s.metric]) for s in wl.sizes}
            ))
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    for problem in (problems + [p for lp in loops for p in lp.problems])[:20]:
        print("FAILED " + problem.replace("\n", " | "))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def summary(args) -> int:
    """Run every workload untraced and print the metrics by their full names."""
    rows = []
    for name in workloads.PREPARE:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        detail = json.loads(next(l for l in lines if l.startswith("detail "))[len("detail "):])
        rows += [(metric, value, "s") for metric, value in detail.items()]
        m = result["metrics"]
        rows.append((f"{name}.setup_s", m["setup_s"]["value"], "s"))
        rows.append((f"{name}.peak_rss_mb", m["peak_rss_mb"]["value"], "MB"))
        rows.append((f"{name}.fail_ratio", result["failed"] / result["attempted"], "ratio"))
    for metric, value, unit in rows:
        print(f"{metric:32s} {value:12.6f} {unit}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.PREPARE))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--summary", action="store_true", help="run every workload, print all metrics")
    args = ap.parse_args(argv)
    if args.summary:
        return summary(args)
    if args.workload is None:
        ap.error("--workload is required unless --summary is given")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
