#!/usr/bin/env python3
"""Record the expected outputs the benchmark checks against.

Run from the root of a treerep checkout at the reference commit:

    python3 perfbench/record.py

It writes perfbench/digests.json with
  * verify: for each q, the digest of the three exact suites' JSON for
    every CLI master seed in range(VERIFY_SEEDS) on which `treerep verify`
    passes, and the error of every seed on which it does not;
  * boundary_action: for each q, the digest of the apply_batch images of
    every input set;
  * orbit_table: for each q, the digest of the admissibility table rows.
Takes a few minutes on two cores.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from run import find_checkout, import_package
import workloads

VERIFY_SEEDS = 40


def record_verify(pkg, tmp: Path) -> tuple[dict, dict]:
    passed, excluded = {}, {}
    for q in workloads.VERIFY_QS:
        passed[str(q)], excluded[str(q)] = {}, {}
        for seed in range(VERIFY_SEEDS):
            out = tmp / "verify.json"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = pkg.cli.run(
                    ["verify", "--q", str(q), "--seed", str(seed), "--no-timestamp", "--out", str(out)]
                )
            report = json.loads(out.read_text()) if code == 0 else None
            if report is not None and report["passed"]:
                passed[str(q)][str(seed)] = workloads.exact_suites_digest(report)
            else:
                excluded[str(q)][str(seed)] = f"exit {code}: {err.getvalue().strip()}"
            out.unlink(missing_ok=True)
            print(f"verify q={q} seed={seed}: {'ok' if str(seed) in passed[str(q)] else 'excluded'}")
    return passed, excluded


def record_action(pkg) -> dict:
    out = {}
    for q, cap in workloads.ACTION_SIZES:
        digests = []
        for input_set in range(workloads.ACTION_INPUT_SETS):
            words, letters, lengths, v, pair, _, width = workloads.action_inputs(pkg, q, cap, input_set)
            images = [img for img, _ in workloads.run_action(pkg, words, letters, lengths, v, pair)]
            digests.append(workloads.letters_digest(images, width))
        out[str(q)] = digests
        print(f"boundary_action q={q}: {len(digests)} input sets")
    return out


def record_table(pkg, tmp: Path) -> dict:
    out = {}
    for q, depth in workloads.TABLE_SIZES:
        path = tmp / "table.json"
        code = pkg.cli.run(
            ["admissibility-table", "--q", str(q), "--depth", str(depth), "--no-timestamp", "--out", str(path)]
        )
        if code != 0:
            sys.exit(f"admissibility-table q={q} exited {code}")
        out[str(q)] = workloads.json_digest(workloads.table_rows(json.loads(path.read_text())))
    return out


def main() -> int:
    pkg = import_package(find_checkout())
    with tempfile.TemporaryDirectory(dir=Path.cwd(), prefix=".perfbench-") as tmp:
        tmp = Path(tmp)
        verify, excluded = record_verify(pkg, tmp)
        digests = {
            "verify": verify,
            "verify_excluded": excluded,
            "boundary_action": record_action(pkg),
            "orbit_table": record_table(pkg, tmp),
        }
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
