"""The benchmark's correctness and call-graph gate, one pass per workload.

`perfbench/run.py` counts a run as incorrect when a size's check reports
a problem, and a traced run also when the workload never calls a name it
`works` through or calls a name it `bypasses`.  Here every workload
declared in BENCHMARK.json is prepared at seed 0 and each of its sizes
is called and checked once under the benchmark's own tracer, with the
same rules, so a change that reroutes a traced call fails in the test
suite.  The perfbench modules are imported and used as they are.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# traced names the package no longer defines; any other absent name is a
# traced function renamed or deleted, whose per-layer metrics would read 0
STALE_TRACED = {"tree.boundary_vertices", "automorphism.StepTranslationGen.batch"}
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench():
    """perfbench's run module (it imports tracer and workloads), the
    package namespace the workloads call, and the report validator."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        pkg = run.import_package(ROOT)
    finally:
        sys.path[:] = saved
    return run, pkg, run.schema_validator(ROOT)


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_passes_its_checks_on_its_call_graph(bench, name, tmp_path):
    run, pkg, validator = bench
    wl = run.workloads.PREPARE[name](pkg, 0, tmp_path, validator)
    problems = []
    with run.tracer.Tracer() as tr:
        for size in wl.sizes:
            problems += [f"{size.metric}: {p}" for p in size.check(size.call())]
    called = tr.totals()
    assert problems == []
    assert set(tr.absent) <= STALE_TRACED
    assert [n for n in wl.works if n not in tr.absent and n not in called] == []
    assert [n for n in wl.bypasses if n in called] == []
