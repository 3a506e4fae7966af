"""The three benchmark workloads and their correctness gates.

Each workload turns the workload seed into inputs (`prepare`, untimed),
then exposes one `Size` per problem size.  A Size's `call` is the timed
work, a closed loop of one call at a time on one thread of the benchmark
process; its `check` runs untimed afterwards and returns a list of
problems, empty when the output is correct.  Checks use only numbers
computed in `prepare`, json and numpy, so a traced run counts the calls
of the workload and nothing else.

Program calls go through module attributes (`cli.run`, `au.compose`, ...)
at call time, so the tracer's rebound wrappers see every one of them.

Expected outputs come from `digests.json`, which `record.py` writes from
the reference commit.  The workload seed selects recorded input sets,
so every seed's outputs can be compared with a recorded digest.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from tracer import SUITE_NAMES

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

VERIFY_QS = (2, 3)
VERIFY_SEEDS_PER_RUN = 4  # CLI seeds a run cycles through; their costs differ by about 10%
ACTION_SIZES = ((2, 12), (3, 9), (5, 7))  # (q, depth cap)
TABLE_SIZES = ((2, 12), (3, 9))  # (q, depth)
ACTION_INPUT_SETS = 16
PORTRAIT_DEPTH = 5
FIBER_DIM = 2
HOMOMORPHISM_TOL = 1e-8  # the homomorphism suite's default --tol
EXACT_SUITES = ("measure_cocycle", "prune_replay", "admissibility_table")


@dataclass
class Size:
    metric: str  # e.g. "verify_q2_s": per-call time at this size
    label: str  # "q2", "q3" or "q5"; q2 and q3 feed the q2_s and q3_s metrics
    call: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    sizes: list
    works: tuple = ()  # traced names that must be called
    bypasses: tuple = ()  # traced names that must not be called
    notes: list = field(default_factory=list)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_digest(obj) -> str:
    return sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())


def letters_digest(outputs, width: int) -> str:
    """Digest of apply_batch images, independent of dtype and padding.

    Letters past a row's length are dropped, so only the addresses count.
    """
    h = hashlib.sha256()
    for letters, lengths in outputs:
        lengths = np.asarray(lengths, dtype=np.int64)
        canon = np.zeros((letters.shape[0], width), dtype=np.int64)
        used = min(width, letters.shape[1])
        canon[:, :used] = letters[:, :used]
        canon[np.arange(width)[None, :] >= lengths[:, None]] = 0
        h.update(lengths.tobytes())
        h.update(canon.tobytes())
    return h.hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def _report_checks(path: Path, code: int, validator) -> tuple[dict | None, list]:
    """Exit code, report file and schema; returns the parsed report."""
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        report = json.loads(path.read_text())
    finally:
        path.unlink(missing_ok=True)
    problems = [f"schema: {e.message}" for e in validator.iter_errors(report)]
    failed = [s["suite"] for s in report.get("suites", []) if not s.get("passed")]
    if failed or not report.get("passed"):
        problems.append(f"suites not passed: {failed}")
    return report, problems


# -- verify ---------------------------------------------------------------------


def verify_seeds(digests: dict, q: int, seed: int) -> list:
    """The CLI master seeds a workload seed selects for `verify --q q`."""
    pool = sorted(int(s) for s in digests["verify"][str(q)])
    return [pool[(seed * VERIFY_SEEDS_PER_RUN + k) % len(pool)] for k in range(VERIFY_SEEDS_PER_RUN)]


def exact_suites_digest(report: dict) -> str:
    return json_digest([s for s in report["suites"] if s["suite"] in EXACT_SUITES])


def prepare_verify(pkg, seed: int, tmp: Path, validator) -> Workload:
    cli, tree = pkg.cli, pkg.tree
    digests = load_digests()
    sizes, cli_seeds = [], {}
    for q in VERIFY_QS:
        out = tmp / f"verify_q{q}.json"
        cli_seeds[q] = verify_seeds(digests, q, seed)
        runs = itertools.cycle([
            (["verify", "--q", str(q), "--seed", str(s), "--no-timestamp", "--out", str(out)],
             digests["verify"][str(q)][str(s)])
            for s in cli_seeds[q]
        ])
        params = tree.TreeParams(q, 8)
        for depth in range(params.depth_cap + 1):
            tree.letter_matrix(params, depth)

        def call(runs=runs):
            argv, want = next(runs)
            return cli.run(argv), argv, want

        def check(result, out=out):
            code, argv, want = result
            report, problems = _report_checks(out, code, validator)
            if report is not None and exact_suites_digest(report) != want:
                problems.append(f"exact suites differ from the recorded digest: {' '.join(argv[:5])}")
            return problems

        sizes.append(Size(f"verify_q{q}_s", f"q{q}", call, check))
    excluded = {q: len(digests["verify_excluded"][str(q)]) for q in VERIFY_QS}
    return Workload(
        sizes,
        works=(
            "operators.spectral_norm",
            "operators.build_pair",
            "automorphism.TreeAutomorphism.apply_batch",
            "representation.pi_apply",
            "measure.rn_cocycle",
            "measure.orbit_cells",
            "tree.letter_matrix",
            *(f"suites.{s}" for s in SUITE_NAMES),
            "suites.run_all",
            "cli.run",
        ),
        notes=[
            f"verify CLI seeds per q, called in turn: {cli_seeds}; "
            f"CLI seeds excluded because verify errors at the reference commit: {excluded}"
        ],
    )


# -- boundary_action --------------------------------------------------------------


def action_inputs(pkg, q: int, cap: int, input_set: int):
    """Seeded words, letter matrix, step function and operator pair."""
    au, tree, op, rep = pkg.automorphism, pkg.tree, pkg.operators, pkg.representation
    params = tree.TreeParams(q, cap)
    rng = np.random.default_rng([input_set, q, cap])
    portrait = au.from_portrait(params, au.random_portrait(params, PORTRAIT_DEPTH, rng))
    translation = au.compose(au.step_translation(params), au.edge_inversion(params))
    words = (portrait, translation)
    for g in words:
        g.inverse()  # built once, cached on the word
    letters = tree.letter_matrix(params, cap)
    lengths = np.full(letters.shape[0], cap, dtype=np.int64)
    m = cap - 2 * translation.displacement  # the translation round trip stays in the cap
    n = tree.n_addresses(params, m)
    v = rep.StepFunction(
        params, m, rng.standard_normal((n, FIBER_DIM)) + 1j * rng.standard_normal((n, FIBER_DIM))
    )
    pair = op.build_pair(op.random_in_disc(FIBER_DIM, q, rng), q)
    growth = op.spectral_norm(pair.tau) ** (2 * translation.displacement)
    bound = HOMOMORPHISM_TOL * growth * max(v.sup_norm(), 1.0)
    width = cap + translation.displacement
    return words, letters, lengths, v, pair, bound, width


def run_action(pkg, words, letters, lengths, v, pair):
    rep = pkg.representation
    out = []
    for g in words:
        images = g.apply_batch(letters, lengths)
        back = rep.pi_apply(g.inverse(), rep.pi_apply(g, v, pair), pair)
        out.append((images, back))
    return out


def prepare_action(pkg, seed: int, tmp: Path, validator) -> Workload:
    digests = load_digests()
    input_set = seed % ACTION_INPUT_SETS
    sizes = []
    for q, cap in ACTION_SIZES:
        words, letters, lengths, v, pair, bound, width = action_inputs(pkg, q, cap, input_set)
        want = digests["boundary_action"][str(q)][input_set]

        def call(words=words, letters=letters, lengths=lengths, v=v, pair=pair):
            return run_action(pkg, words, letters, lengths, v, pair)

        def check(out, v=v, bound=bound, width=width, want=want):
            problems = []
            if letters_digest([images for images, _ in out], width) != want:
                problems.append("apply_batch letters differ from the recorded digest")
            (_, portrait_back), (_, translation_back) = out
            if portrait_back.resolution != v.resolution or not np.array_equal(
                portrait_back.values, v.values
            ):
                problems.append("portrait round trip is not exact")
            residual = translation_back.max_cell_distance(v)
            if not residual <= bound:
                problems.append(f"translation round trip residual {residual:.3e} > {bound:.3e}")
            return problems

        sizes.append(Size(f"action_q{q}_s", f"q{q}", call, check))
    return Workload(
        sizes,
        works=(
            "automorphism.PortraitGen.batch",
            "automorphism.EdgeInversionGen.batch",
            "automorphism.StepTranslationGen.batch",
            "automorphism.TreeAutomorphism.apply_batch",
            "representation.pi_apply",
            "operators.power",
            "tree.letter_matrix",
            "tree.prefix_indices",
        ),
        bypasses=(
            "operators.build_pair",
            "operators.spectral_norm",
            "measure.orbit_cells",
            "measure.cell_index_ranges",
            "representation.haar_average_fix",
            "representation.fixed_space_report",
            "tree.FiniteSubtree",
            "tree.is_complete",
            "tree.closed_neighborhood",
            "suites.run_all",
            "cli.run",
        ),
        notes=[f"boundary_action input set {input_set} of {ACTION_INPUT_SETS}"],
    )


# -- orbit_table ------------------------------------------------------------------


def table_rows(report: dict) -> list:
    (suite,) = report["suites"]
    return suite["details"]["rows"]


def merge_problems(mapping: dict, q: int) -> list:
    """The merge map must send exactly q cells onto one and keep the rest."""
    fan_in = sorted(Counter(mapping.values()).values())
    if fan_in != [1] * (len(fan_in) - 1) + [q]:
        return [f"merge fan-in {fan_in}, want one cell of {q} and the rest 1"]
    return []


def prepare_table(pkg, seed: int, tmp: Path, validator) -> Workload:
    cli, tree, bm, suites = pkg.cli, pkg.tree, pkg.measure, pkg.suites
    digests = load_digests()
    sizes = []
    for q, depth in TABLE_SIZES:
        out = tmp / f"table_q{q}.json"
        argv = ["admissibility-table", "--q", str(q), "--depth", str(depth), "--no-timestamp", "--out", str(out)]
        params = tree.TreeParams(q, depth)
        big, small = suites.replay_pruning_pair(params)
        want = digests["orbit_table"][str(q)]

        def call(argv=argv, params=params, big=big, small=small):
            code = cli.run(argv)
            mapping = bm.orbit_merge_under_pruning(big, small)
            bm.assert_partition(params, list(mapping))
            bm.assert_partition(params, list(set(mapping.values())))
            return code, mapping

        def check(result, out=out, q=q, want=want):
            code, mapping = result
            report, problems = _report_checks(out, code, validator)
            if report is not None and json_digest(table_rows(report)) != want:
                problems.append("table rows differ from the recorded digest")
            return problems + merge_problems(mapping, q)

        sizes.append(Size(f"table_q{q}_s", f"q{q}", call, check))
    return Workload(
        sizes,
        works=(
            "measure.orbit_cells",
            "measure.cell_index_ranges",
            "measure.orbit_merge_under_pruning",
            "measure.assert_partition",
            "representation.haar_average_fix",
            "representation.fixed_space_report",
            "tree.FiniteSubtree",
            "tree.is_complete",
            "tree.closed_neighborhood",
            "suites.admissibility_table",
            "cli.run",
        ),
        bypasses=(
            "operators.build_pair",
            "operators.spectral_norm",
            "automorphism.PortraitGen.batch",
            "automorphism.EdgeInversionGen.batch",
            "automorphism.StepTranslationGen.batch",
            "automorphism.TreeAutomorphism.apply_batch",
            "representation.pi_apply",
            "suites.run_all",
        ),
    )


PREPARE = {
    "verify": prepare_verify,
    "boundary_action": prepare_action,
    "orbit_table": prepare_table,
}

# Reference loops each workload's times are scaled by (speed.py).
REFERENCE = {
    "verify": ("walk", "lookup"),
    "boundary_action": ("walk", "lookup"),
    "orbit_table": ("walk",),
}
