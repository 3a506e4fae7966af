"""Named verification suites with reproducible seeded trials.

Each suite checks one family of identities and returns a SuiteReport:
pass/fail, the worst residual seen, and a replayable counterexample
record per failure (serialized generator words, cells, matrices, and the
per-trial seed path).  Measure-level identities are asserted with exact
rational (or exact float-integer) equality; operator-level identities
with relative tolerances scaled by the operator norms involved.

Randomness discipline: every trial draws from
default_rng([seed, crc32(suite_name), trial]), so suites are
deterministic per configuration and independent of execution order.
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import measure as bm
from .automorphism import (
    EdgeInversionGen,
    PortraitGen,
    StepTranslationGen,
    TreeAutomorphism,
    compose,
    edge_inversion,
    from_portrait,
    identity,
    inverse,
    random_portrait,
    step_translation,
)
from .errors import ConfigError
from .operators import (
    build_pair,
    guard_spectrum,
    random_in_disc,
    spectral_norm,
)
from .representation import (
    StepFunction,
    alpha_via_rep,
    basepoint_shift,
    constant_fn,
    fixed_space_report,
    haar_average_fix,
    halftree_element,
    halftree_preimage,
    invariant_lift_check,
    pi_apply,
)
from .tree import (
    ROOT,
    FiniteSubtree,
    TreeParams,
    address_from_index,
    busemann_on_cylinder,
    closed_neighborhood,
    n_addresses,
)


@dataclass(frozen=True)
class SuiteConfig:
    q: int = 2
    depth_cap: int = 8
    dim: int = 2
    trials: int = 100
    seed: int = 0
    tol: float = 1e-8

    def __post_init__(self):
        if self.q < 2:
            raise ConfigError(f"q must be >= 2, got {self.q}")
        if self.depth_cap < 4:
            raise ConfigError(f"depth cap must be >= 4, got {self.depth_cap}")
        if self.dim < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.dim}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not self.tol > 0:
            raise ConfigError(f"tolerance must be positive, got {self.tol}")

    @property
    def params(self) -> TreeParams:
        return TreeParams(q=self.q, depth_cap=self.depth_cap)


@dataclass
class SuiteReport:
    suite_name: str
    passed: bool
    max_residual: float
    trial_count: int
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite_name,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "trial_count": self.trial_count,
            "failures": self.failures,
            "details": self.details,
        }


def trial_rng(cfg: SuiteConfig, suite_name: str, trial: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, zlib.crc32(suite_name.encode()), trial])


def _random_word(params: TreeParams, rng: np.random.Generator, max_factors: int) -> TreeAutomorphism:
    word = []
    for _ in range(int(rng.integers(1, max_factors + 1))):
        kind = int(rng.integers(0, 3))
        inverted = bool(rng.integers(0, 2))
        if kind == 0:
            word.append((PortraitGen(random_portrait(params, 2, rng)), inverted))
        elif kind == 1:
            word.append((EdgeInversionGen(), inverted))
        else:
            word.append((StepTranslationGen(), inverted))
    return TreeAutomorphism(params, word)


def _random_cylinder(params: TreeParams, rng: np.random.Generator, depth: int) -> bm.Cylinder:
    idx = int(rng.integers(0, n_addresses(params, depth)))
    return bm.Cylinder(address_from_index(params, depth, idx))


def _complex_matrix_ball(cfg: SuiteConfig, rng: np.random.Generator, d: int | None = None):
    return random_in_disc(d or cfg.dim, cfg.q, rng, fraction=0.75)


# -- suite 1: exact measure distortion ---------------------------------------


def suite_measure_cocycle(cfg: SuiteConfig) -> SuiteReport:
    """Pushforward measures distort by exact powers of q, and the
    distortion composes as a cocycle.  Exact rational equality, no
    tolerance."""
    params = cfg.params
    name = "measure_cocycle"
    failures = []
    max_factors = min(3, max(1, (params.depth_cap - 1) // 2))
    for trial in range(cfg.trials):
        rng = trial_rng(cfg, name, trial)
        g = _random_word(params, rng, max_factors)
        h = _random_word(params, rng, max_factors)
        lo = g.displacement + h.displacement + 1
        depth = min(params.depth_cap, lo + int(rng.integers(0, 2)))
        cell = _random_cylinder(params, rng, depth)

        record = {
            "trial": trial,
            "g": g.to_json_obj(),
            "h": h.to_json_obj(),
            "cell": cell.to_json_obj(),
        }
        ratio = bm.rn_cocycle(g, cell)
        pulled = bm.map_cell(inverse(g), cell)
        lhs = bm.cell_measure(params, pulled)
        rhs = ratio * bm.cell_measure(params, cell)
        if lhs != rhs:
            failures.append(
                dict(record, kind="change_of_variables",
                     lhs=bm.measure_to_str(lhs), rhs=bm.measure_to_str(rhs))
            )
            continue
        law_lhs = bm.rn_cocycle(compose(g, h), cell)
        law_rhs = ratio * bm.rn_cocycle(h, pulled)
        if law_lhs != law_rhs:
            failures.append(
                dict(record, kind="cocycle_law",
                     lhs=bm.measure_to_str(law_lhs), rhs=bm.measure_to_str(law_rhs))
            )
    ident_ok = bm.rn_cocycle(identity(params), bm.whole_boundary()) == 1
    if not ident_ok:
        failures.append({"kind": "identity_element", "trial": -1})
    return SuiteReport(
        suite_name=name,
        passed=not failures,
        max_residual=float(len(failures)),
        trial_count=cfg.trials,
        failures=failures,
        details={"comparison": "exact rational"},
    )


# -- suite 2: the representation is multiplicative ----------------------------


def suite_homomorphism(cfg: SuiteConfig) -> SuiteReport:
    """pi(gh)v against pi(g)pi(h)v on random words and functions; the
    tolerance scales with the worst tau power the words can produce."""
    params = cfg.params
    name = "homomorphism"
    failures = []
    worst = 0.0
    max_factors = min(3, max(1, (params.depth_cap - 2) // 2))
    m_hi = min(2, max(0, params.depth_cap - 2 * max_factors))
    for trial in range(cfg.trials):
        rng = trial_rng(cfg, name, trial)
        alpha = _complex_matrix_ball(cfg, rng)
        pair = build_pair(alpha, cfg.q)
        g = _random_word(params, rng, max_factors)
        h = _random_word(params, rng, max_factors)
        m = int(rng.integers(0, m_hi + 1))
        vals = rng.standard_normal((n_addresses(params, m), cfg.dim)) + 1j * rng.standard_normal(
            (n_addresses(params, m), cfg.dim)
        )
        v = StepFunction(params, m, vals)
        two_step = pi_apply(g, pi_apply(h, v, pair), pair)
        one_step = pi_apply(compose(g, h), v, pair)
        residual = one_step.max_cell_distance(two_step)
        growth = spectral_norm(pair.tau) ** (g.displacement + h.displacement)
        bound = cfg.tol * growth * max(v.sup_norm(), 1.0)
        worst = max(worst, residual)
        if residual > bound:
            failures.append(
                {
                    "trial": trial,
                    "g": g.to_json_obj(),
                    "h": h.to_json_obj(),
                    "resolution": m,
                    "residual": residual,
                    "bound": bound,
                }
            )
    return SuiteReport(
        suite_name=name,
        passed=not failures,
        max_residual=worst,
        trial_count=cfg.trials,
        failures=failures,
        details={"tolerance_rule": "tol * norm(tau)^(D_g + D_h) * sup|v|"},
    )


# -- suite 3: orbit pruning replay --------------------------------------------


def replay_pruning_pair(params: TreeParams) -> tuple[FiniteSubtree, FiniteSubtree]:
    """The canonical pruning instance: the 1-neighbourhood of the first
    edge at the basepoint, pruned back to the 1-ball by deleting the far
    leaves."""
    edge = FiniteSubtree(params, [ROOT, (1,)])
    big = closed_neighborhood(edge, 1)
    trimmed = set(big) - {(1, i) for i in range(1, params.q + 1)}
    return big, FiniteSubtree(params, trimmed)


def suite_prune_replay(cfg: SuiteConfig) -> SuiteReport:
    """Replay of the orbit-merging argument: deleting the far leaves of
    the doubled ball merges exactly q cells, stabilizer averages take the
    plain arithmetic mean (w_1 + ... + w_q)/q on the merged cell and
    nothing else moves, the unit shift toward the merged side carries
    horofunction exponent -1, and the spectrum of tau avoids +-q."""
    params = cfg.params
    name = "prune_replay"
    failures = []
    big, small = replay_pruning_pair(params)
    mapping = bm.orbit_merge_under_pruning(big, small)
    merged_cell = bm.Cylinder((1,))
    sources = sorted(
        (c for c, tgt in mapping.items() if tgt == merged_cell),
        key=lambda c: c.base,
    )
    if len(sources) != params.q:
        failures.append({"kind": "merge_count", "got": len(sources), "want": params.q})
    if sources != [bm.Cylinder((1, i)) for i in range(1, params.q + 1)]:
        failures.append({"kind": "merged_sources", "got": [c.to_json_obj() for c in sources]})
    kept = {c: t for c, t in mapping.items() if t != merged_cell}
    if any(c != t for c, t in kept.items()):
        failures.append({"kind": "kept_cells_moved"})
    if any(
        bm.cell_measure(params, c) != bm.cell_measure(params, t) for c, t in kept.items()
    ):
        failures.append({"kind": "kept_measure_changed"})

    # exact averaging: integer-valued data keeps every float op exact
    cells_big = bm.orbit_cells(big)
    m = max(bm.min_expressible_depth(params, c) for c in cells_big)
    labels = bm.assert_partition(params, cells_big, m)
    src = [cells_big.index(c) for c in sources]
    (lo, hi), = bm.cell_index_ranges(params, merged_cell, m)
    for trial in range(cfg.trials):
        rng = trial_rng(cfg, name, trial)
        weights = np.array([
            rng.integers(-(2**20), 2**20, size=cfg.dim)
            + 1j * rng.integers(-(2**20), 2**20, size=cfg.dim)
            for _ in cells_big
        ])
        values = weights[labels]
        averaged = haar_average_fix(small, StepFunction(params, m, values))
        expected = values.copy()
        expected[lo:hi] = weights[src].sum(axis=0) / params.q
        if averaged.resolution != m or not np.array_equal(averaged.values, expected):
            failures.append({"trial": trial, "kind": "merged_average"})
        weights[src[-1]] = -weights[src[:-1]].sum(axis=0)
        z_avg = haar_average_fix(small, StepFunction(params, m, weights[labels]))
        if z_avg.values[lo:hi].any():
            failures.append({"trial": trial, "kind": "zero_sum_not_annihilated"})

    shift_back = inverse(step_translation(params))
    exponent = busemann_on_cylinder(params, (1,), ROOT, shift_back.x0_image)
    if exponent != -1:
        failures.append({"kind": "replay_exponent", "got": exponent, "want": -1})
    if bm.rn_cocycle(shift_back, merged_cell) != Fraction(1, params.q):
        failures.append({"kind": "replay_cocycle_value"})

    guard_trials = min(cfg.trials, 20)
    for trial in range(guard_trials):
        rng = trial_rng(cfg, name + "/guard", trial)
        pair = build_pair(_complex_matrix_ball(cfg, rng), cfg.q)
        report = guard_spectrum(pair)
        if report["margin_to_pm_q"] <= 0:
            failures.append({"trial": trial, "kind": "tau_sees_pm_q", "report": report})
    return SuiteReport(
        suite_name=name,
        passed=not failures,
        max_residual=float(len(failures)),
        trial_count=cfg.trials,
        failures=failures,
        details={
            "merged_cell": merged_cell.to_json_obj(),
            "merged_sources": [c.to_json_obj() for c in sources],
            "replay_exponent": exponent,
        },
    )


# -- suite 4: operator recovered from the representation ----------------------


def suite_fixed_vector_transfer(cfg: SuiteConfig) -> SuiteReport:
    """Averaging pi(inversion) over the basepoint stabilizer and scaling
    by q+1 reproduces alpha on every vector."""
    params = cfg.params
    name = "fixed_vector_transfer"
    failures = []
    worst = 0.0
    for trial in range(cfg.trials):
        rng = trial_rng(cfg, name, trial)
        alpha = _complex_matrix_ball(cfg, rng)
        pair = build_pair(alpha, cfg.q)
        w = rng.standard_normal(cfg.dim) + 1j * rng.standard_normal(cfg.dim)
        got = alpha_via_rep(params, w, pair)
        residual = float(np.linalg.norm(got - alpha @ w))
        scale = spectral_norm(alpha) * float(np.linalg.norm(w))
        worst = max(worst, residual / max(scale, 1e-300))
        if residual > cfg.tol * scale:
            failures.append({"trial": trial, "residual": residual, "scale": scale})
    return SuiteReport(
        suite_name=name,
        passed=not failures,
        max_residual=worst,
        trial_count=cfg.trials,
        failures=failures,
        details={"tolerance_rule": "tol * norm(alpha) * norm(w), relative residual reported"},
    )


# -- suite 5: half-tree indicators are reachable ------------------------------


def suite_halftree_reach(cfg: SuiteConfig) -> SuiteReport:
    """Any vector-valued indicator of a half-tree at the basepoint is one
    group element away from a constant function: solve
    (tau - tau^{-1}) w' = w, then check
    pi(g)(w' 1) - tau^{-1} w' 1 = (tau - tau^{-1}) w' on that half-tree
    by evaluating both sides independently."""
    params = cfg.params
    name = "halftree_reach"
    failures = []
    worst = 0.0
    for trial in range(cfg.trials):
        rng = trial_rng(cfg, name, trial)
        alpha = _complex_matrix_ball(cfg, rng)
        pair = build_pair(alpha, cfg.q)
        w = rng.standard_normal(cfg.dim) + 1j * rng.standard_normal(cfg.dim)
        w = w / np.linalg.norm(w)
        w_prime = halftree_preimage(pair, w)
        solve_residual = float(
            np.linalg.norm((pair.tau - pair.tau_inv) @ w_prime - w)
        )
        head = (int(rng.integers(1, params.q + 2)),)
        g = basepoint_shift(params, head)
        lhs = pi_apply(g, constant_fn(params, w_prime), pair) - constant_fn(
            params, pair.tau_inv @ w_prime
        )
        rhs = halftree_element(params, w_prime, (ROOT, head), pair)
        two_path = lhs.max_cell_distance(rhs)
        scale = max(1.0, float(np.linalg.norm(w_prime)))
        worst = max(worst, max(solve_residual, two_path / scale))
        if solve_residual > cfg.tol or two_path > cfg.tol * scale:
            failures.append(
                {
                    "trial": trial,
                    "head": head[0],
                    "solve_residual": solve_residual,
                    "two_path_residual": two_path,
                }
            )
    return SuiteReport(
        suite_name=name,
        passed=not failures,
        max_residual=worst,
        trial_count=cfg.trials,
        failures=failures,
        details={"edge": "basepoint to each neighbour, all q+1 directions sampled"},
    )


# -- suite 6: invariant subspaces upstairs and downstairs ----------------------


def _generators(params: TreeParams, rng: np.random.Generator) -> list[TreeAutomorphism]:
    gens = [edge_inversion(params), step_translation(params)]
    gens.append(from_portrait(params, random_portrait(params, 2, rng)))
    return gens


def suite_invariance_correspondence(cfg: SuiteConfig) -> SuiteReport:
    """Eigenvector spans of alpha lift to subspaces the boundary action
    leaks out of by at most numerical noise; non-invariant lines leak
    upstairs at least half as much as alpha moves them downstairs."""
    params = cfg.params
    name = "invariance_correspondence"
    d = max(cfg.dim, 2)
    failures = []
    worst_invariant = 0.0
    worst_ratio = math.inf
    invariant_trials = min(cfg.trials, 40)
    for trial in range(invariant_trials):
        rng = trial_rng(cfg, name + "/invariant", trial)
        basis_mat, _ = np.linalg.qr(
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        )
        lam = (rng.uniform(0.1, 0.7, size=d) * 2 * math.sqrt(cfg.q)) * np.exp(
            2j * math.pi * rng.uniform(size=d)
        )
        alpha = (basis_mat * lam) @ basis_mat.conj().T
        pair = build_pair(alpha, cfg.q)
        k = int(rng.integers(1, d))
        basis = [basis_mat[:, j] for j in range(k)]
        report = invariant_lift_check(params, basis, pair, _generators(params, rng), 2, rng)
        worst_invariant = max(worst_invariant, report["max_leakage"])
        if report["max_leakage"] > 1e-9:
            failures.append({"trial": trial, "kind": "invariant_leaks", "report": report})

    line_trials = 20
    for trial in range(line_trials):
        rng = trial_rng(cfg, name + "/line", trial)
        alpha = _complex_matrix_ball(cfg, rng, d)
        pair = build_pair(alpha, cfg.q)
        w = None
        direct = 0.0
        for _ in range(8):
            w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            w = w / np.linalg.norm(w)
            aw = alpha @ w
            direct = float(np.linalg.norm(aw - (np.vdot(w, aw)) * w))
            if direct > 1e-3 * spectral_norm(alpha):
                break
        report = invariant_lift_check(params, [w], pair, _generators(params, rng), 1, rng)
        ratio = report["max_leakage"] / direct
        worst_ratio = min(worst_ratio, ratio)
        if ratio < 0.5:
            failures.append(
                {"trial": trial, "kind": "line_leak_too_small", "ratio": ratio, "direct": direct}
            )
    return SuiteReport(
        suite_name=name,
        passed=not failures,
        max_residual=worst_invariant,
        trial_count=invariant_trials + line_trials,
        failures=failures,
        details={
            "worst_invariant_leakage": worst_invariant,
            "worst_line_ratio": worst_ratio,
        },
    )


# -- suite 7: fixed-space growth table ----------------------------------------


def suite_admissibility_table(cfg: SuiteConfig) -> SuiteReport:
    """Fixed-space dimensions under ball stabilizers: one row per radius
    and fiber dimension, checked against the closed form d (q+1) q^(r-1)
    and against explicit orbit enumeration."""
    params = cfg.params
    name = "admissibility_table"
    failures = []
    dims = sorted({1, 2, 4, cfg.dim})
    rows = []
    prev = {dd: 0 for dd in dims}
    for r in range(1, params.depth_cap):
        ball = closed_neighborhood(FiniteSubtree(params, [ROOT]), r)
        report = fixed_space_report(ball, 1)
        closed_form = (params.q + 1) * params.q ** (r - 1)
        if report.orbit_count != closed_form:
            failures.append({"kind": "orbit_count", "r": r, "got": report.orbit_count})
        for dd in dims:
            fixed_dim = dd * report.orbit_count
            rows.append(
                {"q": params.q, "r": r, "d": dd, "orbit_count": report.orbit_count,
                 "fixed_dim": fixed_dim}
            )
            if fixed_dim != dd * closed_form:
                failures.append({"kind": "fixed_dim", "r": r, "d": dd, "got": fixed_dim})
            if fixed_dim <= prev[dd]:
                failures.append({"kind": "growth_not_monotone", "r": r, "d": dd})
            prev[dd] = fixed_dim
    csv_lines = ["q,r,d,orbit_count,fixed_dim"]
    csv_lines += [
        f"{row['q']},{row['r']},{row['d']},{row['orbit_count']},{row['fixed_dim']}"
        for row in rows
    ]
    return SuiteReport(
        suite_name=name,
        passed=not failures,
        max_residual=float(len(failures)),
        trial_count=len(rows),
        failures=failures,
        details={"rows": rows, "csv": "\n".join(csv_lines)},
    )


SUITES = {
    "measure_cocycle": suite_measure_cocycle,
    "homomorphism": suite_homomorphism,
    "prune_replay": suite_prune_replay,
    "fixed_vector_transfer": suite_fixed_vector_transfer,
    "halftree_reach": suite_halftree_reach,
    "invariance_correspondence": suite_invariance_correspondence,
    "admissibility_table": suite_admissibility_table,
}


def run_suite(cfg: SuiteConfig, name: str) -> SuiteReport:
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](cfg)


def run_all(cfg: SuiteConfig) -> list[SuiteReport]:
    """Run every suite, one after another in registry order."""
    return [suite(cfg) for suite in SUITES.values()]
