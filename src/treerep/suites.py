"""Named verification suites with reproducible seeded trials.

Each suite checks one family of identities through SuiteReport.check,
which keeps the worst residual and appends one record per failed
comparison: {stream, trial, kind, residual, bound} plus the suite's own
context, passed as plain values (words, cells, exact measures) and made
JSON data by `_json_data` only when the check fails.  Measure-level
identities are asserted with exact rational (or exact float-integer)
equality, recorded as residual 1 or 0 against bound 0; operator-level
identities with relative tolerances scaled by the operator norms involved.

Randomness discipline: trial t of a suite draws from its one stream,
default_rng([seed, crc32(suite name), t]), so suites are deterministic
per configuration and independent of execution order.  A failure's
(stream, trial) is its seed path: rerunning the suite with the report's
config, trials at least trial + 1, reproduces the record.  Structural
checks draw nothing and record trial -1.  A suite with an operator pair
per trial draws every trial's alpha first and builds all the pairs in
one stacked build_pair call; each trial then goes on drawing from its
own generator, so the draws are those of one trial at a time.
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import measure as bm
from .automorphism import (
    PortraitGen,
    TreeAutomorphism,
    basepoint_shift,
    compose,
    edge_inversion,
    identity,
    random_portrait,
    random_word,
    step_translation,
)
from .errors import ConfigError, _expect, _integer
from .operators import OperatorPair, _in_disc, build_pair, phi_scalar, spectral_norm
from .representation import (
    StepFunction,
    alpha_via_rep,
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
        for name, lo in (("q", 2), ("depth_cap", 4), ("dim", 1), ("trials", 1), ("seed", 0)):
            # numpy integers stored as int
            object.__setattr__(self, name, _integer(getattr(self, name), name, lo))
        # a bool is an int to isinstance, but never a tolerance; numpy
        # scalars are stored as the Python int or float of equal value
        tol = _expect(self.tol, (int, float, np.integer, np.floating), "a real tolerance")
        if not isinstance(tol, bool):
            tol = int(tol) if isinstance(tol, (int, np.integer)) else float(tol)
        if isinstance(tol, bool) or not 0 < tol < math.inf:
            raise ConfigError(f"tolerance must be positive and finite, got {tol!r}")
        object.__setattr__(self, "tol", tol)

    @property
    def params(self) -> TreeParams:
        return TreeParams(q=self.q, depth_cap=self.depth_cap)


@dataclass
class SuiteReport:
    """One suite's result, filled in one comparison at a time by `check`.

    `max_residual` is the worst residual checked; an exact report, whose
    comparisons are 1/0 mismatches against bound 0, counts its mismatches
    there instead.  A report passes when no check failed."""

    suite_name: str
    trial_count: int
    details: dict = field(default_factory=dict)
    exact: bool = False
    max_residual: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, trial: int, kind: str, residual: float, bound: float, **context) -> bool:
        """Record one comparison and return whether it held.

        The compared values were drawn from trial `trial` of the suite's
        stream, `trial_rng(cfg, suite_name, trial)` (trial -1: a
        structural check that draws nothing), so a failure replays from
        the report's config alone.  A check holds only if its residual is
        at most its bound; otherwise {stream, trial, kind, residual,
        bound}, with stream the suite name, plus `context` through
        `_json_data` joins the failures.  A non-finite residual always
        fails: it is recorded as residual null with `non_finite` naming it
        ("nan", "inf", "-inf"), and it counts as one mismatch of an exact
        report but leaves the worst residual of any other report alone, so
        the report stays valid JSON."""
        residual = float(residual)
        finite = math.isfinite(residual)
        if self.exact:
            self.max_residual += residual if finite else 1.0
        elif finite:
            self.max_residual = max(self.max_residual, residual)
        if finite and residual <= bound:
            return True
        if not finite:
            context["non_finite"] = "nan" if math.isnan(residual) else f"{residual:g}"
        self.failures.append(
            dict(stream=self.suite_name, trial=trial, kind=kind,
                 residual=residual if finite else None, bound=float(bound), **_json_data(context))
        )
        return False

    def to_json_obj(self) -> dict:
        """The report as JSON data, its details through `_json_data`."""
        return {
            "suite": self.suite_name,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "trial_count": self.trial_count,
            "failures": self.failures,
            "details": _json_data(self.details),
        }


def _json_data(obj):
    """`obj` as JSON data: anything with `to_json_obj()` becomes that, a
    Fraction "n/d", a non-finite float null; containers item by item."""
    if hasattr(obj, "to_json_obj"):
        return obj.to_json_obj()
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_data(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_data(v) for v in obj]
    return obj


def trial_rng(cfg: SuiteConfig, stream: str, trial: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, zlib.crc32(stream.encode()), trial])


def _trial_pairs(cfg: SuiteConfig, stream: str) -> list[tuple[np.random.Generator, OperatorPair]]:
    """(rng, pair) per trial of `stream`: each trial's generator after it
    drew its alpha (random_in_disc's draw, the whole stack rescaled at
    once), and the alphas' operator pairs, built in one stacked build_pair
    call.  A bad alpha raises before any trial runs, and the error's
    `index` is its trial."""
    rngs = [trial_rng(cfg, stream, trial) for trial in range(cfg.trials)]
    alphas = _in_disc(cfg.dim, cfg.q, rngs)
    return list(zip(rngs, build_pair(alphas, cfg.q)))


def _random_cylinder(params: TreeParams, rng: np.random.Generator, depth: int) -> bm.Cylinder:
    idx = int(rng.integers(0, n_addresses(params, depth)))
    return bm.Cylinder(address_from_index(params, depth, idx))


# -- suite 1: exact measure distortion ---------------------------------------


def suite_measure_cocycle(cfg: SuiteConfig) -> SuiteReport:
    """Pushforward measures distort by exact powers of q, and the
    distortion composes as a cocycle.  Exact rational equality, no
    tolerance."""
    params = cfg.params
    name = "measure_cocycle"
    rep = SuiteReport(name, cfg.trials, {"comparison": "exact rational"}, exact=True)
    max_factors = min(3, max(1, (params.depth_cap - 1) // 2))
    for trial in range(cfg.trials):
        rng = trial_rng(cfg, name, trial)
        g = random_word(params, rng, max_factors)
        h = random_word(params, rng, max_factors)
        lo = g.displacement + h.displacement + 1
        depth = min(params.depth_cap, lo + int(rng.integers(0, 2)))
        cell = _random_cylinder(params, rng, depth)

        ratio = bm.rn_cocycle(g, cell)
        pulled = bm.map_cell(g.inverse(), cell)
        lhs = bm.cell_measure(params, pulled)
        rhs = ratio * bm.cell_measure(params, cell)
        if not rep.check(trial, "change_of_variables", lhs != rhs, 0,
                         lhs=lhs, rhs=rhs, g=g, h=h, cell=cell):
            continue
        law_lhs = bm.rn_cocycle(compose(g, h), cell)
        law_rhs = ratio * bm.rn_cocycle(h, pulled)
        rep.check(trial, "cocycle_law", law_lhs != law_rhs, 0,
                  lhs=law_lhs, rhs=law_rhs, g=g, h=h, cell=cell)
    rep.check(-1, "identity_element", bm.rn_cocycle(identity(params), bm.Cylinder(ROOT)) != 1, 0)
    return rep


# -- suite 2: the representation is multiplicative ----------------------------


def suite_homomorphism(cfg: SuiteConfig) -> SuiteReport:
    """pi(gh)v against pi(g)pi(h)v on random words and functions; the
    tolerance scales with the worst tau power the words can produce."""
    params = cfg.params
    name = "homomorphism"
    rep = SuiteReport(name, cfg.trials, {"tolerance_rule": "tol * norm(tau)^(D_g + D_h) * sup|v|"})
    max_factors = min(3, max(1, (params.depth_cap - 2) // 2))
    m_hi = min(2, max(0, params.depth_cap - 2 * max_factors))
    for trial, (rng, pair) in enumerate(_trial_pairs(cfg, name)):
        g = random_word(params, rng, max_factors)
        h = random_word(params, rng, max_factors)
        m = int(rng.integers(0, m_hi + 1))
        vals = rng.standard_normal((n_addresses(params, m), cfg.dim)) + 1j * rng.standard_normal(
            (n_addresses(params, m), cfg.dim)
        )
        v = StepFunction(params, m, vals)
        two_step = pi_apply(g, pi_apply(h, v, pair), pair)
        one_step = pi_apply(compose(g, h), v, pair)
        growth = pair.norm_tau ** (g.displacement + h.displacement)
        rep.check(trial, "multiplicativity", one_step.max_cell_distance(two_step),
                  cfg.tol * growth * max(v.sup_norm(), 1.0), g=g, h=h, resolution=m)
    return rep


# -- suite 3: orbit pruning replay --------------------------------------------


def replay_pruning_pair(params: TreeParams) -> tuple[FiniteSubtree, FiniteSubtree]:
    """The canonical pruning instance: the 1-neighbourhood of the first
    edge at the basepoint, pruned back to the 1-ball by deleting the far
    leaves."""
    edge = FiniteSubtree(params, [ROOT, (1,)])
    big = closed_neighborhood(edge, 1)
    trimmed = big.vertices - {(1, i) for i in range(1, params.q + 1)}
    return big, FiniteSubtree(params, trimmed)


def suite_prune_replay(cfg: SuiteConfig) -> SuiteReport:
    """Replay of the orbit-merging argument: deleting the far leaves of
    the doubled ball merges exactly q cells, stabilizer averages take the
    plain arithmetic mean (w_1 + ... + w_q)/q on the merged cell and
    nothing else moves, and the unit shift toward the merged side carries
    horofunction exponent -1.

    The merged cells are named one by one (`merged_sources`), which
    counts them too.  A kept cell keeps its measure because it is the same
    cell (`kept_cells_moved`), and the orbit cells of each subtree tile the
    boundary, so their measures must add up to exactly 1
    (`cell_measures_sum`).  Both subtrees have a full basepoint, so all
    their cells are cylinders; the edge at the basepoint, whose cells are
    the cylinder at (1) and its complement, puts a complement through the
    same sum.  The spectral side of the argument needs no
    check here: an eigenvalue of tau is phi(z) for an eigenvalue z of
    alpha, and phi(z) = +-q or +-1 would need z = +-(q+1), while
    |z| <= norm(alpha) < 2 sqrt(q) < q+1 for every alpha that build_pair
    accepts.  halftree_reach still runs halftree_preimage's singularity
    guard on tau - tau^{-1}."""
    params = cfg.params
    name = "prune_replay"
    big, small = replay_pruning_pair(params)
    mapping = bm.orbit_merge_under_pruning(big, small)
    merged_cell = bm.Cylinder((1,))
    sources = sorted(
        (c for c, tgt in mapping.items() if tgt == merged_cell),
        key=lambda c: c.base,
    )
    shift_back = step_translation(params).inverse()
    exponent = busemann_on_cylinder(params, (1,), shift_back.x0_image)
    rep = SuiteReport(name, cfg.trials, exact=True, details={
        "merged_cell": merged_cell,
        "merged_sources": sources,
        "replay_exponent": exponent,
    })
    rep.check(-1, "merged_sources",
              sources != [bm.Cylinder((1, i)) for i in range(1, params.q + 1)], 0, got=sources)
    kept = {c: t for c, t in mapping.items() if t != merged_cell}
    rep.check(-1, "kept_cells_moved", any(c != t for c, t in kept.items()), 0)
    edge = FiniteSubtree(params, [ROOT, (1,)])
    for which, tree in (("big", big), ("small", small), ("edge", edge)):
        total = sum(bm.cell_measure(params, c) for c in bm.orbit_cells(tree))
        rep.check(-1, "cell_measures_sum", total != 1, 0, subtree=which, got=total)

    # exact averaging: integer-valued data keeps every float op exact
    count, m, labels = bm.orbit_partition(big)
    cells_big = bm.orbit_cells(big)
    src = [cells_big.index(c) for c in sources]
    (lo, hi), = bm.cell_index_ranges(params, merged_cell, m)
    for trial in range(cfg.trials):
        rng = trial_rng(cfg, name, trial)
        re, im = rng.integers(-(2**20), 2**20, size=(2, count, cfg.dim))
        weights = re + 1j * im
        values = weights[labels]
        averaged = haar_average_fix(small, StepFunction(params, m, values))
        expected = values.copy()
        expected[lo:hi] = weights[src].sum(axis=0) / params.q
        rep.check(trial, "merged_average", averaged.resolution != m
                  or not np.array_equal(averaged.values, expected), 0)
        weights[src[-1]] = -weights[src[:-1]].sum(axis=0)
        z_avg = haar_average_fix(small, StepFunction(params, m, weights[labels]))
        rep.check(trial, "zero_sum_not_annihilated", z_avg.values[lo:hi].any(), 0)

    rep.check(-1, "replay_exponent", exponent != -1, 0, got=exponent, want=-1)
    rep.check(-1, "replay_cocycle_value",
              bm.rn_cocycle(shift_back, merged_cell) != Fraction(1, params.q), 0)
    return rep


# -- suite 4: operator recovered from the representation ----------------------


def suite_fixed_vector_transfer(cfg: SuiteConfig) -> SuiteReport:
    """Averaging pi(inversion) over the basepoint stabilizer and scaling
    by q+1 reproduces alpha on every vector."""
    params = cfg.params
    name = "fixed_vector_transfer"
    rep = SuiteReport(name, cfg.trials, {
        "tolerance_rule": "tol * norm(alpha) * norm(w), relative residual reported"
    })
    for trial, (rng, pair) in enumerate(_trial_pairs(cfg, name)):
        w = rng.standard_normal(cfg.dim) + 1j * rng.standard_normal(cfg.dim)
        got = alpha_via_rep(params, w, pair)
        residual = float(np.linalg.norm(got - pair.alpha @ w))
        scale = pair.norm_alpha * float(np.linalg.norm(w))
        rep.check(trial, "transfer", residual / max(scale, 1e-300), cfg.tol, scale=scale)
    return rep


# -- suite 5: half-tree indicators are reachable ------------------------------


def suite_halftree_reach(cfg: SuiteConfig) -> SuiteReport:
    """Any vector-valued indicator of a half-tree at the basepoint is one
    group element away from a constant function: solve
    (tau - tau^{-1}) w' = w, then check
    pi(g)(w' 1) - tau^{-1} w' 1 = (tau - tau^{-1}) w' on that half-tree
    by evaluating both sides independently."""
    params = cfg.params
    name = "halftree_reach"
    rep = SuiteReport(name, cfg.trials, {
        "edge": "basepoint to each neighbour, all q+1 directions sampled"
    })
    for trial, (rng, pair) in enumerate(_trial_pairs(cfg, name)):
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
        rhs = halftree_element(params, w_prime, head, pair)
        scale = max(1.0, float(np.linalg.norm(w_prime)))
        rep.check(trial, "solve", solve_residual, cfg.tol, head=head[0])
        rep.check(trial, "two_path", lhs.max_cell_distance(rhs) / scale, cfg.tol, head=head[0])
    return rep


# -- suite 6: invariant subspaces upstairs and downstairs ----------------------


def _generators(params: TreeParams, rng: np.random.Generator) -> list[TreeAutomorphism]:
    # the portrait word is built as random_word builds its factors, with
    # its level tables left to first use: the lift check only moves
    # constant functions, which never run a batch
    portrait = PortraitGen(random_portrait(params, 2, rng))
    return [
        edge_inversion(params),
        step_translation(params),
        TreeAutomorphism(params, [(portrait, False)]),
    ]


def suite_invariance_correspondence(cfg: SuiteConfig) -> SuiteReport:
    """Eigenvector spans of alpha lift to subspaces the boundary action
    leaks out of by at most numerical noise.  The normal
    alpha = U diag(lam) U* also pins the branch: tau must be
    U diag(phi(lam)) U*, not the other root q tau^{-1}.

    The converse, that a non-invariant line leaks upstairs, needs no
    trials of its own: the lift check's reconstruction probe rebuilds
    alpha w through the representation, so a line leaks upstairs as much
    as alpha moves it downstairs whenever fixed_vector_transfer holds.
    That the lift check counts this probe is pinned by the unit tests."""
    params = cfg.params
    name = "invariance_correspondence"
    d = max(cfg.dim, 2)
    trials = min(cfg.trials, 40)
    rep = SuiteReport(name, trials)
    drawn = []
    for trial in range(trials):
        rng = trial_rng(cfg, name, trial)
        basis_mat, _ = np.linalg.qr(
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        )
        lam = (rng.uniform(0.1, 0.7, size=d) * 2 * math.sqrt(cfg.q)) * np.exp(
            2j * math.pi * rng.uniform(size=d)
        )
        drawn.append((rng, basis_mat, lam))
    pairs = build_pair(np.stack([(u * lam) @ u.conj().T for _, u, lam in drawn]), cfg.q)
    leakages = []
    for trial, ((rng, basis_mat, lam), pair) in enumerate(zip(drawn, pairs)):
        tau_phi = (basis_mat * [phi_scalar(z, cfg.q) for z in lam]) @ basis_mat.conj().T
        rep.check(trial, "tau_branch",
                  spectral_norm(pair.tau - tau_phi) / (1.0 + pair.norm_tau), cfg.tol)
        k = int(rng.integers(1, d))
        gens = _generators(params, rng)
        report = invariant_lift_check(params, basis_mat[:, :k], pair, gens, rng)
        leakages.append(report["max_leakage"])
        rep.check(trial, "invariant_leaks", report["max_leakage"], 1e-9, report=report)
    # a NaN leakage propagates, and the report stores it as null
    rep.details["worst_invariant_leakage"] = float(np.max(leakages))
    return rep


# -- suite 7: fixed-space growth table ----------------------------------------


def suite_admissibility_table(cfg: SuiteConfig) -> SuiteReport:
    """Fixed-space dimensions under ball stabilizers: one row per radius
    and fiber dimension.  The orbit count found by explicit enumeration
    is checked against the closed form (q+1) q^(r-1).  The fixed
    dimension is d per orbit cell, so whenever the orbit count passes it
    equals d (q+1) q^(r-1), which grows strictly in r.  The orbit cells
    of the radius-r ball are its depth-r cylinders, so the orbit count
    times the measure of one of them must be exactly 1.  Each ball is
    the 1-neighbourhood of the one before."""
    params = cfg.params
    name = "admissibility_table"
    dims = sorted({1, 2, 4, cfg.dim})
    rep = SuiteReport(name, (params.depth_cap - 1) * len(dims), exact=True)
    rows = []
    ball = FiniteSubtree(params, [ROOT])
    for r in range(1, params.depth_cap):
        ball = closed_neighborhood(ball, 1)
        count = fixed_space_report(ball)
        closed_form = (params.q + 1) * params.q ** (r - 1)
        rep.check(-1, "orbit_count", count != closed_form, 0, r=r, got=count)
        mass = count * bm.cell_measure(params, bm.Cylinder((1,) * r))
        rep.check(-1, "cell_measures_sum", mass != 1, 0, r=r, got=mass)
        for dd in dims:
            rows.append(
                {"q": params.q, "r": r, "d": dd, "orbit_count": count, "fixed_dim": dd * count}
            )
    csv_lines = ["q,r,d,orbit_count,fixed_dim"]
    csv_lines += [
        f"{row['q']},{row['r']},{row['d']},{row['orbit_count']},{row['fixed_dim']}"
        for row in rows
    ]
    rep.details = {"rows": rows, "csv": "\n".join(csv_lines)}
    return rep


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
    _expect(cfg, SuiteConfig, "a SuiteConfig")
    if _expect(name, str, "a suite name") not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](cfg)


def run_all(cfg: SuiteConfig) -> list[SuiteReport]:
    """Run every suite, one after another in registry order."""
    _expect(cfg, SuiteConfig, "a SuiteConfig")
    return [suite(cfg) for suite in SUITES.values()]
