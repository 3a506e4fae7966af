"""Acceptance gate: the nine identities the package is contracted to satisfy.

Each test pins its tolerance and its runtime budget explicitly.  The
terminal summary hook prints one pass/fail line per criterion.
"""

import time
from fractions import Fraction

import numpy as np

import oracles
from treerep import automorphism as au
from treerep import measure as me
from treerep import operators as op
from treerep import representation as rp
from treerep import suites as su
from treerep import tree as tr


def random_cylinder(params, rng, depth):
    q = params.q
    base = tuple(
        int(rng.integers(1, (q + 2) if k == 0 else (q + 1))) for k in range(depth)
    )
    return me.Cylinder(base)


def test_criterion_1_measure_cocycle_exact():
    start = time.perf_counter()
    for q in (2, 3):
        params = tr.TreeParams(q, depth_cap=8)
        rng = np.random.default_rng(q)
        for _ in range(100):
            g = au.random_word(params, rng, 3)
            cell = random_cylinder(params, rng, g.displacement + 1)
            rn = me.rn_cocycle(g, cell)
            pulled = me.map_cell(g.inverse(), cell)
            assert me.cell_measure(params, pulled) == rn * me.cell_measure(params, cell)
            assert isinstance(rn, Fraction)
    assert time.perf_counter() - start < 5.0


def build_seeded_pairs():
    pairs = []
    rng = np.random.default_rng(2024)
    for trial in range(100):
        q = 2 if trial % 2 else 3
        d = 1 + trial % 6
        alpha = op.random_in_disc(d, q, rng)
        pairs.append((alpha, op.build_pair(alpha, q)))
    return pairs


def test_criterion_2_calculus_residuals():
    start = time.perf_counter()
    for alpha, pair in build_seeded_pairs():
        d = pair.dim
        na = np.linalg.norm(alpha, 2)
        eye = np.eye(d)
        quad = np.linalg.norm(pair.tau @ pair.tau - alpha @ pair.tau + pair.q * eye, 2)
        lin = np.linalg.norm(pair.tau + pair.q * pair.tau_inv - alpha, 2)
        assert quad <= 1e-9 * (1 + na * na)
        assert lin <= 1e-9 * (1 + na)
    assert time.perf_counter() - start < 2.0


def test_criterion_3_spectral_guards():
    start = time.perf_counter()
    for _, pair in build_seeded_pairs():
        report = op.guard_spectrum(pair)
        assert report["margin_to_pm_q"] > 0
        assert report["sigma_min_diff"] > 0
    assert time.perf_counter() - start < 2.0


def test_criterion_4_representation_homomorphism():
    start = time.perf_counter()
    params = tr.TreeParams(2, depth_cap=8)
    rng = np.random.default_rng(4)
    alpha = op.random_in_disc(2, 2, rng)
    pair = op.build_pair(alpha, 2)
    norm_tau = op.spectral_norm(pair.tau)
    for _ in range(100):
        g = au.random_word(params, rng, 2)
        h = au.random_word(params, rng, 2)
        m = int(rng.integers(0, 2))
        vals = rng.standard_normal((tr.n_addresses(params, m), 2)) + 1j * rng.standard_normal(
            (tr.n_addresses(params, m), 2)
        )
        v = rp.StepFunction(params, m, vals)
        one = rp.pi_apply(au.compose(g, h), v, pair)
        two = rp.pi_apply(g, rp.pi_apply(h, v, pair), pair)
        bound = 1e-8 * norm_tau ** (g.displacement + h.displacement) * max(1.0, v.sup_norm())
        assert one.max_cell_distance(two) <= bound
    assert time.perf_counter() - start < 20.0


def test_criterion_5_alpha_recovery():
    for q in (2, 3):
        params = tr.TreeParams(q)
        basepoint = tr.FiniteSubtree(params, [()])  # the basepoint stabilizer fixes it
        rng = np.random.default_rng(50 + q)
        for trial in range(100):
            d = 1 + trial % 6
            alpha = op.random_in_disc(d, q, rng)
            pair = op.build_pair(alpha, q)
            w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            moved = rp.pi_apply(au.edge_inversion(params), rp.constant_fn(params, w), pair)
            got = (q + 1) * rp.haar_average_fix(basepoint, moved).values[0]
            err = np.linalg.norm(got - alpha @ w)
            assert err <= 1e-9 * np.linalg.norm(alpha, 2) * np.linalg.norm(w)


def test_criterion_6_orbit_merge_replay():
    for q in (2, 3):
        params = tr.TreeParams(q)
        ball = tr.closed_neighborhood(tr.FiniteSubtree(params, [(), (1,)]), 1)
        pruned = tr.FiniteSubtree(
            params, ball.vertices - {(1, letter) for letter in range(1, q + 1)}
        )
        merge = me.orbit_merge_under_pruning(ball, pruned)
        counts = {}
        for target in merge.values():
            counts[target] = counts.get(target, 0) + 1
        merged_target, n_sources = max(counts.items(), key=lambda kv: kv[1])
        assert n_sources == q
        assert merged_target == me.Cylinder((1,))

        # averaged value on the merged cell is the plain mean, bitwise:
        # integer-valued vectors keep every float sum exact
        rng = np.random.default_rng(60 + q)
        sources = sorted(
            (c for c, t in merge.items() if t == merged_target),
            key=lambda c: c.base,
        )
        depth = 2
        vals = rng.integers(-(2**20), 2**20, size=(tr.n_addresses(params, depth), 3)).astype(
            np.complex128
        )
        v = rp.StepFunction(params, depth, vals)
        averaged = rp.haar_average_fix(pruned, v)
        w_list = [vals[oracles.lex_index(params.q, c.base)] for c in sources]
        expected = sum(w_list) / q
        for lo, hi in me.cell_index_ranges(params, merged_target, averaged.resolution):
            assert np.array_equal(averaged.values[lo:hi], np.tile(expected, (hi - lo, 1)))

        # the replay translation pushes the basepoint away from cyl(1),
        # so the merged cell sees the horofunction increment -1 exactly
        replay = au.step_translation(params).inverse()
        assert tr.busemann_on_cylinder(params, (1,), replay.x0_image) == -1
        assert me.rn_cocycle(replay, merged_target) == Fraction(1, q)


def test_criterion_7_halftree_two_path():
    for q in (2, 3):
        params = tr.TreeParams(q)
        rng = np.random.default_rng(70 + q)
        alpha = op.random_in_disc(3, q, rng)
        pair = op.build_pair(alpha, q)
        for j in range(1, q + 2):
            w_prime = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            g = au.basepoint_shift(params, (j,))
            direct = rp.pi_apply(g, rp.constant_fn(params, w_prime), pair) - rp.constant_fn(
                params, pair.tau_inv @ w_prime
            )
            closed_form = rp.halftree_element(params, w_prime, (j,), pair)
            assert direct.max_cell_distance(closed_form) <= 1e-9 * max(
                1.0, np.linalg.norm(w_prime)
            )
        for _ in range(100):
            target = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            w_prime = rp.halftree_preimage(pair, target)
            residual = np.linalg.norm((pair.tau - pair.tau_inv) @ w_prime - target)
            assert residual <= 1e-9 * max(1.0, np.linalg.norm(target))


def test_criterion_8_invariance_correspondence():
    params = tr.TreeParams(2)
    generators = [
        au.edge_inversion(params),
        au.step_translation(params),
        au.from_portrait(params, au.random_portrait(params, 2, np.random.default_rng(8))),
    ]
    rng = np.random.default_rng(88)
    # invariant eigenvector spans stay invariant after lifting
    for trial in range(10):
        d = 2 + trial % 4
        qmat, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        radii = (0.1 + 0.6 * rng.random(d)) * 2 * np.sqrt(2)
        lam = radii * np.exp(2j * np.pi * rng.random(d))
        alpha = (qmat * lam) @ qmat.conj().T
        pair = op.build_pair(alpha, 2)
        k = 1 + trial % (d - 1) if d > 1 else 1
        report = rp.invariant_lift_check(params, qmat[:, :k], pair, generators, rng)
        assert report["max_leakage"] <= 1e-9

    # non-invariant lines leak at least half their direct alpha-leakage
    d = 3
    alpha = op.random_in_disc(d, 2, rng)
    pair = op.build_pair(alpha, 2)
    checked = 0
    while checked < 20:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        direct = float(np.linalg.norm(alpha @ v - (v.conj() @ (alpha @ v)) * v))
        if direct <= 1e-3 * op.spectral_norm(alpha):
            continue
        report = rp.invariant_lift_check(params, v[:, None], pair, generators, rng)
        assert report["max_leakage"] >= 0.5 * direct
        checked += 1


def test_criterion_9_admissibility_table():
    for q in (2, 3):
        params = tr.TreeParams(q)
        for r in range(1, 6):
            ball = tr.closed_neighborhood(tr.FiniteSubtree(params, [()]), r)
            assert rp.fixed_space_report(ball) == (q + 1) * q ** (r - 1)


def test_full_verify_within_time_budget():
    start = time.perf_counter()
    for q in (2, 3):
        reports = su.run_all(su.SuiteConfig(q=q))
        assert all(r.passed for r in reports), [r.suite_name for r in reports if not r.passed]
    assert time.perf_counter() - start < 60.0
