from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from treerep import automorphism as au
from treerep import measure as me
from treerep import operators as op
from treerep import representation as rp
from treerep import suites as su
from treerep import tree as tr
from treerep.errors import ConfigError, DepthBudgetError, PartitionError, SpectralGuardError

P2 = tr.TreeParams(2)
P3 = tr.TreeParams(3)


def build_rng_pair(params, d, seed):
    rng = np.random.default_rng(seed)
    alpha = op.random_in_disc(d, params.q, rng)
    return rng, alpha, op.build_pair(alpha, params.q)


def cells(v):
    """The (cylinder base, value) pairs of a step function, in index order."""
    return zip(tr.addresses_at_depth(v.params, v.resolution), v.values)


def norm_bound(pair, displacement):
    """Largest spectral norm of tau^k over |k| <= displacement: a bound on
    the representation norm of any element with that displacement."""
    return max(
        np.linalg.norm(
            np.linalg.matrix_power(pair.tau if k >= 0 else pair.tau_inv, abs(k)), 2
        )
        for k in range(-displacement, displacement + 1)
    )


def pi_oracle(g, v, pair):
    """Independent per-cell recomputation of the boundary action.

    Exponents come from deep-proxy enumeration, the cell lookup from
    scalar vertex images, and matrix powers from numpy directly.
    """
    params = v.params
    q = params.q
    m = v.resolution
    m_out = max(m + g.displacement, g.displacement + 1)
    gi = g.inverse()
    rows = []
    for u in oracles.deep_extensions(q, (), m_out):
        b = oracles.busemann_oracle(q, u, (), g.x0_image)
        assert b is not None, "output cells must see a constant increment"
        z = u + (1, 1)  # a deep proxy, which may sit past the depth cap
        for gen, flag in gi.word:
            z = gen.apply(z, flag)
        w_cell = z[:m]
        base = pair.tau if b >= 0 else pair.tau_inv
        mat = np.linalg.matrix_power(base, abs(b))
        rows.append(mat @ v.values[oracles.lex_index(params.q, w_cell)])
    return rp.StepFunction(params, m_out, np.array(rows))


# -- step functions -----------------------------------------------------------


def test_constant_and_indicator_basics():
    w = np.array([1.0 + 2j, -1.0])
    c = rp.constant_fn(P2, w)
    assert c.resolution == 0 and c.dim == 2
    assert np.array_equal(c.integral(), w)
    ind = rp.indicator_fn(P2, me.Cylinder((1,)), w)
    assert ind.resolution == 1
    assert np.allclose(ind.integral(), w / 3)
    comp = rp.indicator_fn(P2, me.canonicalize(P2, me.Halftree((1,), ())), w)
    assert np.allclose(ind.values + comp.values, np.tile(w, (3, 1)))


def test_step_function_shape_validation():
    with pytest.raises(ConfigError):
        rp.StepFunction(P2, 1, np.zeros((4, 2)))  # level 1 has 3 cells


@pytest.mark.parametrize("resolution", [1.0, 1.5, "1", None, np.float64(2)])
def test_step_function_refuses_a_non_integer_resolution(resolution):
    with pytest.raises(ConfigError, match="resolution must be an integer"):
        rp.StepFunction(P2, resolution, np.zeros((3, 2)))


def test_step_function_stores_its_resolution_as_int():
    v = rp.StepFunction(P2, np.int64(1), np.ones((3, 2)))
    assert type(v.resolution) is int
    g = au.step_translation(P2)
    assert rp.pi_apply(g, v, op.build_pair(np.eye(2) * 0.5, 2)).resolution == 2


def test_refine_preserves_the_function():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    v = rp.StepFunction(P2, 1, vals)
    fine = v.refine(3)
    assert fine.resolution == 3
    assert np.array_equal(fine.integral(), v.integral()) or np.allclose(
        fine.integral(), v.integral()
    )
    for u, val in cells(fine):
        coarse = oracles.lex_index(P2.q, u[:1])
        assert np.array_equal(val, vals[coarse])
    from treerep.errors import RefinementError

    with pytest.raises(RefinementError):
        v.refine(0)  # refinement only goes down


@pytest.mark.parametrize("resolution", [9, 10, 99])
def test_refine_past_the_cap_is_a_depth_budget_error(monkeypatch, resolution):
    # refused before any row is repeated: 99 would overflow np.repeat
    v = rp.StepFunction(P2, 1, np.ones((3, 2)))
    exact, repeats = np.repeat, []
    monkeypatch.setattr(np, "repeat", lambda *a, **k: repeats.append(a) or exact(*a, **k))
    with pytest.raises(DepthBudgetError, match=f"resolution {resolution} outside"):
        v.refine(resolution)
    assert repeats == []


def test_arithmetic_and_norms():
    v = rp.constant_fn(P2, np.array([3.0, 4.0]))
    w = rp.indicator_fn(P2, me.Cylinder((1,)), np.array([1.0, 0.0]))
    diff = w - v  # on the common refinement: (-2, -4) on cyl(1), (-3, -4) elsewhere
    assert diff.resolution == 1
    assert np.allclose(diff.integral(), [1 / 3 - 3, -4.0])
    assert abs(w.sup_norm() - 1.0) < 1e-12
    assert abs(diff.sup_norm() - 5.0) < 1e-12
    assert abs(v.max_cell_distance(w) - 5.0) < 1e-12
    assert v.max_cell_distance(v) == 0.0


# -- the boundary representation ----------------------------------------------


def test_pi_identity_is_identity():
    _, _, pair = build_rng_pair(P2, 2, 0)
    v = rp.indicator_fn(P2, me.Cylinder((1,)), np.array([1.0, 2.0]))
    out = rp.pi_apply(au.identity(P2), v, pair)
    assert out.resolution == max(v.resolution, 1)
    assert out.max_cell_distance(v) < 1e-12


def test_pi_edge_inversion_on_constants():
    rng, _, pair = build_rng_pair(P2, 3, 1)
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    out = rp.pi_apply(au.edge_inversion(P2), rp.constant_fn(P2, w), pair)
    # a displacement-1 move resolves to depth 2 = max(m + 1, 2)
    assert out.resolution == 2
    for base, val in cells(out):
        want = (pair.tau if base[:1] == (1,) else pair.tau_inv) @ w
        assert np.linalg.norm(val - want) < 1e-10


def test_pi_swaps_halftree_values():
    # v = w1 on cyl(1), w2 elsewhere; the edge inversion exchanges the
    # halves and twists by tau^{+-1}
    rng, _, pair = build_rng_pair(P2, 2, 2)
    w1 = rng.standard_normal(2) + 0j
    w2 = rng.standard_normal(2) + 0j
    v = rp.StepFunction(P2, 1, [w1 if base == (1,) else w2 for base in tr.addresses_at_depth(P2, 1)])
    out = rp.pi_apply(au.edge_inversion(P2), v, pair)
    for base, val in cells(out):
        if base[:1] == (1,):
            assert np.linalg.norm(val - pair.tau @ w2) < 1e-10
        else:
            assert np.linalg.norm(val - pair.tau_inv @ w1) < 1e-10


def test_pi_matches_per_cell_oracle():
    for params, seed in ((P2, 10), (P2, 11), (P3, 12)):
        rng, _, pair = build_rng_pair(params, 2, seed)
        for _ in range(6):
            g = au.random_word(params, rng, 2)
            m = int(rng.integers(0, 3))
            vals = rng.standard_normal((tr.n_addresses(params, m), 2)) + 1j * rng.standard_normal(
                (tr.n_addresses(params, m), 2)
            )
            v = rp.StepFunction(params, m, vals)
            got = rp.pi_apply(g, v, pair)
            want = pi_oracle(g, v, pair)
            assert got.resolution == want.resolution
            scale = max(1.0, want.sup_norm())
            assert got.max_cell_distance(want) < 1e-9 * scale


@pytest.mark.parametrize("q,cap", [(2, 6), (3, 5), (5, 4)])
def test_pi_exponent_ranges_match_the_oracle(monkeypatch, q, cap):
    # every displacement d the cap allows, with g x0 a random vertex, the
    # first vertex (q+1, 1, ..., 1) of the last depth-1 range and the last
    # vertex (q+1, q, ..., q) of its depth; tau^k is taken once for each
    # exponent 2j - d, j = 0..d
    params = tr.TreeParams(q, cap)
    rng, _, pair = build_rng_pair(params, 2, 50 + q)
    exact, taken = rp.power, []
    monkeypatch.setattr(rp, "power", lambda pair, k: taken.append(k) or exact(pair, k))
    t = au.step_translation(params)
    swap = tuple(range(q + 1, 0, -1))  # 1 <-> q+1 at the root
    flip = tuple(range(q, 0, -1))  # 1 <-> q below a vertex
    shift = au.identity(params)  # t^d moves the basepoint to 1^d
    for d in range(cap):
        heads = {
            "random": au.random_portrait(params, max(d, 1), rng),
            (q + 1,) + (1,) * (d - 1): au.Portrait(swap),
            (q + 1,) + (q,) * (d - 1): au.Portrait(swap, {(1,) * i: flip for i in range(1, d)}),
        }
        for image, portrait in heads.items():
            g = au.compose(au.from_portrait(params, portrait), shift)
            assert g.displacement == d
            assert image == "random" or d == 0 or g.x0_image == image
            for m in range(3):
                if max(m + d, d + 1) > cap:
                    continue
                n = tr.n_addresses(params, m)
                v = rp.StepFunction(
                    params, m, rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
                )
                taken.clear()
                got = rp.pi_apply(g, v, pair)
                assert taken == list(range(-d, d + 1, 2))
                want = pi_oracle(g, v, pair)
                assert got.resolution == want.resolution
                assert got.max_cell_distance(want) < 1e-9 * max(1.0, want.sup_norm())
        shift = au.compose(t, shift)


@given(st.sampled_from([2, 3, 5]), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_pi_portrait_round_trip_is_exact(q, m, seed):
    # a depth-5 portrait fixes the basepoint, so both actions multiply by
    # tau^0 = I and permute rows: the round trip returns v bit for bit
    params = tr.TreeParams(q, 6)
    rng, _, pair = build_rng_pair(params, 2, seed)
    g = au.from_portrait(params, au.random_portrait(params, 5, rng))
    n = tr.n_addresses(params, m)
    v = rp.StepFunction(params, m, rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
    back = rp.pi_apply(g.inverse(), rp.pi_apply(g, v, pair), pair)
    assert back.resolution == m and np.array_equal(back.values, v.values)


def test_pi_is_a_homomorphism():
    rng, _, pair = build_rng_pair(P2, 2, 20)
    for _ in range(10):
        g = au.random_word(P2, rng, 2)
        h = au.random_word(P2, rng, 2)
        m = int(rng.integers(0, 2))
        vals = rng.standard_normal((tr.n_addresses(P2, m), 2)) + 0j
        v = rp.StepFunction(P2, m, vals)
        one = rp.pi_apply(au.compose(g, h), v, pair)
        two = rp.pi_apply(g, rp.pi_apply(h, v, pair), pair)
        bound = norm_bound(pair, g.displacement + h.displacement)
        assert one.max_cell_distance(two) <= 1e-9 * bound * max(1.0, v.sup_norm())


def test_pi_respects_operator_norm_bound():
    rng, _, pair = build_rng_pair(P2, 3, 30)
    for _ in range(10):
        g = au.random_word(P2, rng, 2)
        vals = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v = rp.StepFunction(P2, 1, vals)
        out = rp.pi_apply(g, v, pair)
        bound = norm_bound(pair, g.displacement)
        assert out.sup_norm() <= bound * v.sup_norm() * (1 + 1e-9)


def test_pi_depth_budget_error():
    _, _, pair = build_rng_pair(P2, 1, 40)
    t = au.step_translation(P2)
    g = t
    for _ in range(7):
        g = au.compose(t, g)  # displacement 8
    v = rp.indicator_fn(P2, me.Cylinder((1,)), np.array([1.0]))
    with pytest.raises(DepthBudgetError):
        rp.pi_apply(g, v, pair)


def test_pi_dimension_mismatch():
    _, _, pair = build_rng_pair(P2, 2, 41)
    v = rp.constant_fn(P2, np.array([1.0]))
    with pytest.raises(ConfigError):
        rp.pi_apply(au.edge_inversion(P2), v, pair)


def test_indicator_fn_refuses_a_value_that_is_not_a_vector():
    # a (2, 2) value once filled the cell's two rows with different rows
    half = me.canonicalize(P2, me.Halftree((1,), ()))
    for w in ([[1, 2], [3, 4]], np.ones((1, 2)), []):
        with pytest.raises(ConfigError):
            rp.indicator_fn(P2, half, w)
        with pytest.raises(ConfigError):
            rp.indicator_fn(P2, me.Cylinder((1,)), w)
    with pytest.raises(ConfigError):
        rp.constant_fn(P2, [])
    assert rp.indicator_fn(P2, me.Cylinder((1,)), 2.0).values.tolist() == [[2.0], [0.0], [0.0]]


def test_halftree_element_refuses_a_vector_of_the_wrong_length():
    _, _, pair = build_rng_pair(P2, 2, 75)
    for w in (np.ones(3), np.ones((2, 1)), []):
        with pytest.raises(ConfigError):
            rp.halftree_element(P2, w, (1,), pair)


def test_constant_fn_takes_a_vector_or_a_scalar():
    assert rp.constant_fn(P2, 2.0).values.tolist() == [[2.0]]
    assert rp.constant_fn(P2, [1.0, 2.0]).values.tolist() == [[1.0, 2.0]]
    # a matrix is not flattened into a longer vector
    with pytest.raises(ConfigError):
        rp.constant_fn(P2, np.ones((2, 2)))


# -- averaging ----------------------------------------------------------------


def test_haar_average_full_stabilizer():
    rng = np.random.default_rng(50)
    vals = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    v = rp.StepFunction(P2, 2, vals)
    # the basepoint stabilizer is the pointwise stabilizer of the one-vertex
    # subtree; its one orbit is the whole boundary
    basepoint = tr.FiniteSubtree(P2, [()])
    avg = rp.haar_average_fix(basepoint, v)
    assert avg.resolution == 2
    assert np.allclose(avg.values, vals.mean(axis=0))
    # idempotent (up to rounding of the re-averaged mean) and fixes constants
    again = rp.haar_average_fix(basepoint, avg)
    assert np.allclose(again.values, avg.values, rtol=0, atol=1e-15)
    assert np.array_equal(again.integral(), avg.integral())
    w = np.array([1.0, -2.0 + 0.5j])
    assert np.array_equal(rp.haar_average_fix(basepoint, rp.constant_fn(P2, w)).values, [w])


def test_haar_average_fix_is_cellwise_mean():
    rng = np.random.default_rng(51)
    edge = tr.FiniteSubtree(P2, [(), (1,)])
    vals = rng.standard_normal((6, 2)) + 0j
    v = rp.StepFunction(P2, 2, vals)
    out = rp.haar_average_fix(edge, v)
    for cell in me.orbit_cells(edge):
        idx = []
        for lo, hi in me.cell_index_ranges(P2, cell, out.resolution):
            idx.extend(range(lo, hi))
        sub = out.values[idx]
        assert np.allclose(sub, sub[0])
    assert np.allclose(out.integral(), v.integral())
    again = rp.haar_average_fix(edge, out)
    assert np.allclose(again.values, out.values)


def test_haar_average_fix_repeats_labels_past_the_cells():
    # data finer than the orbit cells, with non-integer values
    rng = np.random.default_rng(52)
    edge = tr.FiniteSubtree(P2, [(), (1,)])
    ball = tr.closed_neighborhood(tr.FiniteSubtree(P3, [()]), 2)
    for params, tree, m in ((P2, edge, 4), (P3, ball, 4)):
        n = tr.n_addresses(params, m)
        vals = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        out = rp.haar_average_fix(tree, rp.StepFunction(params, m, vals))
        assert out.resolution == m
        want = np.empty_like(vals)
        for cell in me.orbit_cells(tree):
            idx = np.concatenate(
                [np.arange(lo, hi) for lo, hi in me.cell_index_ranges(params, cell, m)]
            )
            want[idx] = vals[idx].mean(axis=0)
        assert np.allclose(out.values, want, rtol=0, atol=1e-12)


def test_haar_average_fix_is_the_add_at_mean_bit_for_bit():
    # several rows per label, cylinder and complement cells, and more fiber
    # columns than labels; the sums must be np.add.at's, so exact averages
    # such as prune_replay's stay exact
    rng = np.random.default_rng(53)
    edge = tr.FiniteSubtree(P3, [(), (2,)])
    grown = tr.FiniteSubtree(P2, [(), (1,), (2,), (3,), (1, 1), (1, 2)])
    ball = tr.closed_neighborhood(tr.FiniteSubtree(P2, [()]), 2)
    for tree, m, d in ((edge, 3, 5), (grown, 4, 3), (ball, 5, 2)):
        params = tree.params
        _, k, labels = me.orbit_partition(tree)
        n = tr.n_addresses(params, m)
        vals = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        out = rp.haar_average_fix(tree, rp.StepFunction(params, m, vals))
        labels = np.repeat(labels, n // labels.size)
        assert np.bincount(labels).min() > 1
        assert np.array_equal(out.values, oracles.add_at_mean(labels, vals))


@pytest.mark.parametrize("fault", ["overlap", "gap"])
def test_haar_average_fix_rejects_cells_that_do_not_tile(monkeypatch, fault):
    # the level scan forged to add the cylinder at (1, 1), inside the
    # edge's cylinder at (1,), or to lose the edge's last cell
    edge = tr.FiniteSubtree(P2, [(), (1,)])
    scan = me._scan_orbit_anchors

    def forged(tree):
        depth, ks, idx, complement = scan(tree)
        if fault == "overlap":
            extra = oracles.lex_index(P2.q, (1, 1))
            return depth + 1, np.append(ks, 2), np.append(idx, extra), complement
        return depth, ks[:-1], idx[:-1], complement

    monkeypatch.setattr(me, "_scan_orbit_anchors", forged)
    with pytest.raises(PartitionError):
        rp.haar_average_fix(edge, rp.constant_fn(P2, np.array([1.0])))


def test_halftree_average_annihilates_balanced_sums():
    # w1 + q w2 = 0 makes the two-cell function integrate to zero
    _, _, pair = build_rng_pair(P2, 2, 52)
    w2 = np.array([1.0, -2.0 + 1j])
    w1 = -P2.q * w2
    v = rp.StepFunction(P2, 1, [w1 if base == (1,) else w2 for base in tr.addresses_at_depth(P2, 1)])
    avg = rp.haar_average_fix(tr.FiniteSubtree(P2, [()]), v)
    assert avg.sup_norm() < 1e-12


def test_alpha_recovery_from_representation():
    for params, seed in ((P2, 60), (P3, 61)):
        for d in (1, 2, 4):
            rng, alpha, pair = build_rng_pair(params, d, seed + d)
            for _ in range(10):
                w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                got = rp.alpha_via_rep(params, w, pair)
                want = alpha @ w
                assert np.linalg.norm(got - want) <= 1e-9 * max(
                    1.0, np.linalg.norm(alpha, 2) * np.linalg.norm(w)
                )


# -- half-tree reachability ---------------------------------------------------


def test_basepoint_shift_reaches_every_neighbour():
    for params in (P2, P3):
        for j in range(1, params.q + 2):
            g = au.basepoint_shift(params, (j,))
            assert g.x0_image == (j,)
    with pytest.raises(ConfigError):
        au.basepoint_shift(P2, (1, 1))


def test_halftree_two_path_identity():
    rng, _, pair = build_rng_pair(P2, 2, 70)
    for j in range(1, P2.q + 2):
        w_prime = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        g = au.basepoint_shift(P2, (j,))
        lhs = rp.pi_apply(g, rp.constant_fn(P2, w_prime), pair) - rp.constant_fn(
            P2, pair.tau_inv @ w_prime
        )
        rhs = rp.halftree_element(P2, w_prime, (j,), pair)
        assert lhs.max_cell_distance(rhs) < 1e-9 * max(1.0, np.linalg.norm(w_prime))


def test_halftree_element_rejects_far_edges():
    _, _, pair = build_rng_pair(P2, 1, 71)
    with pytest.raises(ConfigError):
        rp.halftree_element(P2, np.array([1.0]), (1, 1), pair)


def test_halftree_preimage_solves():
    rng, _, pair = build_rng_pair(P3, 4, 72)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w_prime = rp.halftree_preimage(pair, w)
    assert np.linalg.norm((pair.tau - pair.tau_inv) @ w_prime - w) <= 1e-9 * max(
        1.0, np.linalg.norm(w)
    )


def test_halftree_preimage_guards_singularity():
    _, _, pair = build_rng_pair(P2, 2, 73)
    forged = op.OperatorPair(
        q=pair.q,
        alpha=pair.alpha,
        tau=np.eye(2, dtype=complex),  # tau - tau_inv = 0
        tau_inv=np.eye(2, dtype=complex),
        residuals=pair.residuals,
        norm_alpha=pair.norm_alpha,
        norm_tau=1.0,
    )
    with pytest.raises(SpectralGuardError):
        rp.halftree_preimage(forged, np.array([1.0, 0.0]))


def test_halftree_preimage_rejects_a_vector_of_the_wrong_shape():
    _, _, pair = build_rng_pair(P2, 2, 74)
    for w in (np.ones(3), np.ones(1), np.ones((2, 1)), 1.0):
        with pytest.raises(ConfigError):
            rp.halftree_preimage(pair, w)


# -- fixed spaces -------------------------------------------------------------


def test_fixed_space_report_counts():
    for params, q in ((P2, 2), (P3, 3)):
        for r in (1, 2, 3):
            ball = tr.closed_neighborhood(tr.FiniteSubtree(params, [()]), r)
            count = rp.fixed_space_report(ball)
            assert count == (q + 1) * q ** (r - 1)
            assert len(oracles.orbit_cells_per_vertex(ball)) == count


def count_orbit_enumerations(monkeypatch) -> Counter:
    """Count the level scans that find each subtree's orbit cells."""
    calls = Counter()
    scan = me._scan_orbit_anchors

    def counted(tree):
        calls[tree] += 1
        return scan(tree)

    monkeypatch.setattr(me, "_scan_orbit_anchors", counted)
    return calls


@pytest.mark.parametrize("params", [P2, P3], ids=["q2", "q3"])
def test_fixed_space_report_enumerates_the_orbits_once(monkeypatch, params):
    calls = count_orbit_enumerations(monkeypatch)
    ball = tr.closed_neighborhood(tr.FiniteSubtree(params, [()]), 3)
    assert rp.fixed_space_report(ball) == (params.q + 1) * params.q**2
    assert calls == {ball: 1}


@pytest.mark.parametrize("q", [2, 3])
def test_prune_replay_enumerates_each_subtree_once(monkeypatch, q):
    calls = count_orbit_enumerations(monkeypatch)
    cfg = su.SuiteConfig(q=q, trials=5)
    assert su.suite_prune_replay(cfg).passed
    # the pair, and the edge whose cells include a complement
    edge = tr.FiniteSubtree(cfg.params, [(), (1,)])
    assert calls == dict.fromkeys([*su.replay_pruning_pair(cfg.params), edge], 1)


# -- invariant subspace correspondence ----------------------------------------


def generators_for(params):
    return [
        au.edge_inversion(params),
        au.step_translation(params),
        au.from_portrait(params, au.random_portrait(params, 2, np.random.default_rng(7))),
    ]


def test_invariant_subspace_does_not_leak():
    rng = np.random.default_rng(80)
    d = 4
    # alpha with an orthonormal eigenbasis keeps the lift exactly invariant
    qmat, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    lam = 0.5 * np.exp(2j * np.pi * rng.random(d)) * np.sqrt(2)
    alpha = (qmat * lam) @ qmat.conj().T
    pair = op.build_pair(alpha, 2)
    basis = qmat[:, :2]
    out = rp.invariant_lift_check(P2, basis, pair, generators_for(P2), rng=rng)
    assert out["max_leakage"] <= 1e-9
    assert out["subspace_dim"] == 2


def test_non_invariant_line_leaks_at_comparable_rate():
    rng = np.random.default_rng(81)
    d = 3
    _, alpha, pair = build_rng_pair(P2, d, 82)
    for _ in range(10):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        direct = np.linalg.norm(alpha @ v - (v.conj() @ (alpha @ v)) * v)
        if direct < 1e-3:
            continue
        out = rp.invariant_lift_check(P2, v.reshape(-1, 1), pair, generators_for(P2), rng=rng)
        assert out["max_leakage"] >= 0.5 * direct


def test_invariant_lift_check_always_probes(monkeypatch):
    # the probe count is fixed: a call cannot probe nothing and report 0
    calls = []
    exact = rp.alpha_via_rep
    monkeypatch.setattr(rp, "alpha_via_rep", lambda *args: calls.append(args) or exact(*args))
    rng, _, pair = build_rng_pair(P2, 2, 84)
    line = np.array([[1.0], [0.3]])
    out = rp.invariant_lift_check(P2, line, pair, generators_for(P2), rng=rng)
    assert len(calls) == rp._LIFT_PROBES >= 1
    assert out["max_leakage"] > 0.1
    assert "trials" not in out


def test_invariant_lift_check_rejects_dependent_basis():
    rng, _, pair = build_rng_pair(P2, 3, 83)
    v = rng.standard_normal(3) + 0j
    # dependent columns, more columns than rows, no columns, a bare vector,
    # and a list of vectors, which stacks as rows
    wide = rng.standard_normal((3, 4)) + 0j
    for basis in (np.stack([v, 2 * v], axis=1), wide, np.zeros((3, 0)), v, [v]):
        with pytest.raises(ConfigError):
            rp.invariant_lift_check(P2, basis, pair, generators_for(P2), rng=rng)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
def test_invariant_lift_check_rejects_a_non_finite_basis(bad):
    # a NaN basis used to fail inside the SVD, an infinite one to report
    # no leakage at all
    rng, _, pair = build_rng_pair(P2, 2, 85)
    basis = np.array([[1.0], [0.3]], dtype=complex)
    basis[1, 0] = bad
    with pytest.raises(ConfigError, match="non-finite"):
        rp.invariant_lift_check(P2, basis, pair, generators_for(P2), rng=rng)


def test_row_gathers_match_fancy_indexing_bit_for_bit(monkeypatch):
    # pi_apply's lookup and haar_average_fix's spread gather rows with
    # np.take; the same calls with fancy indexing in its place are the
    # reference, on row-major, column-major and strided value arrays
    rng, _, pair = build_rng_pair(P3, 2, 86)
    words = [au.random_word(P3, rng, 3) for _ in range(6)]
    ball = tr.closed_neighborhood(tr.FiniteSubtree(P3, [()]), 2)
    n = tr.n_addresses(P3, 3)
    raw = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    layouts = [raw[:, :2].copy(), np.asfortranarray(raw[:, :2]), raw[:, ::2]]

    def run():
        out = []
        for values in layouts:
            v = rp.StepFunction(P3, 3, values)
            out += [rp.pi_apply(g, v, pair).values for g in words]
            out.append(rp.haar_average_fix(ball, v).values)
        return out

    take, calls = np.take, []
    monkeypatch.setattr(np, "take", lambda a, idx, axis: calls.append(axis) or take(a, idx, axis))
    got = run()
    assert calls and set(calls) == {0}
    monkeypatch.setattr(np, "take", lambda a, idx, axis: a[idx])
    for a, b in zip(got, run(), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
