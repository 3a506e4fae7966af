import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from treerep import tree as tr
from treerep.errors import (
    CylinderTooShallowError,
    DepthBudgetError,
    MalformedAddressError,
    NotCompleteError,
    SubtreeError,
)

P2 = tr.TreeParams(2)
P3 = tr.TreeParams(3)


def addresses(q, max_depth=5):
    first = st.integers(1, q + 1)
    rest = st.lists(st.integers(1, q), max_size=max_depth - 1)
    tail = st.tuples(first).flatmap(lambda f: rest.map(lambda r: f + tuple(r)))
    return st.one_of(st.just(()), tail)


# -- parameters and addresses -------------------------------------------------


def test_params_validation():
    with pytest.raises(Exception):
        tr.TreeParams(1)
    with pytest.raises(Exception):
        tr.TreeParams(2, depth_cap=0)
    assert tr.TreeParams(2).depth_cap == 8


def test_check_address_rules():
    tr.check_address(P2, ())
    tr.check_address(P2, (3, 1, 2))
    with pytest.raises(MalformedAddressError):
        tr.check_address(P2, (4,))  # first letter caps at q+1
    with pytest.raises(MalformedAddressError):
        tr.check_address(P2, (1, 3))  # later letters cap at q
    with pytest.raises(MalformedAddressError):
        tr.check_address(P2, (0,))
    with pytest.raises(DepthBudgetError):
        tr.check_address(P2, (1,) * 9)
    tr.check_address(P2, (1,) * 9, allow_deep=True)


def test_format_address():
    assert tr.format_address(()) == "-"
    assert tr.format_address((3, 1, 2)) == "3.1.2"


# -- local structure ----------------------------------------------------------


def test_parent_children_neighbors():
    assert tr.parent((1, 2)) == (1,)
    with pytest.raises(MalformedAddressError):
        tr.parent(())
    assert tr.children(P2, ()) == [(1,), (2,), (3,)]
    assert tr.children(P2, (3,)) == [(3, 1), (3, 2)]
    assert sorted(tr.neighbors(P2, (1,))) == [(), (1, 1), (1, 2)]
    assert sorted(tr.neighbors(P2, ())) == [(1,), (2,), (3,)]
    for v in oracles.ball_vertices(2, 3):
        assert sorted(tr.neighbors(P2, v)) == sorted(oracles.adjacency(2, 4)[v])


def test_every_vertex_has_q_plus_1_neighbors():
    for q, params in ((2, P2), (3, P3)):
        for v in oracles.ball_vertices(q, 3):
            assert len(tr.neighbors(params, v)) == q + 1


# -- metric against breadth-first search --------------------------------------


def test_distance_examples():
    assert tr.distance(P2, (), ()) == 0
    assert tr.distance(P2, (1,), (1, 2)) == 1
    assert tr.distance(P2, (1,), (2,)) == 2
    assert tr.distance(P2, (1, 1), (2, 2)) == 4


def test_distance_matches_bfs():
    for q, params in ((2, P2), (3, P3)):
        verts = oracles.ball_vertices(q, 3)
        for u in verts[:: max(1, len(verts) // 12)]:
            dist = oracles.bfs_distances(q, 3, u)
            for v in verts:
                assert tr.distance(params, u, v) == dist[v]


def test_geodesic_matches_bfs_vertex_set():
    verts = oracles.ball_vertices(2, 3)
    rng = np.random.default_rng(0)
    for _ in range(40):
        u, v = (verts[rng.integers(len(verts))] for _ in range(2))
        path = tr.geodesic(P2, u, v)
        assert path[0] == u and path[-1] == v
        assert all(tr.distance(P2, a, b) == 1 for a, b in zip(path, path[1:]))
        assert sorted(path) == oracles.geodesic_vertices(2, 3, u, v)


def test_median_examples_from_enumeration():
    # the vertex lying on all three pairwise geodesics, by brute force
    assert oracles.median_oracle(2, 2, (), (1,), (1, 1)) == (1,)
    assert tr.median(P2, (), (1,), (1, 1)) == (1,)
    assert oracles.median_oracle(2, 2, (1,), (2,), (1, 1)) == (1,)
    assert tr.median(P2, (1,), (2,), (1, 1)) == (1,)
    assert tr.median(P2, (1, 1), (1, 2), (2, 1)) == (1,)
    assert tr.median(P2, (1,), (2,), (3,)) == ()


def test_median_matches_enumeration_everywhere():
    verts = oracles.ball_vertices(2, 3)
    rng = np.random.default_rng(1)
    for _ in range(60):
        u, v, w = (verts[rng.integers(len(verts))] for _ in range(3))
        m = tr.median(P2, u, v, w)
        assert m == oracles.median_oracle(2, 3, u, v, w)


@given(addresses(2), addresses(2), addresses(2))
def test_median_permutation_invariant(u, v, w):
    m = tr.median(P2, u, v, w)
    assert m == tr.median(P2, v, w, u) == tr.median(P2, w, u, v)
    for a, b in ((u, v), (v, w), (u, w)):
        assert tr.distance(P2, a, m) + tr.distance(P2, m, b) == tr.distance(P2, a, b)


@given(addresses(2), addresses(2))
def test_distance_symmetry_and_lcp_formula(u, v):
    assert tr.distance(P2, u, v) == tr.distance(P2, v, u)
    k = len(tr.lcp(u, v))
    assert tr.distance(P2, u, v) == len(u) + len(v) - 2 * k


# -- horofunction increments --------------------------------------------------


def test_busemann_examples():
    # increment from the basepoint to its first neighbour
    assert tr.busemann_on_cylinder(P2, (1,), (), (1,)) == 1
    assert tr.busemann_on_cylinder(P2, (2,), (), (1,)) == -1
    assert tr.busemann_on_cylinder(P2, (1, 1), (), (1,)) == 1
    assert tr.busemann_on_cylinder(P2, (), (1,), (1,)) == 0


def test_busemann_shallow_cell_rejected():
    # cyl(-) meets both half-trees of the edge, so no constant value exists
    with pytest.raises(CylinderTooShallowError):
        tr.busemann_on_cylinder(P2, (), (), (1,))
    with pytest.raises(CylinderTooShallowError):
        tr.busemann_on_cylinder(P2, (1,), (), (1, 2))


def test_busemann_matches_deep_proxy_enumeration():
    rng = np.random.default_rng(2)
    verts = oracles.ball_vertices(2, 2)
    bases = oracles.ball_vertices(2, 3)
    for _ in range(200):
        x = verts[rng.integers(len(verts))]
        y = verts[rng.integers(len(verts))]
        u = bases[rng.integers(len(bases))]
        want = oracles.busemann_oracle(2, u, x, y)
        if want is None:
            with pytest.raises(CylinderTooShallowError):
                tr.busemann_on_cylinder(P2, u, x, y)
        else:
            assert tr.busemann_on_cylinder(P2, u, x, y) == want


def test_busemann_antisymmetry_and_cocycle():
    verts = oracles.ball_vertices(2, 2)
    for x in verts:
        for y in verts:
            u = (1, 1, 1)
            bxy = tr.busemann_on_cylinder(P2, u, x, y)
            byx = tr.busemann_on_cylinder(P2, u, y, x)
            assert bxy == -byx
            for z in verts[:4]:
                byz = tr.busemann_on_cylinder(P2, u, y, z)
                bxz = tr.busemann_on_cylinder(P2, u, x, z)
                assert bxy + byz == bxz


# -- enumerations -------------------------------------------------------------


def test_address_counts():
    assert [tr.n_addresses(P2, m) for m in range(4)] == [1, 3, 6, 12]
    assert [tr.n_addresses(P3, m) for m in range(4)] == [1, 4, 12, 36]
    for q, params in ((2, P2), (3, P3)):
        for m in range(4):
            assert tr.n_addresses(params, m) == len(oracles.deep_extensions(q, (), m))


def test_letter_matrix_lexicographic_and_round_trip():
    for params in (P2, P3):
        for m in range(4):
            mat = tr.letter_matrix(params, m)
            assert mat.shape == (tr.n_addresses(params, m), m)
            rows = [tuple(int(x) for x in row) for row in mat]
            assert rows == sorted(rows)
            for i, row in enumerate(rows):
                assert tr.address_index(params, row) == i
                assert tr.address_from_index(params, m, i) == row
    with pytest.raises(ValueError):
        tr.letter_matrix(P2, 2)[0, 0] = 9  # cached array is write-protected


def test_addresses_at_depth_agrees_with_matrix():
    for m in range(3):
        assert list(tr.addresses_at_depth(P2, m)) == [
            tuple(int(x) for x in row) for row in tr.letter_matrix(P2, m)
        ]


def test_prefix_indices_gathers_ancestors():
    m = 2
    deep = tr.letter_matrix(P2, 4)
    lengths = np.full(deep.shape[0], 4)
    idx = tr.prefix_indices(P2, deep, lengths, m)
    for i in range(deep.shape[0]):
        prefix = tuple(int(x) for x in deep[i, :m])
        assert idx[i] == tr.address_index(P2, prefix)


# -- finite subtrees ----------------------------------------------------------


def test_subtree_requires_connectivity_and_root_closure():
    tr.FiniteSubtree(P2, [(), (1,)])
    with pytest.raises(SubtreeError):
        tr.FiniteSubtree(P2, [(), (1, 1)])  # gap at (1,)
    with pytest.raises(SubtreeError):
        tr.FiniteSubtree(P2, [])


def test_subtree_membership_and_valency():
    s = tr.FiniteSubtree(P2, [(), (1,), (2,), (3,), (1, 1), (1, 2)])
    assert (1, 1) in s and (2, 1) not in s
    assert s.valency_in(()) == 3
    assert s.valency_in((1,)) == 3
    assert s.valency_in((2,)) == 1


def test_boundary_and_completeness():
    ball = tr.closed_neighborhood(tr.FiniteSubtree(P2, [()]), 1)
    assert sorted(ball.vertices) == [(), (1,), (2,), (3,)]
    assert tr.boundary_vertices(ball) == [(1,), (2,), (3,)]
    assert tr.is_complete(ball)
    edge = tr.FiniteSubtree(P2, [(), (1,)])
    assert tr.is_complete(edge)  # both vertices are leaves of the subtree
    path = tr.FiniteSubtree(P2, [(), (1,), (1, 1)])
    assert not tr.is_complete(path)  # middle vertex has valency 2 of 3


def test_closed_neighborhood_matches_bfs_ball():
    for radius in (1, 2, 3):
        ball = tr.closed_neighborhood(tr.FiniteSubtree(P2, [()]), radius)
        dist = oracles.bfs_distances(2, radius, ())
        assert ball.vertices == frozenset(v for v, d in dist.items() if d <= radius)
    with pytest.raises(DepthBudgetError):
        tr.closed_neighborhood(tr.FiniteSubtree(P2, [()]), 9)


def test_incomplete_subtree_reported():
    path = tr.FiniteSubtree(P2, [(), (1,), (1, 1)])
    with pytest.raises(NotCompleteError):
        from treerep import measure

        measure.orbit_cells(path)
