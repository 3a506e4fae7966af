import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from treerep import tree as tr
from treerep.errors import (
    ConfigError,
    CylinderTooShallowError,
    DepthBudgetError,
    MalformedAddressError,
    NotCompleteError,
    SubtreeError,
)

P2 = tr.TreeParams(2)
P3 = tr.TreeParams(3)


# -- parameters and addresses -------------------------------------------------


def test_params_validation():
    with pytest.raises(Exception):
        tr.TreeParams(1)
    with pytest.raises(Exception):
        tr.TreeParams(2, depth_cap=0)
    assert tr.TreeParams(2).depth_cap == 8


def test_params_store_numpy_integers_as_int():
    # equal parameters, whatever integer type built them, compare, hash,
    # key the caches and serialize alike
    params = tr.TreeParams(np.int64(3), np.int32(5))
    assert params == tr.TreeParams(3, 5) and hash(params) == hash(tr.TreeParams(3, 5))
    assert type(params.q) is int and type(params.depth_cap) is int
    assert tr.letter_matrix(params, 2) is tr.letter_matrix(tr.TreeParams(3, 5), 2)
    assert json.dumps(dataclasses.asdict(params)) == '{"q": 3, "depth_cap": 5}'
    for bad in (dict(q=2.5), dict(q=np.float64(3.0)), dict(q="3"), dict(q=3, depth_cap=4.0)):
        with pytest.raises(ConfigError):
            tr.TreeParams(**bad)


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
    assert tr.neighbors(P2, ()) == [(1,), (2,), (3,)]
    assert tr.neighbors(P2, (3,)) == [(), (3, 1), (3, 2)]
    for v in oracles.ball_vertices(2, 3):
        assert sorted(tr.neighbors(P2, v)) == sorted(oracles.adjacency(2, 4)[v])


def test_every_vertex_has_q_plus_1_neighbors():
    for q, params in ((2, P2), (3, P3)):
        for v in oracles.ball_vertices(q, 3):
            assert len(tr.neighbors(params, v)) == q + 1


# -- metric against breadth-first search --------------------------------------


def test_distance_matches_bfs():
    # d(u, v) = |u| + |v| - 2 |lcp(u, v)|, the formula busemann_on_cylinder inlines
    for q in (2, 3):
        verts = oracles.ball_vertices(q, 3)
        for u in verts[:: max(1, len(verts) // 12)]:
            dist = oracles.bfs_distances(q, 3, u)
            for v in verts:
                assert len(u) + len(v) - 2 * len(tr.lcp(u, v)) == dist[v]


# -- horofunction increments --------------------------------------------------


def test_busemann_examples():
    # increment from the basepoint to its first neighbour
    assert tr.busemann_on_cylinder(P2, (1,), (1,)) == 1
    assert tr.busemann_on_cylinder(P2, (2,), (1,)) == -1
    assert tr.busemann_on_cylinder(P2, (1, 1), (1,)) == 1
    assert tr.busemann_on_cylinder(P2, (), ()) == 0


def test_busemann_shallow_cell_rejected():
    # cyl(-) meets both half-trees of the edge, so no constant value exists
    with pytest.raises(CylinderTooShallowError):
        tr.busemann_on_cylinder(P2, (), (1,))
    with pytest.raises(CylinderTooShallowError):
        tr.busemann_on_cylinder(P2, (1,), (1, 2))


def test_busemann_matches_deep_proxy_enumeration():
    # every cylinder against every endpoint, both in the depth-3 ball
    for q, params in ((2, P2), (3, P3)):
        verts = oracles.ball_vertices(q, 3)
        for y in verts:
            for u in verts:
                want = oracles.busemann_oracle(q, u, (), y)
                if want is None:
                    with pytest.raises(CylinderTooShallowError):
                        tr.busemann_on_cylinder(params, u, y)
                else:
                    assert tr.busemann_on_cylinder(params, u, y) == want


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
            assert mat.dtype == np.int16 and mat.flags.f_contiguous
            rows = [tuple(int(x) for x in row) for row in mat]
            assert rows == sorted(rows)
            for i, row in enumerate(rows):
                assert oracles.lex_index(params.q, row) == i
                assert tr.address_from_index(params, m, i) == row
    with pytest.raises(ValueError):
        tr.letter_matrix(P2, 2)[0, 0] = 9  # cached array is write-protected
    # at q = 10 the depth-19 indices pass 2^63; both sides round-trip exactly
    deep = tr.TreeParams(10, depth_cap=25)
    for m in range(18, 22):
        n = tr.n_addresses(deep, m)
        picks = [0, 5, 2**63 - 1, 2**63, 2**63 + 1, 2**64 + 5, n - 1]
        for i in (i for i in picks if i < n):
            addr = tr.address_from_index(deep, m, i)
            assert len(addr) == m and all(type(x) is int for x in addr)
            assert tr.index_unchecked(10, addr) == i
        with pytest.raises(MalformedAddressError):
            tr.address_from_index(deep, m, n)


@pytest.mark.parametrize("bad", [1.5, 2.0, "2", None])
def test_index_helpers_refuse_a_non_integer(bad):
    tr.letter_matrix(P2, 2)  # a cached depth 2 must not answer for 2.0
    with pytest.raises(ConfigError, match="depth must be a nonnegative integer"):
        tr.n_addresses(P2, bad)
    with pytest.raises(ConfigError, match="depth must be a nonnegative integer"):
        tr.letter_matrix(P2, bad)
    with pytest.raises(ConfigError, match="depth must be a nonnegative integer"):
        tr.address_from_index(P2, bad, 1)
    with pytest.raises(MalformedAddressError, match="is not an integer"):
        tr.address_from_index(P2, 2, bad)


def test_index_helpers_take_numpy_integers():
    assert tr.n_addresses(P2, np.int64(3)) == 12
    assert tr.address_from_index(P2, np.int8(2), np.int64(5)) == (3, 2)
    assert np.array_equal(tr.letter_matrix(P3, np.int64(2)), tr.letter_matrix(P3, 2))


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
        assert idx[i] == oracles.lex_index(P2.q, prefix)


def test_prefix_indices_past_int64_do_not_wrap():
    # 2^64 + 5 is a valid depth-20 index at q = 10; int64 would fold it to 5
    params = tr.TreeParams(10, depth_cap=25)
    rows = [tr.address_from_index(params, 20, i) + (3,) for i in (5, 2**64 + 5)]
    letters = np.array(rows, dtype=np.int16)
    idx = tr.prefix_indices(params, letters, np.full(2, 21), 20)
    assert idx.tolist() == [5, 2**64 + 5]
    assert type(idx[1]) is int


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
    # (), then (1,) (2,) (3,), then (1, 1) (1, 2)
    assert [val.tolist() for val in s.valencies] == [[3], [3, 1, 1], [1, 1]]


def test_boundary_and_completeness():
    ball = tr.closed_neighborhood(tr.FiniteSubtree(P2, [()]), 1)
    assert sorted(ball.vertices) == [(), (1,), (2,), (3,)]
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


# -- the per-depth index arrays of a subtree ----------------------------------


def ball_of(q, radius):
    return oracles.ball_vertices(q, radius)


def grown_set(q, rng, size, depth=4):
    """A connected vertex set inside the radius-`depth` ball, grown from a
    random start (usually not the basepoint) by adding random neighbours."""
    ball = ball_of(q, depth)
    verts = {ball[int(rng.integers(1, len(ball)))]}
    while len(verts) < size:
        v = sorted(verts)[int(rng.integers(0, len(verts)))]
        near = [w for w in oracles.tree_neighbors(q, v) if len(w) <= depth]
        verts.add(near[int(rng.integers(0, len(near)))])
    return verts


def scattered_set(q, rng, size, depth=4):
    ball = ball_of(q, depth)
    picks = rng.choice(len(ball), size=size, replace=False)
    return {ball[int(i)] for i in picks}


def assert_arrays_match_definitions(sub):
    params, q = sub.params, sub.params.q

    def valency(v):
        return sum(w in sub.vertices for w in oracles.tree_neighbors(q, v))

    for k, (idx, val) in enumerate(zip(sub.levels, sub.valencies)):
        at_k = sorted(v for v in sub.vertices if len(v) == k)
        assert idx.tolist() == [oracles.lex_index(params.q, v) for v in at_k]
        assert val.tolist() == [valency(v) for v in at_k]
    assert sum(idx.size for idx in sub.levels) == len(sub)
    assert tr.is_complete(sub) == all(
        valency(v) == q + 1 or valency(v) <= 1 for v in sub.vertices
    )


@pytest.mark.parametrize("q", [2, 3])
def test_subtree_arrays_match_bfs_and_valency_in(q):
    params = tr.TreeParams(q)
    rng = np.random.default_rng(70 + q)
    connected = disconnected = 0
    for trial in range(120):
        size = int(rng.integers(1, 25))
        verts = grown_set(q, rng, size) if trial % 2 else scattered_set(q, rng, size)
        if oracles.component_count(q, verts) != 1:
            disconnected += 1
            with pytest.raises(SubtreeError):
                tr.FiniteSubtree(params, verts)
            continue
        connected += 1
        assert_arrays_match_definitions(tr.FiniteSubtree(params, verts))
    assert connected > 60 and disconnected > 20


@pytest.mark.parametrize("q", [2, 3])
def test_closed_neighborhood_matches_bfs_union_and_cap(q):
    params = tr.TreeParams(q, depth_cap=5)
    rng = np.random.default_rng(80 + q)
    raised = 0
    for trial in range(60):
        verts = grown_set(q, rng, int(rng.integers(1, 12)))
        sub = tr.FiniteSubtree(params, verts)
        for radius in range(4):
            want = oracles.neighborhood(q, verts, radius)
            if max(map(len, want)) > params.depth_cap:
                raised += 1
                with pytest.raises(DepthBudgetError):
                    tr.closed_neighborhood(sub, radius)
                continue
            near = tr.closed_neighborhood(sub, radius)
            assert near.vertices == frozenset(want)
            assert_arrays_match_definitions(near)
            if radius:
                assert tr.is_complete(near)
    assert raised > 10


@pytest.mark.parametrize("radius", [1.5, "1", None, 1.0])
def test_closed_neighborhood_refuses_a_non_integer_radius(radius):
    with pytest.raises(ConfigError):
        tr.closed_neighborhood(tr.FiniteSubtree(P2, [()]), radius)


def test_closed_neighborhood_takes_bool_and_numpy_radii():
    point = tr.FiniteSubtree(P2, [()])
    assert tr.closed_neighborhood(point, True) == tr.closed_neighborhood(point, 1)
    assert tr.closed_neighborhood(point, np.int64(2)) == tr.closed_neighborhood(point, 2)


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.integers(0, 3).flatmap(lambda a: st.tuples(st.just(a), st.integers(0, 3 - a))),
)
def test_closed_neighborhoods_compose(q, seed, size, radii):
    # a non-ball start makes the shells ragged, so the merge meets reached
    # indices that are already in the set at several depths at once
    a, b = radii
    params = tr.TreeParams(q, depth_cap=6)
    sub = tr.FiniteSubtree(params, grown_set(q, np.random.default_rng(seed), size, depth=3))
    twice = tr.closed_neighborhood(tr.closed_neighborhood(sub, a), b)
    once = tr.closed_neighborhood(sub, a + b)
    assert twice == once
    assert [idx.tolist() for idx in twice.levels] == [idx.tolist() for idx in once.levels]
    assert [val.tolist() for val in twice.valencies] == [val.tolist() for val in once.valencies]


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.integers(0, 3),
)
def test_radius_one_steps_grow_from_the_last_shell(q, seed, size, idle):
    # the chain S, N_1(S), N_1(N_1(S)), ... with one radius-0 step after
    # step `idle`: every link is the BFS ball, has the levels and
    # valencies of the same set built from scratch, and reads only the
    # vertices the link before added (all of S for the first), so a stale
    # valency or a growth from the whole ball shows
    params = tr.TreeParams(q, depth_cap=5)
    verts = grown_set(q, np.random.default_rng(seed), size, depth=3)
    start = tr.FiniteSubtree(params, verts)
    sub, shell, radius = start, set(verts), 0
    while True:
        read = set()

        def spy(params, depth, idx, exact=tr._child_indices):
            read.update((depth, i) for i in idx.tolist())
            return exact(params, depth, idx)

        want = oracles.neighborhood(q, verts, radius + 1)
        if max(map(len, want)) > params.depth_cap:
            with pytest.raises(DepthBudgetError):
                tr.closed_neighborhood(sub, 1)
            with pytest.raises(DepthBudgetError):
                tr.closed_neighborhood(start, radius + 1)
            break
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tr, "_child_indices", spy)
            sub = tr.closed_neighborhood(sub, 1)
        assert read == {(len(v), oracles.lex_index(q, v)) for v in shell}
        radius += 1
        shell = want - oracles.neighborhood(q, verts, radius - 1)
        scratch = tr.FiniteSubtree(params, want)
        for near in (sub, tr.closed_neighborhood(start, radius), scratch):
            assert near.vertices == frozenset(want)
            assert [idx.tolist() for idx in near.levels] == [idx.tolist() for idx in sub.levels]
            assert [val.tolist() for val in near.valencies] == [
                val.tolist() for val in sub.valencies
            ]
        if radius == idle:
            same = tr.closed_neighborhood(sub, 0)
            assert [idx.tolist() for idx in same.levels] == [idx.tolist() for idx in sub.levels]
            assert [val.tolist() for val in same.valencies] == [
                val.tolist() for val in sub.valencies
            ]
            sub = same
    assert radius == max(0, params.depth_cap - max(map(len, verts)))


def test_closed_neighborhood_grows_across_the_int64_boundary():
    # at q = 10 depth 18 is the last int64 level: from a path to depth 18,
    # the first shell reaches depth 19 and the second merges the children
    # of its depth-18 vertices with the object-dtype level the first one made
    params = tr.TreeParams(10, depth_cap=21)
    rng = np.random.default_rng(20)
    end = (11,) + tuple(int(x) for x in rng.integers(1, 11, size=17))
    path = [end[:k] for k in range(19)]
    sub = tr.FiniteSubtree(params, path)
    assert sub.levels[18].dtype == np.int64
    for radius in (1, 2):
        near = tr.closed_neighborhood(sub, radius)
        assert near.vertices == frozenset(oracles.neighborhood(10, path, radius))
        assert near.levels[18 + radius].dtype == object
        assert_arrays_match_definitions(near)


@pytest.mark.parametrize("q", [2, 3])
def test_orbit_cells_match_the_per_vertex_construction(q):
    from treerep import measure

    params = tr.TreeParams(q, depth_cap=6)
    rng = np.random.default_rng(90 + q)
    for _ in range(40):
        sub = tr.FiniteSubtree(params, grown_set(q, rng, int(rng.integers(1, 10)), depth=3))
        for radius in range(1, 4):
            near = tr.closed_neighborhood(sub, radius)
            assert measure.orbit_cells(near) == oracles.orbit_cells_per_vertex(near)
    edge = tr.FiniteSubtree(params, [(), (2,)])
    assert measure.orbit_cells(edge) == oracles.orbit_cells_per_vertex(edge)


def expected_error(params, verts):
    """The exception the per-address check raises first, or None."""
    verts = frozenset(tuple(v) for v in verts)
    try:
        for v in verts:
            tr.check_address(params, v)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


@pytest.mark.parametrize(
    "verts",
    [
        [(), (True,)],
        [(), (np.int64(2),), (np.int64(2), np.int64(1))],
        [(), (np.uint8(3),)],
        [(), (1.0,)],
        [(), (1,), (1, 1.5)],
        [(), ("1",)],
        [(), (1,), (1, "a")],
        [(), (None,)],
        [(), (4,)],
        [(), (1,), (1, 3)],
        [(), (0,)],
        [(), (1,), (1, -1)],
        [(1,) * k for k in range(10)],
        [(1,) * k for k in range(9)] + [(1,) * 8 + (3,)],
        [(), (1,), (1, (1, 2))],
        [(), (2**70,)],
    ],
    ids=[
        "bool", "int64", "uint8", "float", "deeper-float", "str", "deeper-str", "none",
        "first-letter-high", "later-letter-high", "zero", "negative", "too-deep",
        "too-deep-with-a-bad-letter", "nested-tuple", "huge-int",
    ],
)
def test_subtree_validation_raises_what_check_address_raises(verts):
    want = expected_error(P2, verts)
    if want is None:
        sub = tr.FiniteSubtree(P2, verts)
        assert sub.vertices == frozenset(tuple(v) for v in verts)
        assert_arrays_match_definitions(sub)
    else:
        with pytest.raises(want):
            tr.FiniteSubtree(P2, verts)


def test_subtree_of_no_vertices_is_rejected():
    with pytest.raises(SubtreeError):
        tr.FiniteSubtree(P2, [])
    with pytest.raises(SubtreeError):
        tr.FiniteSubtree(P2, iter(()))


def test_subtree_levels_past_int64_stay_exact():
    # (q+1) q^(k-1) passes 2^63 at depth 19 for q = 10: those levels hold
    # Python integers, and every answer still matches the definitions
    params = tr.TreeParams(10, depth_cap=21)
    path = [(10,) * k for k in range(20)] + [(11,) + (10,) * 19]
    with pytest.raises(SubtreeError):
        tr.FiniteSubtree(params, path)  # (11, 10, ...) hangs off nothing
    sub = tr.FiniteSubtree(params, path[:20])
    assert sub.levels[19].dtype == object
    assert_arrays_match_definitions(sub)
    near = tr.closed_neighborhood(sub, 1)
    assert near.vertices == frozenset(oracles.neighborhood(10, path[:20], 1))
    assert_arrays_match_definitions(near)
    with pytest.raises(DepthBudgetError):
        tr.closed_neighborhood(sub, 3)


def test_indices_of_narrow_numpy_letters_do_not_wrap():
    # (3, 2, 2, 2, 2, 2, 2, 2) has index 383, more than a uint8 holds
    path = [()] + [(3,) + (2,) * (k - 1) for k in range(1, 9)]
    narrow = tr.FiniteSubtree(P2, [tuple(np.uint8(x) for x in v) for v in path])
    wide = tr.FiniteSubtree(P2, path)
    assert narrow == wide
    assert [idx.tolist() for idx in narrow.levels] == [idx.tolist() for idx in wide.levels]
    assert narrow.levels[8].tolist() == [383]
