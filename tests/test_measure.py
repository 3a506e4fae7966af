from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from treerep import automorphism as au
from treerep import measure as me
from treerep import representation as rep
from treerep import tree as tr
from treerep.errors import (
    ConfigError,
    CylinderTooShallowError,
    DepthBudgetError,
    MalformedAddressError,
    PartitionError,
    PruningError,
    RefinementError,
    SubtreeError,
)
from treerep.suites import replay_pruning_pair

P2 = tr.TreeParams(2)
P3 = tr.TreeParams(3)


# -- cells and their measures -------------------------------------------------


def test_cell_measures_match_counting():
    for params, q in ((P2, 2), (P3, 3)):
        assert me.cell_measure(params, me.Cylinder(())) == 1
        for depth in range(1, 5):
            mu = oracles.uniform_cell_measure(q, depth)
            base = (1,) + (1,) * (depth - 1)
            assert me.cell_measure(params, me.Cylinder(base)) == mu
    assert me.cell_measure(P2, me.Cylinder((2,))) == Fraction(1, 3)
    assert me.cell_measure(P2, me.Cylinder((2, 1))) == Fraction(1, 6)
    assert me.cell_measure(P3, me.Cylinder((4, 2, 3))) == Fraction(1, 36)


def test_halftree_complement_measure():
    c = me.canonicalize(P2, me.Halftree((1,), ()))
    assert isinstance(c, me.Halftree)
    assert me.cell_measure(P2, c) == Fraction(2, 3)
    deeper = me.canonicalize(P2, me.Halftree((1, 2), (1,)))
    assert me.cell_measure(P2, deeper) == Fraction(5, 6)


def test_canonicalize_collapses_outward_halftrees():
    assert me.canonicalize(P2, me.Halftree((), (1,))) == me.Cylinder((1,))
    assert me.canonicalize(P2, me.Halftree((1,), (1, 2))) == me.Cylinder((1, 2))
    with pytest.raises(MalformedAddressError):
        me.canonicalize(P2, me.Halftree((1,), (2, 1)))  # not adjacent
    with pytest.raises(MalformedAddressError):
        me.canonicalize(P2, me.Halftree((1,), (1,)))


@pytest.mark.parametrize(
    "call, kind",
    [
        pytest.param(lambda: me.canonicalize(P2, [(1,)]), "list", id="canonicalize"),
        pytest.param(lambda: me.rn_cocycle(au.edge_inversion(P2), (1,)), "tuple", id="rn_cocycle"),
        pytest.param(lambda: me.cell_measure(P2, "x"), "str", id="cell_measure"),
        pytest.param(lambda: me.map_cell(au.edge_inversion(P2), None), "NoneType", id="map_cell"),
        pytest.param(lambda: me.cell_index_ranges(P2, (1,), 2), "tuple", id="cell_index_ranges"),
        pytest.param(lambda: me.assert_partition(P2, [(1,)]), "tuple", id="assert_partition"),
        pytest.param(
            lambda: rep.indicator_fn(P2, (1,), np.ones(2)), "tuple", id="indicator_fn"
        ),
    ],
)
def test_cell_callers_refuse_what_is_not_a_cell(call, kind):
    # every one of them canonicalizes its cell first
    with pytest.raises(MalformedAddressError, match=f"expected a Cylinder or Halftree, got {kind}$"):
        call()


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: rep.haar_average_fix("t", rep.constant_fn(P2, 1.0)),
            SubtreeError,
            "expected a FiniteSubtree, got str$",
            id="haar_average_fix",
        ),
        pytest.param(
            lambda: rep.fixed_space_report("t"),
            SubtreeError,
            "expected a FiniteSubtree, got str$",
            id="fixed_space_report",
        ),
        pytest.param(
            lambda: me.map_cell("g", me.Cylinder((1,))),
            ConfigError,
            "expected a TreeAutomorphism, got str$",
            id="map_cell",
        ),
        pytest.param(
            lambda: me.rn_cocycle(None, me.Cylinder((1,))),
            ConfigError,
            "expected a TreeAutomorphism, got NoneType$",
            id="rn_cocycle",
        ),
    ],
)
def test_stabilizer_and_measure_helpers_refuse_wrong_types(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_cell_json_shape():
    assert me.Cylinder(()).to_json_obj() == {"kind": "cylinder", "base": "-"}
    assert me.Cylinder((2, 1)).to_json_obj() == {"kind": "cylinder", "base": "2.1"}
    assert me.Halftree((1,), ()).to_json_obj() == {
        "kind": "halftree",
        "from": "1",
        "to": "-",
    }


# -- refinement ---------------------------------------------------------------


def test_refine_cylinder_exactly_partitions():
    pieces = oracles.refine_to_depth(P2, me.Cylinder((1,)), 3)
    assert len(pieces) == 4
    assert sorted(pieces, key=lambda c: c.base) == pieces
    assert sum(me.cell_measure(P2, c) for c in pieces) == Fraction(1, 3)
    bases = {c.base for c in pieces}
    assert bases == {(1, a, b) for a in (1, 2) for b in (1, 2)}


def test_refine_complement_exactly_partitions():
    cell = me.canonicalize(P2, me.Halftree((1, 1), (1,)))
    for depth in (2, 3, 4):
        pieces = oracles.refine_to_depth(P2, cell, depth)
        assert sum(me.cell_measure(P2, c) for c in pieces) == me.cell_measure(P2, cell)
        assert len({c.base for c in pieces}) == len(pieces)


def test_refine_errors():
    with pytest.raises(RefinementError):
        oracles.refine_to_depth(P2, me.Cylinder((1, 1)), 1)
    with pytest.raises(DepthBudgetError):
        oracles.refine_to_depth(P2, me.Cylinder((1,)), 9)


def test_whole_boundary_refines_to_full_level():
    for depth in (1, 2, 3):
        pieces = oracles.refine_to_depth(P3, me.Cylinder(()), depth)
        assert len(pieces) == oracles.cylinder_count(3, depth)
        assert sum(me.cell_measure(P3, c) for c in pieces) == 1


def test_cell_index_ranges_agree_with_refinement():
    for cell in (
        me.Cylinder((1,)),
        me.Cylinder((2, 1)),
        me.canonicalize(P2, me.Halftree((1,), ())),
        me.canonicalize(P2, me.Halftree((2, 1), (2,))),
    ):
        for depth in (3, 4):
            want = {
                oracles.lex_index(P2.q, c.base)
                for c in oracles.refine_to_depth(P2, cell, depth)
            }
            got = set()
            for lo, hi in me.cell_index_ranges(P2, cell, depth):
                got.update(range(lo, hi))
            assert got == want
    # past the cap the root cell fails like every other cell, not as one range
    capped = tr.TreeParams(2, depth_cap=4)
    assert me.cell_index_ranges(capped, me.Cylinder(()), 4) == [(0, 24)]
    for cell in (me.Cylinder(()), me.Cylinder((1,))):
        with pytest.raises(DepthBudgetError):
            me.cell_index_ranges(capped, cell, 5)
    with pytest.raises(DepthBudgetError):
        me.assert_partition(capped, [me.Cylinder(())], 7)


def test_assert_partition():
    me.assert_partition(P2, [me.Cylinder((1,)), me.canonicalize(P2, me.Halftree((1,), ()))], 2)
    with pytest.raises(PartitionError):
        me.assert_partition(P2, [me.Cylinder((1,)), me.Cylinder((1, 1))], 2)  # overlap
    with pytest.raises(PartitionError):
        me.assert_partition(P2, [me.Cylinder(()), me.Cylinder((1,))])  # overlap, no gap
    with pytest.raises(PartitionError):
        me.assert_partition(P2, [me.Cylinder((1,)), me.Cylinder((2,))], 2)  # gap


def test_assert_partition_rejects_every_bad_tiling():
    complement = me.canonicalize(P2, me.Halftree((2, 1), (2,)))  # all but cyl(2.1)
    bad = {
        # the duplicate covers exactly as much as the gap it leaves
        "duplicate cell": [me.Cylinder((1,)), me.Cylinder((1,)), me.Cylinder((3,))],
        "overlap, no gap": [me.Cylinder((1,)), me.Cylinder((1, 1)), me.Cylinder((2,)),
                            me.Cylinder((3,))],
        "gap": [me.Cylinder((1,)), me.Cylinder((3,))],
        "inside the complement's first range": [complement, me.Cylinder((2, 1)),
                                                me.Cylinder((1, 2))],
        "inside the complement's second range": [complement, me.Cylinder((2, 1)),
                                                 me.Cylinder((3,))],
        "complement, its cylinder and a piece of it": [complement, me.Cylinder((2, 1)),
                                                       me.Cylinder((2, 1, 1))],
    }
    for name, cells in bad.items():
        with pytest.raises(PartitionError):
            me.assert_partition(P2, cells)
        with pytest.raises(PartitionError):
            me.assert_partition(P2, cells[::-1], 4)


def test_assert_partition_of_a_complement_and_its_own_cylinder():
    # the complement of cyl(2.1) is two index ranges around that cylinder
    complement = me.canonicalize(P2, me.Halftree((2, 1), (2,)))
    for depth in (2, 3):
        labels = me.assert_partition(P2, [complement, me.Cylinder((2, 1))], depth)
        assert labels.tolist() == labels_by_refinement(
            P2, [complement, me.Cylinder((2, 1))], depth
        )
        (lo, hi), = me.cell_index_ranges(P2, me.Cylinder((2, 1)), depth)
        assert labels.tolist() == [0] * lo + [1] * (hi - lo) + [0] * (labels.size - hi)


def labels_by_refinement(params, cells, depth):
    labels = [None] * tr.n_addresses(params, depth)
    for j, cell in enumerate(cells):
        for piece in oracles.refine_to_depth(params, cell, depth):
            labels[oracles.lex_index(params.q, piece.base)] = j
    return labels


@pytest.mark.parametrize("params", [P2, P3], ids=["q2", "q3"])
def test_assert_partition_labels_match_refinement(params):
    balls = [tr.closed_neighborhood(tr.FiniteSubtree(params, [()]), r) for r in range(5)]
    edge = tr.closed_neighborhood(tr.FiniteSubtree(params, [(), (1,)]), 1)
    for tree in balls + [edge]:
        cells = me.orbit_cells(tree)
        k = max(me.min_expressible_depth(params, c) for c in cells)
        default = me.assert_partition(params, cells)
        assert default.dtype == np.int64
        assert default.tolist() == labels_by_refinement(params, cells, k)
        deeper = me.assert_partition(params, cells, k + 1)
        assert deeper.tolist() == labels_by_refinement(params, cells, k + 1)


# -- stabilizer orbits ---------------------------------------------------------


def test_orbit_cells_of_balls():
    for params, q in ((P2, 2), (P3, 3)):
        for radius in (1, 2, 3):
            ball = tr.closed_neighborhood(tr.FiniteSubtree(params, [()]), radius)
            cells = me.orbit_cells(ball)
            assert len(cells) == (q + 1) * q ** (radius - 1)
            assert sum(me.cell_measure(params, c) for c in cells) == 1
            assert len(set(cells)) == len(cells)


def test_orbit_cells_of_the_edge():
    cells = me.orbit_cells(tr.FiniteSubtree(P2, [(), (1,)]))
    measures = sorted(me.cell_measure(P2, c) for c in cells)
    assert measures == [Fraction(1, 3), Fraction(2, 3)]


def test_orbit_cells_singleton_is_whole_boundary():
    assert me.orbit_cells(tr.FiniteSubtree(P2, [()])) == [me.Cylinder(())]


def test_label_grid_past_int64_is_a_typed_error():
    # the edge's two cells are right, but their depth-20 grid has 1.1e20
    # cylinders: no int64 label or index range can count them
    params = tr.TreeParams(10, 21)
    edge = tr.FiniteSubtree(params, [(11,) + (10,) * 18, (11,) + (10,) * 19])
    cells = me.orbit_cells(edge)
    assert sorted(map(type, cells), key=str) == [me.Cylinder, me.Halftree]
    with pytest.raises(DepthBudgetError, match="outgrows int64"):
        me.orbit_partition(edge)
    with pytest.raises(DepthBudgetError, match="outgrows int64"):
        me.assert_partition(params, cells)


def labelled_orbit_cells(tree):
    """The per-vertex orbit cells, the depth that expresses them, and
    their assert_partition labels there."""
    cells = oracles.orbit_cells_per_vertex(tree)
    depth = max(me.min_expressible_depth(tree.params, c) for c in cells)
    return cells, depth, me.assert_partition(tree.params, cells, depth)


def assert_orbits_match_the_oracle(tree):
    """orbit_partition and orbit_cells, read off the levels, against the
    per-vertex construction; returns orbit_partition's result."""
    found = me.orbit_partition(tree)
    count, depth, labels = found
    want_cells, want_depth, want_labels = labelled_orbit_cells(tree)
    assert me.orbit_cells(tree) == want_cells
    assert (count, depth) == (len(want_cells), want_depth)
    assert labels.dtype == want_labels.dtype and np.array_equal(labels, want_labels)
    return found


@pytest.mark.parametrize("params", [P2, P3], ids=["q2", "q3"])
def test_orbit_partition_is_the_labelled_orbit_cells_once_per_subtree(params):
    root = tr.FiniteSubtree(params, [()])
    subtrees = [tr.closed_neighborhood(root, r) for r in range(5)]
    subtrees += [tr.FiniteSubtree(params, [(), (1,)]), *replay_pruning_pair(params)]
    for tree in subtrees:
        first = assert_orbits_match_the_oracle(tree)
        labels = first[2]
        assert me.orbit_partition(tree) is first
        with pytest.raises(ValueError):
            labels[0] = 1
        # the memo belongs to the instance: an equal subtree computes its own
        twin = tr.FiniteSubtree(params, tree.vertices)
        assert twin == tree and me.orbit_partition(twin) is not first


@pytest.mark.parametrize(
    "radius, idx, message",
    [
        (1, [1, 0, 2], "cell 1 overlaps cell 0 on index range [0, 1)"),
        (1, [0, 0, 2], "cell 1 overlaps cell 0 on index range [0, 1)"),
        (1, [0, 1], "cells leave a gap in the 3 depth-1 cylinders"),
        (1, [1, 2], "cells leave a gap in the 3 depth-1 cylinders"),
        (2, [0, 1, 3, 2, 4, 5], "cells leave a gap in the 6 depth-2 cylinders"),
        (2, [0, 1, 2, 3, 4, 4], "cell 5 overlaps cell 4 on index range [4, 5)"),
        (2, [0, 1, 2, 3, 4, 5, 6], "cells leave a gap in the 6 depth-2 cylinders"),
    ],
    ids=["swap", "repeat", "short", "late start", "skip", "repeat last", "past the end"],
)
def test_one_level_scans_that_do_not_tile_keep_their_messages(monkeypatch, radius, idx, message):
    # a ball's scan, forged: every cell is still one cylinder at the grid's
    # depth, so the labels come from the indices without a range table
    ball = tr.closed_neighborhood(tr.FiniteSubtree(P2, [()]), radius)
    idx = np.array(idx, dtype=np.int64)
    forged = (radius, np.full(idx.size, radius, dtype=np.int64), idx, False)
    monkeypatch.setattr(me, "_scan_orbit_anchors", lambda tree: forged)
    with pytest.raises(PartitionError) as err:
        me.orbit_partition(ball)
    assert str(err.value) == message


@pytest.mark.parametrize("q", [2, 3, 5])
def test_orbits_below_a_leaf_top_vertex_match_the_oracle(q):
    # the top vertex is a leaf that is not the basepoint, so its orbit is
    # the complement of its child's cylinder: two index ranges
    params = tr.TreeParams(q, depth_cap=6)
    hanging = tr.FiniteSubtree(
        params, [(3,), (3, 1)] + [(3, 1, letter) for letter in range(1, q + 1)]
    )
    twig = tr.FiniteSubtree(params, [(2, 1), (2, 1, 1)])
    for tree in [hanging] + [tr.closed_neighborhood(twig, r) for r in (1, 2)]:
        _, depth, labels = assert_orbits_match_the_oracle(tree)
        complement = me.orbit_cells(tree)[0]
        assert isinstance(complement, me.Halftree)
        # label 0 on both sides of one run of cylinder labels
        inside = np.flatnonzero(labels)
        assert inside.size == inside[-1] - inside[0] + 1
        assert me.cell_index_ranges(params, complement, depth) == [
            (0, int(inside[0])), (int(inside[-1]) + 1, labels.size)
        ]
        assert sum(me.cell_measure(params, c) for c in me.orbit_cells(tree)) == 1


@st.composite
def connected_sets(draw, max_depth=3):
    """(q, a connected vertex set within depth max_depth), grown from a
    vertex below the basepoint by adding neighbours."""
    q = draw(st.sampled_from([2, 3, 5]))
    tail = draw(st.lists(st.integers(1, q), max_size=max_depth - 1))
    verts = {(draw(st.integers(1, q + 1)), *tail)}
    for _ in range(draw(st.integers(0, 6))):
        v = draw(st.sampled_from(sorted(verts)))
        near = [w for w in oracles.tree_neighbors(q, v) if len(w) <= max_depth]
        verts.add(draw(st.sampled_from(near)))
    return q, verts


@given(connected_sets(), st.integers(1, 2))
@settings(max_examples=40)
def test_orbits_of_closed_neighbourhoods_match_the_oracle(case, radius):
    q, verts = case
    params = tr.TreeParams(q, depth_cap=5)
    near = tr.closed_neighborhood(tr.FiniteSubtree(params, verts), radius)
    assert_orbits_match_the_oracle(near)
    assert sum(me.cell_measure(params, c) for c in me.orbit_cells(near)) == 1


def test_orbit_merge_full_contract():
    ball = tr.closed_neighborhood(tr.FiniteSubtree(P2, [(), (1,)]), 1)
    small = tr.FiniteSubtree(P2, ball.vertices - {(1, 1), (1, 2)})
    merge = me.orbit_merge_under_pruning(ball, small)
    assert set(merge) == set(me.orbit_cells(ball))
    assert set(merge.values()) == set(me.orbit_cells(small))
    counts = {}
    for v in merge.values():
        counts[v] = counts.get(v, 0) + 1
    merged_target = [c for c, n in counts.items() if n > 1]
    assert len(merged_target) == 1
    sources = [c for c, v in merge.items() if v == merged_target[0]]
    assert len(sources) == P2.q
    assert me.cell_measure(P2, merged_target[0]) == sum(
        me.cell_measure(P2, c) for c in sources
    )
    for c, v in merge.items():
        if v != merged_target[0]:
            assert me.cell_measure(P2, c) == me.cell_measure(P2, v)


def test_orbit_merge_rejects_bad_prunings():
    ball = tr.closed_neighborhood(tr.FiniteSubtree(P2, [(), (1,)]), 1)
    with pytest.raises(PruningError):
        me.orbit_merge_under_pruning(ball, ball)  # nothing removed
    with pytest.raises(PruningError):
        # removes one leaf only, not all q around a vertex
        me.orbit_merge_under_pruning(ball, tr.FiniteSubtree(P2, ball.vertices - {(1, 1)}))
    with pytest.raises(PruningError):
        # removed leaves sit around two different interior vertices
        me.orbit_merge_under_pruning(ball, tr.FiniteSubtree(P2, ball.vertices - {(1, 1), (2,)}))
    big = tr.closed_neighborhood(tr.FiniteSubtree(P2, [()]), 2)
    with pytest.raises(PruningError):
        # pruned tree not complete: removing a single grandchild pair keeps
        # (1,) full but leaves (2,),(3,) full and their children... removing
        # children of (1,) only makes (1,) a leaf while the rest is intact
        me.orbit_merge_under_pruning(
            big, tr.FiniteSubtree(P2, big.vertices - {(1, 1)})
        )


# -- boundary action and the measure cocycle ----------------------------------


def test_map_cell_basics():
    h = au.edge_inversion(P2)
    assert me.map_cell(h, me.Cylinder(())) == me.Cylinder(())
    assert me.map_cell(h, me.Cylinder((2,))) == me.Cylinder((1, 1))
    assert me.map_cell(h, me.Cylinder((1, 1))) == me.Cylinder((2,))
    # image of cyl(1) is everything through h(1)=eps away from h(eps)=(1,)
    img = me.map_cell(h, me.Cylinder((1,)))
    assert img == me.canonicalize(P2, me.Halftree((1,), ()))


def test_map_cell_is_functorial():
    rng = np.random.default_rng(13)
    cells = [
        me.Cylinder((1, 2, 1, 1)),
        me.Cylinder((2, 1, 2, 2)),
        me.canonicalize(P2, me.Halftree((3, 1, 1, 1), (3, 1, 1))),
    ]
    for _ in range(20):
        g = au.random_word(P2, rng, 2)
        h = au.random_word(P2, rng, 2)
        comp = au.compose(g, h)
        for c in cells:
            assert me.map_cell(comp, c) == me.map_cell(g, me.map_cell(h, c))


def test_map_cell_of_inverse_inverts():
    rng = np.random.default_rng(14)
    for _ in range(20):
        g = au.random_word(P2, rng, 2)
        for c in (me.Cylinder((1, 1, 1, 2)), me.Cylinder((3, 2, 1, 1))):
            assert me.map_cell(g.inverse(), me.map_cell(g, c)) == c


def test_rn_cocycle_identity_is_one():
    e = au.identity(P2)
    for cell in (me.Cylinder((1,)), me.Cylinder((2, 1)), me.canonicalize(P2, me.Halftree((1,), ()))):
        assert me.rn_cocycle(e, cell) == 1


def test_rn_cocycle_examples():
    h = au.edge_inversion(P2)  # h . basepoint = its first neighbour
    assert me.rn_cocycle(h, me.Cylinder((1,))) == Fraction(2)
    assert me.rn_cocycle(h, me.Cylinder((2,))) == Fraction(1, 2)
    assert me.rn_cocycle(h, me.Cylinder((1, 2))) == Fraction(2)
    # constant across the complement of cyl(1): both pieces see B = -1
    comp = me.canonicalize(P2, me.Halftree((1,), ()))
    assert me.rn_cocycle(h, comp) == Fraction(1, 2)
    h3 = au.edge_inversion(P3)
    assert me.rn_cocycle(h3, me.Cylinder((1,))) == Fraction(3)


def test_rn_cocycle_shallow_cells_rejected():
    h = au.edge_inversion(P2)
    with pytest.raises(CylinderTooShallowError):
        me.rn_cocycle(h, me.Cylinder(()))
    # complement of cyl(1.1) straddles both sides of the moved edge
    mixed = me.canonicalize(P2, me.Halftree((1, 1), (1,)))
    with pytest.raises(CylinderTooShallowError):
        me.rn_cocycle(h, mixed)


def carrying_basepoint_to(params, y):
    """An automorphism with g(basepoint) = y: |y| step translations carry
    the basepoint to 1^|y|, then a portrait turns 1^|y| into y."""
    g = au.identity(params)
    for _ in y:
        g = au.compose(au.step_translation(params), g)
    if not y:
        return g

    def swap_with_1(n, letter):
        perm = list(range(1, n + 1))
        perm[0], perm[letter - 1] = letter, 1
        return tuple(perm)

    q = params.q
    portrait = au.Portrait(
        swap_with_1(q + 1, y[0]),
        {(1,) * j: swap_with_1(q, y[j]) for j in range(1, len(y))},
    )
    return au.compose(au.from_portrait(params, portrait), g)


def test_rn_cocycle_on_complements_matches_enumeration():
    # every complement of a depth-1..3 cylinder under automorphisms moving
    # the basepoint to every vertex of depth 0..3, against the oracle that
    # evaluates each maximal cylinder of the complement on its own
    for q in (2, 3, 4):
        params = tr.TreeParams(q)
        verts = oracles.ball_vertices(q, 3)
        for y in verts:
            g = carrying_basepoint_to(params, y)
            assert g.x0_image == y
            for t in verts[1:]:
                cell = me.Halftree(t, t[:-1])
                want = oracles.complement_busemann_oracle(q, t, y)
                if want is None:
                    with pytest.raises(CylinderTooShallowError):
                        me.rn_cocycle(g, cell)
                else:
                    assert me.rn_cocycle(g, cell) == Fraction(q) ** want


def test_rn_cocycle_matches_pushforward_enumeration():
    # mu(g^{-1}.c) = rn(g, c) * mu(c), both sides exact rationals
    rng = np.random.default_rng(15)
    for params, q in ((P2, 2), (P3, 3)):
        for _ in range(15):
            g = au.random_word(params, rng, 2)
            base_depth = g.displacement + 1
            letters = tuple(
                int(rng.integers(1, (q + 2) if k == 0 else (q + 1)))
                for k in range(base_depth)
            )
            cell = me.Cylinder(letters)
            rn = me.rn_cocycle(g, cell)
            enum_depth = base_depth + g.inverse().word_cost()
            direct = oracles.pushforward_measure(g, letters, enum_depth)
            assert direct == rn * me.cell_measure(params, cell), (g, letters)


def test_rn_cocycle_composition_law():
    rng = np.random.default_rng(16)
    for _ in range(25):
        g = au.random_word(P2, rng, 2)
        h = au.random_word(P2, rng, 2)
        comp = au.compose(g, h)
        base = tuple(
            int(np.random.default_rng(trial).integers(1, 3))
            for trial in range(comp.displacement + g.displacement + 2)
        )
        cell = me.Cylinder((1,) + base[1:])
        lhs = me.rn_cocycle(comp, cell)
        rhs = me.rn_cocycle(g, cell) * me.rn_cocycle(h, me.map_cell(g.inverse(), cell))
        assert lhs == rhs


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_rn_cocycle_values_are_powers_of_q(seed):
    rng = np.random.default_rng(seed)
    g = au.random_word(P2, rng, 2)
    cell = me.Cylinder(
        tuple(int(rng.integers(1, 3)) for _ in range(g.displacement + 1)) or (1,)
    )
    rn = me.rn_cocycle(g, cell)
    # exact power of q: num or den is a power of 2, the other is 1
    num, den = rn.numerator, rn.denominator
    assert num == 1 or den == 1
    val = max(num, den)
    while val % 2 == 0:
        val //= 2
    assert val == 1
