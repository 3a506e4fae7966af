import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from treerep import automorphism as au
from treerep import tree as tr
from treerep.errors import ConfigError, DepthBudgetError, MalformedAddressError

P2 = tr.TreeParams(2)
P3 = tr.TreeParams(3)


def line_vertex(k):
    """The standard line: x_k = 1^k for k >= 0, x_{-k} = 2 1^(k-1)."""
    if k >= 0:
        return (1,) * k
    return (2,) + (1,) * (-k - 1)


# -- portraits ----------------------------------------------------------------


def test_portrait_validation():
    au.Portrait((2, 1, 3))
    with pytest.raises(ConfigError):
        au.Portrait((1, 1, 2))  # not a permutation
    with pytest.raises(ConfigError):
        au.Portrait((2, 1, 3), {(): (1, 2)})  # basepoint slot is root_perm's
    with pytest.raises(ConfigError):
        au.Portrait((2, 1, 3), {(1,): (2, 2)})
    with pytest.raises(MalformedAddressError):
        au.Portrait((2, 1, 3), {(1, 3): (2, 1)})  # letter 3 below depth 1 at q=2


@pytest.mark.parametrize(
    "root,nodes",
    [((1, 2, 3.5), {}), ((2, 1, 3), {(1,): (2.7, 1)}), ((1.0, 2, 3), {}), (("1", 2, 3), {})],
)
def test_portrait_refuses_non_integer_entries(root, nodes):
    # an entry is a letter, never truncated to one
    with pytest.raises(ConfigError, match="non-integer entry"):
        au.Portrait(root, nodes)


def test_portrait_takes_numpy_integer_entries():
    p = au.Portrait(tuple(np.array([2, 1, 3])), {(1,): (np.int16(2), np.int64(1))})
    assert p == au.Portrait((2, 1, 3), {(1,): (2, 1)})
    assert all(type(x) is int for x in p.root_perm + p.node_perms[(1,)])


def test_portrait_identity_fixes_everything():
    g = au.from_portrait(P2, au.Portrait((1, 2, 3)))
    for v in oracles.ball_vertices(2, 3):
        assert g.apply_vertex(v) == v


def test_portrait_acts_letterwise():
    g = au.from_portrait(P2, au.Portrait((2, 1, 3), {(2,): (2, 1)}))
    assert g.apply_vertex(()) == ()
    assert g.apply_vertex((1,)) == (2,)
    assert g.apply_vertex((3, 1)) == (3, 1)
    # node_perms are keyed by the original prefix on the way down
    assert g.apply_vertex((2, 1)) == (1, 2)
    assert g.inverse().apply_vertex((1, 2)) == (2, 1)


def test_portrait_preserves_levels_exactly():
    # basepoint-fixing automorphisms permute each level; exact bijectivity
    # is equivalent to preserving the uniform measure on cylinders
    rng = np.random.default_rng(5)
    for params, q in ((P2, 2), (P3, 3)):
        g = au.from_portrait(params, au.random_portrait(params, 3, rng))
        for m in range(4):
            level = oracles.deep_extensions(q, (), m)
            image = {g.apply_vertex(v) for v in level}
            assert image == set(level)


# -- the distinguished generators ---------------------------------------------


def test_edge_inversion_examples():
    h = au.edge_inversion(P2)
    assert h.apply_vertex(()) == (1,)
    assert h.apply_vertex((1,)) == ()
    assert h.apply_vertex((2,)) == (1, 1)
    assert h.apply_vertex((1, 1)) == (2,)
    assert h.apply_vertex((3,)) == (1, 2)
    assert h.apply_vertex((1, 2, 1)) == (3, 1)
    assert h.displacement == 1


def test_edge_inversion_is_an_involution():
    h = au.edge_inversion(P3)
    for v in oracles.ball_vertices(3, 4):
        assert h.apply_vertex(h.apply_vertex(v)) == v


def test_edge_inversion_swaps_the_two_half_trees():
    h = au.edge_inversion(P2)
    for v in oracles.ball_vertices(2, 4):
        img = h.apply_vertex(v)
        if v and v[0] == 1:
            assert not img or img[0] != 1
        else:
            assert img and img[0] == 1


def test_step_translation_shifts_the_standard_line():
    t = au.step_translation(P2)
    for k in range(-4, 4):
        assert t.apply_vertex(line_vertex(k)) == line_vertex(k + 1)
    back = t.inverse()
    for k in range(-3, 5):
        assert back.apply_vertex(line_vertex(k)) == line_vertex(k - 1)


@pytest.mark.parametrize("q,cap", [(2, 6), (3, 5), (5, 4)])
def test_step_translation_matches_its_closed_form(q, cap):
    # the word (branch swap, edge inversion) against the swap-then-invert
    # formula, vertex by vertex and on letter matrices, in both directions
    params = tr.TreeParams(q, cap)
    t = au.step_translation(params)
    assert [gen.kind for gen, _ in t.word] == ["portrait", "edge_inversion"]
    letters = tr.letter_matrix(params, cap)
    mixed = np.random.default_rng(q).integers(0, cap + 1, letters.shape[0])
    mixed[:2] = (0, cap)
    for g, inverted in ((t, False), (t.inverse(), True)):
        for v in oracles.ball_vertices(q, 4):
            assert g.apply_vertex(v) == oracles.step_translation_image(v, inverted)
        for lengths in (np.full(letters.shape[0], cap), mixed):
            out, out_lengths = g.apply_batch(letters, lengths)
            for row, n in enumerate(lengths):
                v = tuple(int(x) for x in letters[row, :n])
                img = tuple(int(x) for x in out[row, : out_lengths[row]])
                assert img == oracles.step_translation_image(v, inverted)


def test_constant_words_are_built_once():
    for params in (P2, P3):
        assert au.step_translation(params) is au.step_translation(params)
        for j in range(1, params.q + 2):
            assert au.basepoint_shift(params, (j,)) is au.basepoint_shift(params, (j,))
    assert au.step_translation(P2).to_json_obj() == [
        {"kind": "portrait", "root": [2, 1, 3], "nodes": {}},
        {"kind": "edge_inversion"},
    ]
    # shared words share their generators' level tables, so those are read-only
    (swap, _), _ = au.step_translation(P2).word
    for _, *arrays in swap._levels:
        assert not any(arr.flags.writeable for arr in arrays)


def test_basepoint_shift_rejects_malformed_heads():
    for head in ((0,), (-1,), (4,), (1.5,)):
        with pytest.raises(MalformedAddressError):
            au.basepoint_shift(P2, head)


def test_random_word_draws_and_spells_its_factors():
    # draws per factor: kind, inverted flag, then a portrait's own draws; a
    # step translation factor is spelled (swap, inversion) or its inverse
    swap = au.Portrait((2, 1, 3, 4))
    for seed in range(30):
        rng = np.random.default_rng(seed)
        expected = []
        for _ in range(int(rng.integers(1, 4))):
            kind, inverted = int(rng.integers(0, 3)), bool(rng.integers(0, 2))
            if kind == 0:
                expected.append((au.random_portrait(P3, 2, rng), inverted))
            elif kind == 1:
                expected.append(("edge_inversion", inverted))
            else:
                t = [(swap, inverted), ("edge_inversion", inverted)]
                expected += t[::-1] if inverted else t
        g = au.random_word(P3, np.random.default_rng(seed), 3)
        assert [(getattr(gen, "portrait", gen.kind), flag) for gen, flag in g.word] == expected


@pytest.mark.parametrize("bad", [0, -1, 1.5, 2.0, "2", None])
def test_random_words_and_portraits_refuse_a_bad_size(bad):
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match="max_factors must be an integer >= 1"):
        au.random_word(P2, rng, bad)
    with pytest.raises(ConfigError, match="portrait depth must be an integer >= 1"):
        au.random_portrait(P2, bad, rng)


def test_random_words_take_numpy_integer_sizes():
    for size in (np.int64(2), np.int8(2)):
        a = au.random_word(P3, np.random.default_rng(7), size)
        b = au.random_word(P3, np.random.default_rng(7), 2)
        assert a.to_json_obj() == b.to_json_obj()
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        assert au.random_portrait(P3, size, rng_a) == au.random_portrait(P3, 2, rng_b)


def test_line_vertex_layout():
    assert line_vertex(0) == ()
    assert line_vertex(2) == (1, 1)
    assert line_vertex(-1) == (2,)
    assert line_vertex(-3) == (2, 1, 1)


def test_translation_powers_displace_linearly():
    t = au.step_translation(P2)
    g = t
    for n in range(2, 9):
        g = au.compose(t, g)
        assert g.x0_image == line_vertex(n)
    with pytest.raises(DepthBudgetError):
        au.compose(t, g)  # the basepoint would land past the cap


# -- group structure ----------------------------------------------------------


def test_compose_applies_right_factor_first():
    h = au.edge_inversion(P2)
    sigma = au.from_portrait(P2, au.Portrait((2, 1, 3)))
    t = au.compose(h, sigma)  # the step translation, by definition
    ref = au.step_translation(P2)
    for v in oracles.ball_vertices(2, 4):
        assert t.apply_vertex(v) == ref.apply_vertex(v)


def test_inverse_cancels_word():
    rng = np.random.default_rng(9)
    for params, q in ((P2, 2), (P3, 3)):
        for _ in range(15):
            g = au.random_word(params, rng, 3)
            gi = g.inverse()
            for v in oracles.ball_vertices(q, 3):
                assert gi.apply_vertex(g.apply_vertex(v)) == v
            assert gi.inverse() is g  # cached round trip


def test_identity_word():
    e = au.identity(P2)
    assert e.x0_image == ()
    assert e.displacement == 0
    assert e.apply_vertex((2, 1)) == (2, 1)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_batch_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    params = P2 if seed % 2 else P3
    q = params.q
    g = au.random_word(params, rng, 3)
    for depth in range(0, 4):
        letters = tr.letter_matrix(params, depth)
        lengths = np.full(letters.shape[0], depth)
        out_letters, out_lengths = g.apply_batch(letters, lengths)
        for i in range(letters.shape[0]):
            v = tr.address_from_index(params, depth, i)
            img = g.apply_vertex(v)
            assert tuple(int(x) for x in out_letters[i, : out_lengths[i]]) == img


@pytest.mark.parametrize("q,cap", [(2, 6), (3, 5), (5, 4)])
def test_portrait_batch_matches_scalar_at_every_level(q, cap):
    # rows of length 0, rows ending above the deepest node and full rows,
    # against dense, sparse and single-deep-node portraits of every depth
    rng = np.random.default_rng(100 + q)
    params = tr.TreeParams(q, cap)
    letters = tr.letter_matrix(params, cap)
    portraits = []
    for depth in range(1, cap + 1):
        dense = au.random_portrait(params, depth, rng)
        sparse = {a: p for a, p in dense.node_perms.items() if rng.random() < 0.3}
        portraits += [(dense, depth), (au.Portrait(dense.root_perm, sparse), depth)]
    deep = tr.address_from_index(params, cap - 1, int(rng.integers(tr.n_addresses(params, cap - 1))))
    lone = au.Portrait(tuple(range(1, q + 2)), {deep: tuple(range(q, 0, -1))})
    portraits.append((lone, cap))
    for portrait, depth in portraits:
        gen = au.PortraitGen(portrait)
        lengths = rng.integers(0, cap + 1, letters.shape[0])
        lengths[:3] = (0, depth - 1, cap)
        for inverted in (False, True):
            out, out_lengths = gen.batch(letters, lengths, inverted)
            assert (out_lengths == lengths).all()
            for row, n in enumerate(lengths):
                v = tuple(int(x) for x in letters[row, :n])
                assert tuple(int(x) for x in out[row, :n]) == gen.apply(v, inverted)
                assert (out[row, n:] == letters[row, n:]).all()  # past the end: untouched


@pytest.mark.parametrize("q,cap", [(2, 6), (3, 5), (5, 4)])
def test_portrait_batch_shortcuts_match_scalar(monkeypatch, q, cap):
    # rows that all reach past a level take it whole, and a level holding
    # every vertex of its depth is a direct gather with no search: full
    # rows, rows padded past their length as apply_batch pads them, and
    # rows of mixed nonzero length, padded or not, against dense, sparse
    # and mixed-density portraits
    rng = np.random.default_rng(200 + q)
    params = tr.TreeParams(q, cap)
    full = tr.letter_matrix(params, cap)
    n = full.shape[0]
    padded = np.concatenate([full, np.zeros((n, 2), dtype=full.dtype)], axis=1)
    short = rng.integers(cap // 2, cap + 1, n)
    mixed = np.where(np.arange(cap + 2) < short[:, None], padded, 0).astype(full.dtype)
    rows = [(full, np.full(n, cap)), (padded, np.full(n, cap)), (mixed, short), (full, short)]
    dense = au.random_portrait(params, cap, rng)
    nodes = dense.node_perms
    portraits = [
        dense,
        au.Portrait(dense.root_perm, {a: p for a, p in nodes.items() if rng.random() < 0.3}),
        au.Portrait(
            dense.root_perm, {a: p for a, p in nodes.items() if len(a) % 2 or rng.random() < 0.5}
        ),
    ]
    exact, searches = np.searchsorted, []
    monkeypatch.setattr(np, "searchsorted", lambda *a: searches.append(a) or exact(*a))
    for portrait in portraits:
        gen = au.PortraitGen(portrait)
        sparse = [j for j, keys, _, _ in gen._levels if keys.size < tr.n_addresses(params, j)]
        for letters, lengths in rows:
            for inverted in (False, True):
                searches.clear()
                out, _ = gen.batch(letters, lengths, inverted)
                assert len(searches) == len(sparse)
                for row, k in enumerate(lengths):
                    v = tuple(int(x) for x in letters[row, :k])
                    assert tuple(int(x) for x in out[row, :k]) == gen.apply(v, inverted)
                    assert (out[row, k:] == letters[row, k:]).all()


@pytest.mark.parametrize("q,cap", [(2, 8), (3, 6), (5, 4)])
def test_edge_inversion_batch_on_padded_rows(q, cap):
    # rows of length 0, 1 and cap, shuffled, in a buffer one column wider
    # than the cap as apply_batch pads it: every image is the scalar one,
    # and the buffer past its new length stays zero
    params = tr.TreeParams(q, cap)
    letters, lengths = [], []
    for k in (0, 1, cap):
        block = tr.letter_matrix(params, k)
        letters.append(np.pad(block, ((0, 0), (0, cap + 1 - k))))
        lengths.append(np.full(block.shape[0], k))
    order = np.random.default_rng(q).permutation(sum(len(b) for b in lengths))
    letters, lengths = np.concatenate(letters)[order], np.concatenate(lengths)[order]
    gen = au.EdgeInversionGen()
    for inverted in (False, True):
        out, new = gen.batch(letters, lengths, inverted)
        for row, k in enumerate(lengths):
            img = gen.apply(tuple(int(x) for x in letters[row, :k]), inverted)
            assert tuple(int(x) for x in out[row, : new[row]]) == img
            assert not out[row, new[row] :].any()


def test_edge_inversion_batch_rejects_a_narrow_buffer():
    # a row whose first letter is not 1 gets one letter longer; a buffer
    # exactly as wide as the rows has room only if every row starts with 1
    letters = tr.letter_matrix(P2, 3)
    lengths = np.full(letters.shape[0], 3)
    with pytest.raises(MalformedAddressError, match="batch buffer too narrow"):
        au.EdgeInversionGen().batch(letters, lengths, False)
    ones = letters[letters[:, 0] == 1]
    _, new = au.EdgeInversionGen().batch(ones, lengths[: ones.shape[0]], False)
    assert (new == 2).all()


def test_sparse_deep_portrait_batch():
    # one node at depth 11 at q=5: the tables hold it and the basepoint, not
    # a row per depth-11 vertex
    params = tr.TreeParams(5, 12)
    node = (6,) + (5,) * 10
    gen = au.PortraitGen(au.Portrait((1, 2, 3, 4, 5, 6), {node: (2, 1, 3, 4, 5)}))
    letters = np.array([node + (1,), node + (3,), (6,) + (5,) * 9 + (4, 1)], dtype=np.int16)
    lengths = np.array([12, 12, 12])
    for inverted in (False, True):
        out, _ = gen.batch(letters, lengths, inverted)
        assert [tuple(int(x) for x in row) for row in out] == [
            gen.apply(tuple(int(x) for x in row), inverted) for row in letters
        ]
    assert tuple(out[0]) == node + (2,) and tuple(out[1]) == node + (3,)
    assert tuple(out[2]) == tuple(letters[2])
    assert [(j, keys.size) for j, keys, _, _ in gen._levels] == [(0, 1), (11, 1)]


def assert_batch_is_scalar(gen, letters):
    lengths = np.full(letters.shape[0], letters.shape[1])
    for inverted in (False, True):
        out, _ = gen.batch(letters, lengths, inverted)
        assert [tuple(int(x) for x in row) for row in out] == [
            gen.apply(tuple(int(x) for x in row), inverted) for row in letters
        ]


def test_portrait_batch_keys_past_int64_do_not_wrap():
    # at q = 10 the depth-20 prefixes with indices 5 and 2^64 + 5 differ,
    # but agree modulo 2^64: only the first may take the node's permutation
    params = tr.TreeParams(10, depth_cap=25)
    node = tr.address_from_index(params, 20, 5)
    far = tr.address_from_index(params, 20, 2**64 + 5)
    gen = au.PortraitGen(au.Portrait(tuple(range(1, 12)), {node: tuple(range(10, 0, -1))}))
    letters = np.array([node + (3,), far + (3,)], dtype=np.int16)
    assert_batch_is_scalar(gen, letters)
    assert gen.apply(far + (3,), False) == far + (3,)
    assert gen.apply(node + (3,), False) == node + (8,)


def test_portrait_node_past_int64_builds_and_acts():
    # (11, 10, ..., 10) at depth 19 has an index above 2^63 - 1
    params = tr.TreeParams(10, depth_cap=25)
    node = (11,) + (10,) * 18
    assert oracles.lex_index(params.q, node) > 2**63
    g = au.from_portrait(
        params, au.Portrait(tuple(range(1, 12)), {node: (2, 1) + tuple(range(3, 11))})
    )
    (gen, _), = g.word
    letters = np.array([node + (1,), node + (5,), (11,) + (10,) * 17 + (9, 1)], dtype=np.int16)
    assert_batch_is_scalar(gen, letters)
    out, _ = g.apply_batch(letters, np.full(3, 20))
    assert tuple(out[0]) == node + (2,)


def all_depth2_portraits_q2():
    """The 3! * (2!)^3 = 48 depth-2 portraits at q = 2, each depth-1
    vertex carrying a permutation, as random_portrait draws them."""
    out = []
    for root in itertools.permutations((1, 2, 3)):
        for below in itertools.product(itertools.permutations((1, 2)), repeat=3):
            out.append(au.Portrait(root, {(a,): p for a, p in zip((1, 2, 3), below)}))
    return out


def test_every_q2_generator_batch_matches_scalar_and_round_trips():
    # the 48 depth-2 portraits and the edge inversion on every depth-3
    # row, the matrix column-major as tr.letter_matrix lays it out and
    # row-major: each image is the scalar one, the images come back
    # column-major, and the inverse word returns every row exactly
    portraits = all_depth2_portraits_q2()
    assert len({repr(p) for p in portraits}) == 48
    words = [au.from_portrait(P2, p) for p in portraits] + [au.edge_inversion(P2)]
    full = tr.letter_matrix(P2, 3)
    assert full.flags.f_contiguous
    rows = [tuple(int(x) for x in row) for row in full]
    lengths = np.full(len(rows), 3)
    for letters in (full, np.ascontiguousarray(full)):
        for g in words:
            out, out_lengths = g.apply_batch(letters, lengths)
            assert out.flags.f_contiguous
            assert [tuple(int(x) for x in row[:k]) for row, k in zip(out, out_lengths)] == [
                g.apply_vertex(v) for v in rows
            ]
            back, back_lengths = g.inverse().apply_batch(out, out_lengths)
            assert (back_lengths == 3).all()
            assert np.array_equal(back[:, :3], full) and not back[:, 3:].any()


def mixed_portrait(params, depth, rng):
    """A random portrait down to `depth` whose levels below the basepoint
    are each kept whole, thinned to a random share or emptied."""
    dense = au.random_portrait(params, depth, rng)
    keep = {j: rng.choice([1.0, 0.3, 0.0]) for j in range(1, depth)}
    nodes = {a: p for a, p in dense.node_perms.items() if rng.random() < keep[len(a)]}
    return au.Portrait(dense.root_perm, nodes)


@given(st.sampled_from([(2, 7), (3, 5), (5, 4)]), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_apply_batch_matches_apply_vertex_on_mixed_words(q_cap, seed):
    # words of portraits with full, sparse and empty levels and edge
    # inversions, each forward or inverted, on rows of mixed length above
    # a random shortest one, with junk past each row's length: large
    # enough that a table gather keyed by it runs past the table
    q, cap = q_cap
    params = tr.TreeParams(q, cap)
    rng = np.random.default_rng(seed)
    word = []
    for _ in range(int(rng.integers(1, 5))):
        gen = (
            au.PortraitGen(mixed_portrait(params, int(rng.integers(1, cap + 1)), rng))
            if rng.random() < 0.6
            else au.EdgeInversionGen()
        )
        word.append((gen, bool(rng.integers(0, 2))))
    g = au.TreeAutomorphism(params, word)
    n = 60
    lengths = rng.integers(rng.integers(0, cap + 1), cap + 1, n)
    letters = rng.integers(0, 30000, (n, cap)).astype(np.int16)
    for row, k in enumerate(lengths):
        if k:
            letters[row, 0] = rng.integers(1, q + 2)
            letters[row, 1:k] = rng.integers(1, q + 1, k - 1)
    if rng.random() < 0.5:
        letters = np.asfortranarray(letters)
    out, out_lengths = g.apply_batch(letters, lengths)
    for row, k in enumerate(lengths):
        v = tuple(int(x) for x in letters[row, :k])
        assert tuple(int(x) for x in out[row, : out_lengths[row]]) == g.apply_vertex(v)


def test_apply_batch_checks_its_input():
    g = au.step_translation(P2)
    letters = tr.letter_matrix(P2, 3)
    lengths = np.full(letters.shape[0], 3)
    bad = [
        (letters, lengths[:-1]),  # one length short
        (letters, np.full((letters.shape[0], 1), 3)),  # lengths not a vector
        (letters, lengths.astype(float)),  # float lengths
        (letters.astype(float), lengths),  # float letters
        (letters.astype(bool), lengths),
        (letters[:, 0], lengths),  # not a matrix
        (letters, np.where(np.arange(letters.shape[0]) == 5, 4, 3)),  # a row past the width
        (letters, np.where(np.arange(letters.shape[0]) == 5, -1, 3)),
    ]
    contract = "letters must|lengths must|row lengths"  # not a numpy error, not a later check
    for word in (g, au.from_portrait(P2, au.Portrait((2, 1, 3)))):
        for args in bad:
            with pytest.raises(MalformedAddressError, match=contract):
                word.apply_batch(*args)
    # lists are matrices too, and an empty batch is one
    out, out_lengths = g.apply_batch([[1, 2], [3, 0]], [2, 1])
    assert out.tolist() == [[1, 1, 2], [1, 2, 0]] and out_lengths.tolist() == [3, 2]
    assert [g.apply_vertex(v) for v in ((1, 2), (3,))] == [(1, 1, 2), (1, 2)]
    out, out_lengths = g.apply_batch(np.zeros((0, 2), dtype=np.int16), np.zeros(0, dtype=int))
    assert out.shape == (0, 3) and out_lengths.shape == (0,)


def test_apply_batch_refuses_letters_out_of_range():
    # a flat table gather would read a neighbouring entry for [1, 3] and
    # [0, 2], and index past the table for [4, 1] and [3, 3]
    swaps = {(a,): (2, 1) for a in (1, 2, 3)}
    g = au.from_portrait(P2, au.Portrait((2, 1, 3), swaps))
    for row in ([1, 3], [0, 2], [4, 1], [3, 3]):
        for word in (g, g.inverse(), au.step_translation(P2)):
            with pytest.raises(MalformedAddressError, match="letters must lie"):
                word.apply_batch(np.array([row], dtype=np.int16), [2])
    # a bad letter below the shortest row is found too; padding is free
    for rows, lengths in (([[1, 3], [2, 0]], [2, 1]), ([[4, 0], [1, 1]], [1, 0])):
        with pytest.raises(MalformedAddressError, match="letters must lie"):
            g.apply_batch(rows, lengths)
    out, lengths = g.apply_batch([[1, 2], [3, 7], [9, 9]], [2, 1, 0])
    assert [row[:k] for row, k in zip(out.tolist(), lengths)] == [[2, 1], [3], []]


def test_word_cost_bounds_depth_growth():
    rng = np.random.default_rng(4)
    for _ in range(15):
        g = au.random_word(P2, rng, 3)
        cost = g.word_cost()
        for v in oracles.ball_vertices(2, 3):
            assert len(g.apply_vertex(v)) <= len(v) + cost
