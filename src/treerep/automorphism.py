"""Tree automorphisms as words in explicit generators.

Two generator kinds suffice for everything the verification suites need:

* rooted portraits -- fix the basepoint and permute child letters, with a
  (sparse) permutation attached to each vertex: the word (a1, a2, ...) maps
  to (s[](a1), s[a1](a2), s[a1 a2](a3), ...).  Unspecified vertices carry
  the identity, so a portrait is a total map on addresses of any depth.

* the edge inversion h -- exchanges the basepoint with its first neighbour
  (1) and, with it, the half-tree at (1) with its complement:

      h(1, a2, a3, ...) = (a2 + 1, a3, ...)
      h(a1, a2, ...)    = (1, a1 - 1, a2, ...)      for a1 >= 2

The step translation t, which shifts the standard line x_k = 1^k (k >= 0),
x_{-k} = 2 1^(k-1) (k >= 1) by one (t x_k = x_{k+1}), is not a third kind
but the two-letter word: the portrait swapping branches 1 and 2, then the
edge inversion.  The basepoint shift onto a neighbour (j) is the edge
inversion, then (for j >= 2) the portrait swapping branches 1 and j.  These
and the edge inversion itself are constant words, built once per tree and
shared; so are their generators' level tables, which are read-only.

A portrait generator is built with its portrait and forward scalar lookup
only.  Its level tables (below) and its inverse scalar lookup are built on
first use: a random_word used only through apply_vertex, the boundary-cell
maps or its JSON form never builds a table, its first batch builds them
once, and its inverse, which holds the same generators, reuses them.  Most
suite words never run a batch.  from_portrait builds the tables with the
word instead: a word built from a given portrait (the constant words, a
benchmark's or a caller's own) is built to act, so its first batch should
not pay for them, and a set-up that builds such words keeps that work.

Letter matrices (one address per row, with a length per row) are
column-major, as `tree` lays them out, so each step below reads or writes
whole contiguous columns; every batch output is column-major, and a
row-major input gives the same images.  They go through a portrait level
by level: each depth that carries permutations (depth 0 carries the root
permutation) holds the sorted prefix indices of its vertices and one flat
table of their children's image letters, in child position (vertex
position times its child count, plus the letter minus one), so the tables
grow with the portrait, not with the tree.  Level keys and the rows'
running prefix index take `tree`'s index dtype for their depth: int64
while every index of the depth fits in it, Python integers past that, so a
deep prefix never wraps onto a shallow key.  A level that holds every
vertex of its depth (every level of a random_portrait) costs one gather
keyed by the rows' running prefix index itself; a sparser level first
looks that index up with one searchsorted.  Forward, on a full level that
every row reaches, a row's child position is the prefix index of its next
depth, so the one fold that moves the running index on is the whole key.
Levels above the shortest row read whole columns, deeper ones only the
rows that reach them, and a level no row reaches ends the step.  The
edge inversion shifts every row one letter to the right as one column
block, writing the image (1, a1 - 1, a2, ...) of every row, and copies the
image of the rows starting with 1 over it, with no per-row branch.  Only
rows shorter than two letters (the basepoint, and the neighbours that
become it) need per-row length tests; when the shortest row has two
letters, one min pass replaces them, and when it has one, only the
neighbours' test is left.

A word is evaluated in one buffer: apply_batch pads a copy of its input
and hands it to every step.  A portrait step rewrites its level columns
of that buffer in place.  Forward, later levels key on the original
letters, so each level folds its column into the running prefix index
before it overwrites the column; backward they key on the image letters,
which are in place already.  The edge inversion writes its images into a
new buffer.  A generator's batch called on its own works on a copy and
never writes into its input.

An automorphism is a word of (generator, inverted) pairs applied left to
right; composition concatenates words, inversion reverses the word and
flips the flags.  Every generator is a total, exactly invertible map on
addresses, so evaluation never truncates; depth budgets only bite where a
caller enumerates cylinders.  The image of the basepoint and its distance
from the basepoint (the displacement) are cached at construction.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DepthBudgetError, MalformedAddressError, _expect, _integer
from .tree import (
    ROOT,
    Address,
    TreeParams,
    _fold,
    _index_dtype,
    addresses_at_depth,
    check_address,
    format_address,
    index_unchecked,
    n_addresses,
)


_PERM_TYPES = (tuple, list, np.ndarray)


def _check_perm(perm: Sequence[int], n: int, addr: Address) -> tuple[int, ...]:
    # the permutation below vertex addr; entries are letters: integers,
    # never bools, never truncated to one.  The error names the vertex,
    # formatted only on failure (a random portrait checks hundreds of nodes)
    try:
        t = tuple(_integer(x, "entry", None) for x in _expect(perm, _PERM_TYPES, "letters"))
    except ConfigError:
        label = _perm_label(addr)
        _expect(perm, _PERM_TYPES, f"{label} as a tuple of letters")
        raise ConfigError(f"{label} has a non-integer entry: {perm!r}") from None
    if sorted(t) != list(range(1, n + 1)):
        raise ConfigError(f"{_perm_label(addr)} is not a permutation of 1..{n}: {perm!r}")
    return t


def _perm_label(addr: Address) -> str:
    return "root perm" if not addr else f"node perm at {format_address(addr)}"


def _tables(perms: list[tuple[int, ...]]) -> np.ndarray:
    # the image letters of every child, flat in child position: entry 1 +
    # i * width + (letter - 1) is perms[i](letter), and entry 0 is unused,
    # so a gather at i * width + letter needs no - 1; read-only, as a
    # shared word shares its tables
    t = np.array([0, *itertools.chain.from_iterable(perms)], dtype=np.int16)
    t.setflags(write=False)
    return t


def _inv_perm(perm: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(perm)
    for i, img in enumerate(perm):
        out[img - 1] = i + 1
    return tuple(out)


@dataclass(frozen=True, eq=True)
class Portrait:
    """Sparse letterwise description of a basepoint-fixing automorphism.

    root_perm permutes the q+1 first letters; node_perms maps a vertex
    address to the permutation of 1..q applied to the letter right below
    that vertex.  Missing vertices act as the identity.
    """

    root_perm: tuple[int, ...]
    node_perms: Mapping[Address, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        q = len(_expect(self.root_perm, _PERM_TYPES, "root perm as a tuple of letters")) - 1
        _expect(self.node_perms, Mapping, "node_perms as a mapping from addresses to permutations")
        if q < 2:
            raise ConfigError("root permutation must act on at least 3 letters")
        object.__setattr__(self, "root_perm", _check_perm(self.root_perm, q + 1, ROOT))
        params = TreeParams(q)
        clean = {}
        for addr, perm in self.node_perms.items():
            if not addr:
                raise ConfigError("attach the basepoint permutation via root_perm")
            check_address(params, addr, allow_deep=True)
            clean[addr] = _check_perm(perm, q, addr)
        object.__setattr__(self, "node_perms", clean)

    @property
    def q(self) -> int:
        return len(self.root_perm) - 1


class PortraitGen:
    kind = "portrait"
    grows = 0  # never changes address length

    def __init__(self, portrait: Portrait):
        self.portrait = portrait
        # scalar lookup, vertex address -> permutation of the letter below
        # it; the basepoint's is the root permutation
        self._perms = {ROOT: portrait.root_perm, **portrait.node_perms}

    @functools.cached_property
    def _perms_inv(self) -> dict[Address, tuple[int, ...]]:
        # the inverse scalar lookup, built on first use
        return {addr: _inv_perm(p) for addr, p in self._perms.items()}

    @functools.cached_property
    def _levels(self) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        # level tables, built on first use from the scalar lookups (a word
        # and its inverse share the generator, so they share these): for
        # every depth j that carries permutations, the sorted prefix indices
        # (tree.index_unchecked numbering) of its vertices and their flat
        # letter tables, forward and inverted; depth 0 is the basepoint alone
        q = self.portrait.q
        by_level: dict[int, list[Address]] = {}
        for addr in self._perms:
            by_level.setdefault(len(addr), []).append(addr)
        levels = []
        for j in sorted(by_level):
            addrs = sorted(by_level[j])  # letters are in range: index order
            keys = np.array([index_unchecked(q, a) for a in addrs], dtype=_index_dtype(q, j))
            keys.setflags(write=False)
            levels.append((
                j,
                keys,
                _tables([self._perms[a] for a in addrs]),
                _tables([self._perms_inv[a] for a in addrs]),
            ))
        return levels

    def apply(self, addr: Address, inverted: bool) -> Address:
        # the permutation below a vertex is keyed by the original prefix
        # going forward, by the preimage prefix (built so far) going backward
        if not addr:
            return addr
        perms = self._perms_inv if inverted else self._perms
        out: list[int] = []
        for j, letter in enumerate(addr):
            perm = perms.get(tuple(out) if inverted else addr[:j])
            out.append(perm[letter - 1] if perm else letter)
        return tuple(out)

    def batch(self, letters: np.ndarray, lengths: np.ndarray, inverted: bool, *, _owned: bool = False):
        # the keying rule of `apply`: the running prefix index reads the
        # original letters forward, the image letters written so far
        # backward; levels past the deepest vertex are the identity.  Above
        # the shortest row every row takes part, and a level holding every
        # vertex of its depth is keyed by the prefix index itself.  Each
        # level rewrites its own column of one buffer: `letters` itself
        # when the caller hands it over (`_owned`, apply_batch's word
        # buffer), else a copy, so a plain call never writes its input.
        out = letters if _owned else letters.copy(order="K")  # a plain copy() is row-major
        q = self.portrait.q
        last = self._levels[-1][0]
        reach = int(lengths.min()) if lengths.size else 0
        idx = np.zeros(out.shape[0], dtype=np.int64)
        done = 0  # columns folded into idx
        for j, keys, fwd, inv in self._levels:
            if j >= out.shape[1]:
                break
            full = not j or keys.size == (q + 1) * q ** (j - 1)  # every vertex of depth j
            # columns not yet folded hold the original letters forward
            # (a level folds its column before rewriting it), the images
            # backward
            idx = idx.astype(_index_dtype(q, j), copy=False)
            for k in range(done, j):
                _fold(idx, out[:, k], q)
            done = j
            if full and j < reach and not inverted:
                # a row's child position in the flat table is the index of
                # its depth-(j + 1) prefix (int64: the table holds every
                # such prefix), so the fold of column j keys the level
                _fold(idx, out[:, j], q)
                done = j + 1
                out[:, j] = fwd[1:][idx]
                continue
            table = inv if inverted else fwd
            rows = slice(None) if j < reach else np.flatnonzero(lengths > j)
            if j >= reach and not rows.size:
                break  # no row reaches depth j, nor any deeper level
            pos = at = idx[rows]
            if not full:
                pos = np.minimum(np.searchsorted(keys, at), len(keys) - 1)
                hit = np.flatnonzero(keys[pos] == at)
                rows = hit if j < reach else rows[hit]
                pos = pos[hit]
            # one flat gather: two index arrays into a 2-d table cost twice as
            # much; the basepoint level's one vertex sits at position 0
            pos = pos * q + out[rows, j]
            if not inverted and j < last:  # fold column j before overwriting it
                idx = idx.astype(_index_dtype(q, j + 1), copy=False)
                _fold(idx, out[:, j], q)
                done = j + 1
            out[rows, j] = table[pos]
        return out, lengths

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "root": list(self.portrait.root_perm),
            "nodes": {
                format_address(a): list(p)
                for a, p in sorted(self.portrait.node_perms.items())
            },
        }


class EdgeInversionGen:
    kind = "edge_inversion"
    grows = 1  # address length can change by one

    def apply(self, addr: Address, inverted: bool) -> Address:
        # self-inverse, so the flag is irrelevant
        if not addr:
            return (1,)
        if addr[0] == 1:
            if len(addr) == 1:
                return ROOT
            return (addr[1] + 1,) + addr[2:]
        return (1, addr[0] - 1) + addr[1:]

    def batch(self, letters: np.ndarray, lengths: np.ndarray, inverted: bool, *, _owned: bool = False):
        # every row gets the down image (1, a1 - 1, a2, ...), then the rows
        # starting with 1 take the up image (a2 + 1, a3, ...) over it and
        # the basepoint rows (1).  The images go to a new buffer whether or
        # not the caller hands `letters` over.  Where every row has two
        # letters or more, no row is the basepoint or becomes it, so the
        # three per-row length tests are one min pass; where every row
        # has one letter or more, the two basepoint tests are skipped.
        reach = int(lengths.min()) if lengths.size else 0
        deep = reach >= 2
        up = letters[:, 0] == 1
        if not reach:
            up &= lengths >= 1
        new = lengths + (1 - 2 * up.view(np.int8))  # the +-1 steps in int8, one int64 pass
        if lengths.max(initial=0) >= letters.shape[1] and np.any(new > letters.shape[1]):
            raise MalformedAddressError("batch buffer too narrow for an inversion step")
        out = np.empty(letters.shape, dtype=letters.dtype, order="F")
        out[:, 1:] = letters[:, :-1]  # each row one to the right
        out[:, 0] = 1
        out[:, 1:2] -= 1
        np.copyto(out[:, :-1], letters[:, 1:], where=up[:, None])
        np.copyto(out[:, -1], 0, where=up)
        if deep:
            out[:, 0] += up
        else:
            out[:, 0] += up & (lengths >= 2)
            if not reach:
                out[lengths == 0, 1:] = 0
        return out, new

    def to_json_obj(self) -> dict:
        return {"kind": self.kind}


Generator = PortraitGen | EdgeInversionGen
_GENERATORS = (PortraitGen, EdgeInversionGen)


class TreeAutomorphism:
    """A word of (generator, inverted) pairs, applied left to right."""

    __slots__ = ("params", "word", "x0_image", "displacement", "_inverse")

    def __init__(self, params: TreeParams, word: Iterable[tuple[Generator, bool]]):
        self.params = _expect(params, TreeParams, "a TreeParams")
        try:  # not iterable, or a step that is no pair
            word = [(gen, bool(flag)) for gen, flag in word]
        except (TypeError, ValueError):
            raise ConfigError(f"expected a word of (generator, flag) pairs, got {word!r}") from None
        self.word = tuple((_expect(gen, _GENERATORS, "a generator"), flag) for gen, flag in word)
        img: Address = ROOT
        for gen, flag in self.word:
            img = gen.apply(img, flag)
        self.x0_image = img
        self.displacement = len(img)
        self._inverse = None

    # -- evaluation ---------------------------------------------------------

    def apply_vertex(self, addr: Address) -> Address:
        """Image of a vertex.  The input must respect the depth cap; the
        image may be up to `displacement` deeper."""
        check_address(self.params, addr)
        for gen, flag in self.word:
            addr = gen.apply(addr, flag)
        return addr

    def apply_batch(self, letters: np.ndarray, lengths: np.ndarray):
        """Vectorized apply_vertex over rows of a letter matrix.

        `letters` is an (n, width) integer matrix and `lengths` holds n
        integers in 0..width, and every letter within a row's length must
        be a valid letter for its position (`TreeParams.letter_range`);
        anything else raises MalformedAddressError.  The images come
        back column-major, in an (n, width + word_cost()) matrix of the
        input's dtype, with their lengths; the input is not written.

        The word runs in one buffer: a copy of `letters` with zeroed
        padding columns, rewritten in place by every portrait step and
        replaced by each edge inversion's image buffer (see the module
        docstring for the fold-before-overwrite rule and for when the
        inversion takes its per-row length tests).
        """
        letters = np.asarray(letters)
        lengths = np.array(lengths)
        if letters.ndim != 2 or letters.dtype.kind not in "iu":  # signed or unsigned integers
            raise MalformedAddressError(
                f"letters must be an (n, width) integer matrix, got {letters.dtype} "
                f"of shape {letters.shape}"
            )
        n, width = letters.shape
        if lengths.shape != (n,) or lengths.dtype.kind not in "iu":
            raise MalformedAddressError(
                f"lengths must be {n} integers, got {lengths.dtype} of shape {lengths.shape}"
            )
        reach = int(lengths.min()) if n else 0
        if n and (reach < 0 or lengths.max() > width):
            raise MalformedAddressError(f"row lengths must lie in 0..{width}")
        # the columns every row reaches as one block, each deeper column over
        # the rows that reach it; padding past a row's length is not read
        q = self.params.q
        block = letters[:, :reach]
        bad = block.size and (
            block.min() < 1 or block[:, 0].max() > q + 1 or reach > 1 and block[:, 1:].max() > q
        )
        for j in range(reach, width):
            column = letters[lengths > j, j]
            bad = bad or column.size and (column.min() < 1 or column.max() > (q if j else q + 1))
        if bad:
            raise MalformedAddressError(
                f"letters must lie in 1..{q + 1} at position 0 and in 1..{q} after it, "
                f"within each row's length (q={q})"
            )
        out = np.empty((n, width + self.word_cost()), dtype=letters.dtype, order="F")
        out[:, width:] = 0
        out[:, :width] = letters
        for gen, flag in self.word:
            out, lengths = gen.batch(out, lengths, flag, _owned=True)
        return out, lengths

    # -- algebra ------------------------------------------------------------

    def inverse(self) -> "TreeAutomorphism":
        if self._inverse is None:
            inv = TreeAutomorphism(
                self.params, [(gen, not flag) for gen, flag in reversed(self.word)]
            )
            inv._inverse = self
            self._inverse = inv
        return self._inverse

    def word_cost(self) -> int:
        """How much deeper than its input an evaluation can get."""
        return sum(gen.grows for gen, _ in self.word)

    def to_json_obj(self) -> list[dict]:
        out = []
        for gen, flag in self.word:
            rec = gen.to_json_obj()
            if flag:
                rec = dict(rec, inverted=True)
            out.append(rec)
        return out

    def __repr__(self) -> str:
        tags = [("~" if flag else "") + gen.kind for gen, flag in self.word]
        return f"TreeAutomorphism([{', '.join(tags)}] -> x0 at {format_address(self.x0_image)})"


# -- factories (the public construction surface) ----------------------------


def identity(params: TreeParams) -> TreeAutomorphism:
    return TreeAutomorphism(params, [])


def from_portrait(params: TreeParams, portrait: Portrait) -> TreeAutomorphism:
    _expect(params, TreeParams, "a TreeParams")
    if _expect(portrait, Portrait, "a Portrait").q != params.q:
        raise ConfigError(f"portrait is for q={portrait.q}, tree has q={params.q}")
    for addr in portrait.node_perms:
        check_address(params, addr)
    gen = PortraitGen(portrait)
    gen._levels  # built with the word: see the module docstring
    return TreeAutomorphism(params, [(gen, False)])


def edge_inversion(params: TreeParams) -> TreeAutomorphism:
    """One shared word per tree."""
    _expect(params, TreeParams, "a TreeParams")  # before the cache hashes it
    return _edge_inversion(params)


@functools.lru_cache(maxsize=64)
def _edge_inversion(params: TreeParams) -> TreeAutomorphism:
    return TreeAutomorphism(params, [(EdgeInversionGen(), False)])


def compose(g: TreeAutomorphism, h: TreeAutomorphism) -> TreeAutomorphism:
    """g after h (apply h first)."""
    _expect(g, TreeAutomorphism, "a TreeAutomorphism")
    _expect(h, TreeAutomorphism, "a TreeAutomorphism")
    if g.params != h.params:
        raise ConfigError("cannot compose automorphisms over different trees")
    out = TreeAutomorphism(g.params, h.word + g.word)
    if out.displacement > g.params.depth_cap:
        raise DepthBudgetError(
            f"composition moves the basepoint to depth {out.displacement}, "
            f"past the cap {g.params.depth_cap}"
        )
    return out


def _root_swap(params: TreeParams, j: int) -> TreeAutomorphism:
    """The portrait exchanging root branches 1 and j."""
    perm = list(range(1, params.q + 2))
    perm[0], perm[j - 1] = j, 1
    return from_portrait(params, Portrait(tuple(perm)))


def step_translation(params: TreeParams) -> TreeAutomorphism:
    """The branch swap 1 <-> 2, then the edge inversion; one shared word
    per tree."""
    _expect(params, TreeParams, "a TreeParams")  # before the cache hashes it
    return _step_translation(params)


@functools.lru_cache(maxsize=64)
def _step_translation(params: TreeParams) -> TreeAutomorphism:
    return compose(edge_inversion(params), _root_swap(params, 2))


def basepoint_shift(params: TreeParams, head: Address) -> TreeAutomorphism:
    """An automorphism carrying the basepoint to the adjacent vertex `head`:
    the edge inversion followed by the root transposition onto `head`; one
    shared word per tree and head."""
    check_address(params, head)
    if len(head) != 1:
        raise ConfigError(f"{head!r} is not adjacent to the basepoint")
    return _basepoint_shift(params, int(head[0]))


@functools.lru_cache(maxsize=64)
def _basepoint_shift(params: TreeParams, j: int) -> TreeAutomorphism:
    h = edge_inversion(params)
    return h if j == 1 else compose(_root_swap(params, j), h)


def random_portrait(params: TreeParams, depth: int, rng: np.random.Generator) -> Portrait:
    """Uniform portrait down to `depth`; identity below.

    The root permutation is one rng.permutation(q + 1); each level below
    is one rng.permuted over its vertices' rows of 1..q, in index order,
    which draws the same stream as one rng.permutation(q) per vertex."""
    _expect(params, TreeParams, "a TreeParams")
    if _integer(depth, "portrait depth", 1) > params.depth_cap:
        raise DepthBudgetError(f"portrait depth {depth} exceeds cap {params.depth_cap}")
    _expect(rng, np.random.Generator, "a numpy.random.Generator")
    q = params.q
    root = tuple((rng.permutation(q + 1) + 1).tolist())
    nodes = {}
    for level in range(1, depth):
        rows = np.empty((n_addresses(params, level), q), dtype=np.int64)
        rows[:] = np.arange(1, q + 1)
        rng.permuted(rows, axis=1, out=rows)
        nodes.update(zip(addresses_at_depth(params, level), map(tuple, rows.tolist())))
    return Portrait(root, nodes)


def random_word(params: TreeParams, rng: np.random.Generator, max_factors: int) -> TreeAutomorphism:
    """Seeded word of 1..max_factors factors, each a depth-2 random portrait,
    the edge inversion or the step translation, inverted or not.  The draw
    order is part of the suites' seed paths: a failure record replays only
    while a seed gives the same words."""
    _expect(params, TreeParams, "a TreeParams")
    _expect(rng, np.random.Generator, "a numpy.random.Generator")
    word = []
    for _ in range(int(rng.integers(1, _integer(max_factors, "max_factors", 1) + 1))):
        kind = int(rng.integers(0, 3))
        inverted = bool(rng.integers(0, 2))
        if kind == 0:
            word.append((PortraitGen(random_portrait(params, 2, rng)), inverted))
        elif kind == 1:
            word.append((EdgeInversionGen(), inverted))
        else:
            t = step_translation(params)
            word.extend((t.inverse() if inverted else t).word)
    return TreeAutomorphism(params, word)
