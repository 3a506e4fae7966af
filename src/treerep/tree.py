"""Rooted word model of the (q+1)-regular tree.

A vertex is a finite word of child indices: the first letter ranges over
{1..q+1} (the basepoint has q+1 neighbours), every later letter over
{1..q}.  The empty word is the basepoint.  Adjacency is "extend by one
letter", so the parent of a nonempty word is the word minus its last
letter, and graph distance reduces to longest-common-prefix arithmetic:

    d(u, v) = |u| + |v| - 2 |lcp(u, v)|

The boundary at infinity is the set of infinite words; the cylinder at a
vertex u collects the ends whose word starts with u.  The horofunction
(Busemann) increment from the basepoint to a vertex y is constant on the
cylinder at u unless u is a proper prefix of y, and then equals
2 |lcp(u, y)| - |y|; `busemann_on_cylinder` computes it exactly, and
too-shallow cylinders raise instead of averaging.

A depth cap (runtime parameter, default 8) bounds every enumeration.
Operations that would have to enumerate or accept addresses deeper than
the cap raise DepthBudgetError rather than truncating silently.

Addresses of one depth are numbered in lexicographic order, and a finite
subtree is one sorted array of these numbers per depth
(`FiniteSubtree.levels`).  Parent and children are index arithmetic on
those arrays, so connectivity and valencies cost one searchsorted per
depth and a closed neighbourhood at most one stable sort per old level
its shell reaches, not one Python step per vertex.  A closed
neighbourhood carries the shell it added last: every other vertex
already has all its neighbours inside, so the next neighbourhood grows
from that shell alone, and completeness and the orbit scan read only the
depths it touches.  A level the shell adds nothing to stays the same array, and
valencies are carried with it: one is recomputed only where its level or
a neighbouring level changed.  Growing a ball by one therefore costs what
its new shell costs.  The set of address tuples is built from the levels
only when a caller asks for it.
Indices are int64 while every address of their depth fits in it and
Python integers past that (`_index_dtype`); the index decoder
(`_letters`) and the prefix fold follow that rule, and so do the portrait
keys of the automorphism module.

A letter matrix holds one address per row, an (n, depth) array that is
column-major (Fortran order).  Every vectorized step reads, writes or
shifts one letter position of all rows at once, so a column must be
contiguous: in row-major order a column of a matrix with a handful of
int16 letters per row is a strided walk over every row.  Functions that
take letter matrices accept either order.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    ConfigError,
    CylinderTooShallowError,
    DepthBudgetError,
    MalformedAddressError,
    SubtreeError,
)

Address = tuple[int, ...]

ROOT: Address = ()


@dataclass(frozen=True)
class TreeParams:
    """Degree and depth-cap configuration.

    q >= 2 is the branching number: every vertex has q+1 neighbours.
    depth_cap bounds the depth of any address an enumeration may touch.
    """

    q: int
    depth_cap: int = 8

    def __post_init__(self):
        if not isinstance(self.q, (int, np.integer)) or self.q < 2:
            raise ConfigError(f"q must be an integer >= 2, got {self.q!r}")
        if not isinstance(self.depth_cap, (int, np.integer)) or self.depth_cap < 1:
            raise ConfigError(f"depth_cap must be a positive integer, got {self.depth_cap!r}")
        # numpy integers are stored as int, so equal parameters hash and
        # serialize alike
        object.__setattr__(self, "q", int(self.q))
        object.__setattr__(self, "depth_cap", int(self.depth_cap))

    def letter_range(self, position: int) -> range:
        """Valid letters at a given position (0-based) of an address."""
        return range(1, self.q + 2) if position == 0 else range(1, self.q + 1)


def check_address(params: TreeParams, addr: Address, *, allow_deep: bool = False) -> Address:
    """Validate letter ranges (and, unless allow_deep, the depth cap)."""
    if not isinstance(addr, tuple):
        raise MalformedAddressError(f"address must be a tuple of letters, got {type(addr).__name__}")
    for i, letter in enumerate(addr):
        if not isinstance(letter, (int, np.integer)):
            raise MalformedAddressError(f"letter {letter!r} at position {i} is not an integer")
        hi = params.q + 1 if i == 0 else params.q
        if not 1 <= letter <= hi:
            raise MalformedAddressError(
                f"letter {letter} at position {i} outside 1..{hi} (q={params.q})"
            )
    if not allow_deep and len(addr) > params.depth_cap:
        raise DepthBudgetError(f"address depth {len(addr)} exceeds cap {params.depth_cap}")
    return addr


def format_address(addr: Address) -> str:
    return "-" if not addr else ".".join(str(letter) for letter in addr)


def parent(addr: Address) -> Address:
    if not addr:
        raise MalformedAddressError("the basepoint has no parent")
    return addr[:-1]


def neighbors(params: TreeParams, addr: Address) -> list[Address]:
    """The parent (unless addr is the basepoint), then the children in order."""
    out = [] if not addr else [addr[:-1]]
    out.extend(addr + (letter,) for letter in params.letter_range(len(addr)))
    return out


def lcp(u: Address, v: Address) -> Address:
    n = 0
    for a, b in zip(u, v):
        if a != b:
            break
        n += 1
    return u[:n]


def busemann_on_cylinder(params: TreeParams, u: Address, y: Address) -> int:
    """Horofunction increment B_xi(basepoint, y) for every end xi in the cylinder at u.

    For an end approached along vertices z_k the increment is
    lim |z_k| - d(y, z_k) = 2 |lcp(y, z_k)| - |y|.  For every z deep in
    the cylinder lcp(y, z) = lcp(y, u) unless u is a proper prefix of y,
    so the value is 2 |lcp(u, y)| - |y| on the whole cell.  If u sits
    strictly above y the increment genuinely varies over the cell, and
    the function raises CylinderTooShallowError so the caller refines
    instead of receiving one value of many.

    The value is a closed formula, not an enumeration, so neither address
    is held to the depth cap.
    """
    check_address(params, u, allow_deep=True)
    check_address(params, y, allow_deep=True)
    meet = len(lcp(u, y))
    if meet == len(u) < len(y):
        raise CylinderTooShallowError(
            f"cylinder {format_address(u)} lies strictly above {format_address(y)}; "
            "the increment is not constant on it"
        )
    return 2 * meet - len(y)


# ---------------------------------------------------------------------------
# depth-level enumeration
#
# Addresses of a fixed depth m are ordered lexicographically.  The order is
# realized by an integer index: the first letter contributes (a1-1)*q^(m-1),
# each later letter a_j contributes (a_j-1)*q^(m-j).  Cylinders at a prefix
# are then contiguous index ranges, which the boundary-measure and
# representation modules exploit heavily.
# ---------------------------------------------------------------------------


def _check_depth(depth: int) -> None:
    if not isinstance(depth, (int, np.integer)) or depth < 0:
        raise ConfigError(f"depth must be a nonnegative integer, got {depth!r}")


def n_addresses(params: TreeParams, depth: int) -> int:
    _check_depth(depth)
    if depth == 0:
        return 1
    return (params.q + 1) * params.q ** (depth - 1)


_INT64_MAX = np.iinfo(np.int64).max


def _index_dtype(q: int, depth: int):
    """int64 while every depth-`depth` index fits in it, else object (Python integers)."""
    return np.int64 if depth == 0 or (q + 1) * q ** (depth - 1) <= _INT64_MAX else object


def _letters(params: TreeParams, depth: int, idx: np.ndarray) -> np.ndarray:
    """The (n, depth) letter rows of the depth-`depth` addresses idx,
    column-major."""
    out = np.empty((idx.size, depth), dtype=np.int64, order="F")
    rest = idx
    for j in range(depth - 1, 0, -1):
        out[:, j] = 1 + rest % params.q
        rest = rest // params.q
    if depth:
        out[:, 0] = 1 + rest
    return out


@functools.lru_cache(maxsize=64, typed=True)  # typed: 2.0 must not hit the entry of 2
def letter_matrix(params: TreeParams, depth: int) -> np.ndarray:
    """All depth-`depth` addresses as an (n, depth) int16 matrix,
    column-major, sorted."""
    _check_depth(depth)
    if depth > params.depth_cap:
        raise DepthBudgetError(f"depth {depth} exceeds cap {params.depth_cap}")
    out = _letters(params, depth, np.arange(n_addresses(params, depth))).astype(np.int16)
    out.setflags(write=False)
    return out


def addresses_at_depth(params: TreeParams, depth: int) -> list[Address]:
    return [tuple(int(x) for x in row) for row in letter_matrix(params, depth)]


def index_unchecked(q: int, addr: Address) -> int:
    """Index of a valid address, of any depth, among the sorted addresses of its depth."""
    idx = 0
    for letter in addr:
        idx = idx * q + (letter - 1)
    return idx


def address_from_index(params: TreeParams, depth: int, idx: int) -> Address:
    if not isinstance(idx, (int, np.integer)):
        raise MalformedAddressError(f"index {idx!r} is not an integer")
    if not 0 <= idx < n_addresses(params, depth):
        raise MalformedAddressError(f"index {idx} out of range at depth {depth}")
    idx = np.array([idx], dtype=_index_dtype(params.q, depth))
    return tuple(_letters(params, depth, idx)[0].tolist())


def prefix_indices(params: TreeParams, letters: np.ndarray, lengths: np.ndarray, m: int) -> np.ndarray:
    """Vectorized index_unchecked of the depth-m prefix of every row.

    Rows must have length >= m.  The result has `_index_dtype`'s dtype
    for depth m: int64, or Python integers where the depth outgrows it.
    """
    if m and np.any(lengths < m):
        raise MalformedAddressError(f"a row is shorter than the requested prefix length {m}")
    dtype = _index_dtype(params.q, m)
    idx = np.zeros(letters.shape[0], dtype=dtype)
    for j in range(m):
        idx *= params.q
        idx += letters[:, j]
        idx -= 1
    return idx


# ---------------------------------------------------------------------------
# finite subtrees
#
# In index terms the parent of i at depth k >= 2 is i // q, every depth-1
# vertex hangs off the basepoint, and the children of i are i q + 0..q-1
# (those of the basepoint 0..q).  Indices are int64 wherever a whole level
# fits in it; deeper levels hold Python integers, which do not wrap.
# Vertex lists are checked and indexed one vertex at a time (they are small:
# a basepoint, an edge, a pruned ball); derived subtrees such as closed
# neighbourhoods come from valid level arrays through `FiniteSubtree._grown`.
# ---------------------------------------------------------------------------


def _empty_level(params: TreeParams, depth: int) -> np.ndarray:
    return np.zeros(0, dtype=_index_dtype(params.q, depth))


def _parent_indices(params: TreeParams, depth: int, idx: np.ndarray) -> np.ndarray:
    """Index of the parent of every depth-`depth` vertex idx (depth >= 1)."""
    if depth == 1:
        return np.zeros(idx.size, dtype=_index_dtype(params.q, 0))
    return (idx // params.q).astype(_index_dtype(params.q, depth - 1))


def _child_indices(params: TreeParams, depth: int, idx: np.ndarray) -> np.ndarray:
    """Indices of all children of the depth-`depth` vertices idx."""
    dtype = _index_dtype(params.q, depth + 1)
    if depth == 0:
        return np.arange(params.q + 1 if idx.size else 0).astype(dtype)
    return (idx.astype(dtype)[:, None] * params.q + np.arange(params.q)).ravel()


def _positions(level: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Position of every idx in the sorted array `level`, -1 where absent."""
    pos = np.searchsorted(level, idx)
    hit = pos < level.size
    hit[hit] = level[pos[hit]] == idx[hit]
    return np.where(hit, pos, -1)


def _uplinks(params: TreeParams, levels: tuple[np.ndarray, ...], k: int) -> np.ndarray:
    """Position in level k-1 of the parent of every depth-k vertex, -1 where
    it lies outside the set (always for the basepoint); empty past the
    last level."""
    if k == len(levels):
        return np.zeros(0, dtype=np.int64)
    if k == 0:
        return np.full(levels[0].size, -1)
    return _positions(levels[k - 1], _parent_indices(params, k, levels[k]))


def _valency(ups, k: int) -> np.ndarray:
    """Valency of every depth-k vertex, where ups[j] are the uplinks of depth j."""
    children = ups[k + 1]
    return (ups[k] >= 0) + np.bincount(children[children >= 0], minlength=ups[k].size)


class FiniteSubtree:
    """A nonempty, connected (hence geodesically closed) finite vertex set.

    `levels[k]` holds the sorted address indices of the depth-k vertices
    and `valencies[k]` the valency within the set of each of them, in the
    same order.  `vertices`, the frozenset of addresses, is the listed set
    for a subtree built from vertices, and is built from `levels` on first
    use for one built from level arrays.
    """

    # _shell: per depth, the vertices a closed neighbourhood added last, or
    #   None; every other vertex has all its neighbours in the set
    # _orbits: measure's orbit scan and partition, unset until first use
    __slots__ = ("params", "levels", "valencies", "_vertices", "_shell", "_orbits")

    def __init__(self, params: TreeParams, vertices: Iterable[Address]):
        verts = frozenset(tuple(v) for v in vertices)
        if not verts:
            raise SubtreeError("a subtree needs at least one vertex")
        by_depth: dict[int, list[int]] = {}
        for v in verts:
            check_address(params, v)
            # int(): numpy letters would index in their own type and wrap
            by_depth.setdefault(len(v), []).append(index_unchecked(params.q, map(int, v)))
        levels = tuple(
            np.array(sorted(by_depth.get(k, ())), dtype=_index_dtype(params.q, k))
            for k in range(max(by_depth) + 1)
        )
        ups = [_uplinks(params, levels, k) for k in range(len(levels) + 1)]
        # each component has exactly one vertex that is the basepoint or
        # whose parent lies outside the set
        if sum(int(np.count_nonzero(up < 0)) for up in ups) != 1:
            raise SubtreeError("vertex set is not connected")
        self.params = params
        self._vertices = verts
        self._shell = None
        self.levels = levels
        self.valencies = tuple(_valency(ups, k) for k in range(len(levels)))

    @classmethod
    def _grown(
        cls, tree: "FiniteSubtree", levels: tuple[np.ndarray, ...], shell: tuple[np.ndarray, ...]
    ) -> "FiniteSubtree":
        """The subtree with these level arrays, grown from `tree` by adding
        the vertices of `shell`.  A level that did not change must be the
        very array of `tree`: valency k is taken over from `tree` when
        levels k-1, k and k+1 all are, and computed otherwise."""
        old, n = tree.levels, len(levels)
        kept = [k < len(old) and levels[k] is old[k] for k in range(n)] + [n == len(old)]
        stale = {k for k in range(n) if not (kept[k] and kept[k + 1] and (k == 0 or kept[k - 1]))}
        ups = {j: _uplinks(tree.params, levels, j) for j in stale | {k + 1 for k in stale}}
        valencies = tuple(
            _valency(ups, k) if k in stale else tree.valencies[k] for k in range(n)
        )
        out = cls.__new__(cls)
        out.params = tree.params
        out._vertices = None
        out._shell = shell
        out.levels = levels
        out.valencies = valencies
        return out

    @property
    def vertices(self) -> frozenset[Address]:
        if self._vertices is None:
            self._vertices = frozenset(
                tuple(row)
                for k, idx in enumerate(self.levels)
                for row in _letters(self.params, k, idx).tolist()
            )
        return self._vertices

    def __contains__(self, addr: Address) -> bool:
        return addr in self.vertices

    def __len__(self) -> int:
        return sum(idx.size for idx in self.levels)

    def __iter__(self) -> Iterator[Address]:
        return iter(sorted(self.vertices))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteSubtree)
            and self.params == other.params
            and self.vertices == other.vertices
        )

    def __hash__(self) -> int:
        return hash((self.params, self.vertices))

    def __repr__(self) -> str:
        return f"FiniteSubtree({sorted(format_address(v) for v in self.vertices)})"


def _open_depths(tree: FiniteSubtree) -> list[int]:
    """The depths that can hold a vertex of valency below q+1: where the
    last shell lies, or every depth of a subtree built from vertices."""
    if tree._shell is None:
        return list(range(len(tree.levels)))
    return [k for k, idx in enumerate(tree._shell) if idx.size]


def is_complete(tree: FiniteSubtree) -> bool:
    """True iff every vertex is a leaf of S (valency <= 1) or has full
    valency q+1 within S.

    Single vertices, single edges, and balls are complete; a path of length
    two is not, since its middle vertex has valency 2.  Only the depths of
    `_open_depths` are read: every other vertex is full.
    """
    full = tree.params.q + 1
    val = tree.valencies
    return all(((val[k] == full) | (val[k] <= 1)).all() for k in _open_depths(tree))


def closed_neighborhood(tree: FiniteSubtree, radius: int) -> FiniteSubtree:
    """All vertices within the given distance of S.  Always complete.

    Grows S one shell at a time, starting from the shell S itself carries
    when it is a closed neighbourhood (every other vertex of S already has
    all its neighbours inside), or from all of S when it was built from
    vertices.  The parent of every vertex but the top one (the basepoint,
    or the one vertex whose parent lies outside) is already in the set,
    so a shell reaches a depth with one sorted array of distinct indices:
    the children of the shell one depth up, or the parent of the top
    vertex.  Into an empty level that array goes as it is, and it is all
    shell.  Into an old level, one stable sort of the old level followed
    by the reach keeps each value's first copy: that is the new level, and
    since the old level comes first, the first copies that come from the
    reach are the next shell.  A level the reach adds nothing to stays the
    same array, and the result keeps the valencies of `tree` wherever a
    level and its two neighbours stayed (`FiniteSubtree._grown`); it
    carries its last shell for the next call.  Object-dtype levels sort as
    Python integers.
    """
    if not isinstance(radius, (int, np.integer)):
        raise ConfigError(f"radius must be an integer, got {radius!r}")
    if radius < 0:
        raise ConfigError("radius must be nonnegative")
    params = tree.params
    cap = params.depth_cap
    current = list(tree.levels)
    frontier = list(tree.levels if tree._shell is None else tree._shell)
    for _ in range(radius):
        if len(frontier) > cap and frontier[cap].size:
            raise DepthBudgetError(f"{radius}-neighborhood would pass depth cap {cap}")
        reach = {k + 1: _child_indices(params, k, idx) for k, idx in enumerate(frontier) if idx.size}
        top = next(k for k, idx in enumerate(current) if idx.size)
        if top:
            reach[top - 1] = _parent_indices(params, top, current[top])
        current.append(_empty_level(params, len(current)))
        frontier = [_empty_level(params, k) for k in range(len(current))]
        for k, idx in reach.items():
            if not current[k].size:
                current[k] = frontier[k] = idx
                continue
            both = np.concatenate([current[k], idx])
            order = np.argsort(both, kind="stable")
            both = both[order]
            first = np.ones(both.size, dtype=bool)
            first[1:] = both[1:] != both[:-1]
            frontier[k] = both[first & (order >= current[k].size)]
            if frontier[k].size:
                current[k] = both[first]
    return FiniteSubtree._grown(tree, tuple(current), tuple(frontier))
