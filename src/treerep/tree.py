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
those arrays, so a closed neighbourhood costs at most one stable sort per
old level its shell reaches, not one Python step per vertex; a ball's
radius step sorts nothing.  Every subtree carries a shell, the vertices
that may lack a neighbour inside it: all of them when it is built from
vertices, the ones it added last when it is a closed neighbourhood.  The next
neighbourhood grows from the shell alone, and completeness and the orbit
scan read only its depths.  Geodesics are unique, so a vertex at distance
j >= 1 from a connected S has one neighbour at distance j-1 and the rest
at j+1: in N_r(S), r >= 1, the last shell has valency 1 and every other
vertex q+1, with no search.  Growing a ball by one therefore costs what
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
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    CylinderTooShallowError,
    DepthBudgetError,
    MalformedAddressError,
    SubtreeError,
    _expect,
    _integer,
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
        # numpy integers are stored as int, so equal parameters hash and
        # serialize alike
        object.__setattr__(self, "q", _integer(self.q, "q", 2))
        object.__setattr__(self, "depth_cap", _integer(self.depth_cap, "depth_cap", 1))

    def letter_range(self, position: int) -> range:
        """Valid letters at a given position (0-based) of an address."""
        return range(1, self.q + 2) if position == 0 else range(1, self.q + 1)


def check_address(params: TreeParams, addr: Address, *, allow_deep: bool = False) -> Address:
    """Validate params, letter ranges and (unless allow_deep) the depth cap."""
    _expect(params, TreeParams, "a TreeParams")
    _expect(addr, tuple, "an address as a tuple of letters", MalformedAddressError)
    for i, letter in enumerate(addr):
        # `_integer`'s rule, inline: this loop runs for every letter of
        # every address checked
        if type(letter) is not int and not isinstance(letter, np.integer):
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
    if not _expect(addr, tuple, "an address as a tuple of letters", MalformedAddressError):
        raise MalformedAddressError("the basepoint has no parent")
    return addr[:-1]


def neighbors(params: TreeParams, addr: Address) -> list[Address]:
    """The parent (unless addr is the basepoint), then the children in order."""
    check_address(params, addr, allow_deep=True)
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


def n_addresses(params: TreeParams, depth: int) -> int:
    """The number of depth-`depth` addresses.  `params` is not checked:
    this runs thousands of times a verify pass, and every caller has
    checked its params already."""
    depth = _integer(depth, "depth")
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
    column-major, sorted.  `params`, and a depth the cache cannot hash,
    are not checked: pi_apply calls this once a call, and it and
    addresses_at_depth check both first."""
    if _integer(depth, "depth") > params.depth_cap:
        raise DepthBudgetError(f"depth {depth} exceeds cap {params.depth_cap}")
    out = _letters(params, depth, np.arange(n_addresses(params, depth))).astype(np.int16)
    out.setflags(write=False)
    return out


def addresses_at_depth(params: TreeParams, depth: int) -> list[Address]:
    # both checked before letter_matrix's cache hashes them
    _expect(params, TreeParams, "a TreeParams")
    return list(map(tuple, letter_matrix(params, _integer(depth, "depth")).tolist()))


def index_unchecked(q: int, addr: Address) -> int:
    """Index of a valid address, of any depth, among the sorted addresses of its depth."""
    idx = 0
    for letter in addr:
        idx = idx * q + (letter - 1)
    return idx


def address_from_index(params: TreeParams, depth: int, idx: int) -> Address:
    _expect(params, TreeParams, "a TreeParams")
    if not 0 <= _integer(idx, "index", None, MalformedAddressError) < n_addresses(params, depth):
        raise MalformedAddressError(f"index {idx} out of range at depth {depth}")
    idx = np.array([idx], dtype=_index_dtype(params.q, depth))
    return tuple(_letters(params, depth, idx)[0].tolist())


def prefix_indices(params: TreeParams, letters: np.ndarray, lengths: np.ndarray, m: int) -> np.ndarray:
    """Vectorized index_unchecked of the depth-m prefix of every row.

    `letters` is an (n, width) matrix, `m` a depth of at most width, and
    `lengths` holds one length per row, each >= m.  The result has
    `_index_dtype`'s dtype for depth m: int64, or Python integers where
    the depth outgrows it.
    """
    m = _integer(m, "depth")
    if np.ndim(letters) != 2 or m > letters.shape[1]:
        raise MalformedAddressError(
            f"letters must be an (n, width) matrix with width >= {m}, got shape {np.shape(letters)}"
        )
    if np.shape(lengths) != letters.shape[:1]:
        raise MalformedAddressError(
            f"lengths must be {letters.shape[0]} integers, got shape {np.shape(lengths)}"
        )
    if not m:
        return np.zeros(letters.shape[0], dtype=np.int64)
    if (np.asarray(lengths) < m).any():
        raise MalformedAddressError(f"a row is shorter than the requested prefix length {m}")
    # the first letter a is index a - 1; each further one is a fold
    idx = letters[:, 0].astype(_index_dtype(params.q, m))
    idx -= 1
    for j in range(1, m):
        _fold(idx, letters[:, j], params.q)
    return idx


def _fold(idx: np.ndarray, column: np.ndarray, q: int) -> None:
    """Move prefix indices on by one letter column, in place: the index of
    a[:j + 1] is q times that of a[:j], plus a[j] - 1 (depth 0 is index 0,
    so a first letter a gives a - 1)."""
    idx *= q
    idx += column
    idx -= 1


# ---------------------------------------------------------------------------
# finite subtrees
#
# In index terms the parent of i at depth k >= 2 is i // q, every depth-1
# vertex hangs off the basepoint, and the children of i are i q + 0..q-1
# (those of the basepoint 0..q).  Indices are int64 wherever a whole level
# fits in it; deeper levels hold Python integers, which do not wrap.
# Vertex lists are checked, indexed and counted one vertex at a time (they
# are small: a basepoint, an edge, a pruned ball): a vertex's valency is 1
# for a parent in the set plus its children, counted with one Counter of
# parents; derived subtrees such as closed neighbourhoods come from valid
# level arrays through `FiniteSubtree._grown`.
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


class FiniteSubtree:
    """A nonempty, connected (hence geodesically closed) finite vertex set.

    `levels[k]` holds the sorted address indices of the depth-k vertices
    and `valencies[k]` the valency within the set of each of them, in the
    same order.  `vertices`, the frozenset of addresses, is the listed set
    for a subtree built from vertices, and is built from `levels` on first
    use for one built from level arrays.
    """

    # _shell: per depth, the vertices that may lack a neighbour in the set:
    #   all of them, or the ones a closed neighbourhood added last
    # _orbits: measure's orbit scan and partition, unset until first use
    __slots__ = ("params", "levels", "valencies", "_vertices", "_shell", "_orbits")

    def __init__(self, params: TreeParams, vertices: Iterable[Address]):
        # each vertex is checked before anything hashes or compares its letters
        verts = frozenset(
            check_address(params, tuple(_expect(v, Iterable, "an address", MalformedAddressError)))
            for v in _expect(vertices, Iterable, "an iterable of addresses", SubtreeError)
        )
        if not verts:
            raise SubtreeError("a subtree needs at least one vertex")
        # each component has exactly one vertex that is the basepoint or
        # whose parent lies outside the set
        if sum(not v or v[:-1] not in verts for v in verts) != 1:
            raise SubtreeError("vertex set is not connected")
        children = Counter(v[:-1] for v in verts if v)
        rows: list[list[tuple[int, int]]] = [[] for _ in range(max(map(len, verts)) + 1)]
        for v in verts:
            up = bool(v) and v[:-1] in verts
            # int(): numpy letters would index in their own type and wrap
            rows[len(v)].append((index_unchecked(params.q, map(int, v)), up + children[v]))
        for row in rows:
            row.sort()
        self.params = params
        self._vertices = verts
        self._shell = self.levels = tuple(
            np.array([i for i, _ in row], dtype=_index_dtype(params.q, k)) for k, row in enumerate(rows)
        )
        self.valencies = tuple(np.array([n for _, n in row], dtype=np.int64) for row in rows)

    @classmethod
    def _grown(cls, tree: "FiniteSubtree", levels: tuple, shell: tuple, added: dict):
        """N_r(tree), r >= 1, from its levels and last shell; `added[k]` marks
        the vertices the last radius step added to level k.  Geodesics are
        unique, so a vertex at distance j >= 1 from the connected `tree` has
        one neighbour at distance j-1 and the rest at j+1: the last shell has
        valency 1 and every other vertex q+1.  A level that is `tree`'s own
        array and held none of its shell keeps `tree`'s valencies, all q+1."""
        full = tree.params.q + 1
        old = tree.levels
        out = cls.__new__(cls)
        out.params = tree.params
        out._vertices = None
        out._shell = shell
        out.levels = levels
        out.valencies = tuple(
            np.where(added[k], 1, full)
            if k in added
            else tree.valencies[k]
            if k < len(old) and level is old[k] and not tree._shell[k].size
            else np.full(level.size, full)
            for k, level in enumerate(levels)
        )
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
    subtree's shell lies, every nonempty depth of one built from vertices."""
    return [k for k, idx in enumerate(tree._shell) if idx.size]


def is_complete(tree: FiniteSubtree) -> bool:
    """True iff every vertex is a leaf of S (valency <= 1) or has full
    valency q+1 within S.

    Single vertices, single edges, and balls are complete; a path of length
    two is not, since its middle vertex has valency 2.  Only the depths of
    `_open_depths` are read: every other vertex is full.
    """
    _expect(tree, FiniteSubtree, "a FiniteSubtree", SubtreeError)
    full = tree.params.q + 1
    val = tree.valencies
    return all(((val[k] == full) | (val[k] <= 1)).all() for k in _open_depths(tree))


def closed_neighborhood(tree: FiniteSubtree, radius: int) -> FiniteSubtree:
    """All vertices within the given distance of S.  Always complete.

    Radius 0 returns S itself.  Otherwise S grows one shell at a time,
    from the shell S carries: all of S when it was built from vertices,
    the shell it added last when it is a closed neighbourhood (every other
    vertex of S already has all its neighbours inside).  The parent of
    every vertex but the top one (the basepoint, or the one vertex whose
    parent lies outside) is in the set, so a shell reaches a depth with one
    sorted array of distinct indices: the children of the shell one depth
    up, or the parent of the top vertex.  Into an empty level that array
    goes as it is, and it is all shell.  Into an old level, one stable sort
    of the old level followed by the reach keeps each value's first copy:
    that is the new level, and since the old level comes first, the first
    copies that come from the reach are the next shell.  A level the reach
    adds nothing to stays the same array.  The last shell has valency 1
    and every other vertex q+1, since a vertex at distance j >= 1 from S
    has one neighbour at distance j-1 and the rest at j+1
    (`FiniteSubtree._grown`).  The result carries its last shell for the
    next call.  Object-dtype levels sort as Python integers.
    """
    _expect(tree, FiniteSubtree, "a FiniteSubtree", SubtreeError)
    if not _integer(radius, "radius"):
        return tree
    params = tree.params
    cap = params.depth_cap
    current = list(tree.levels)
    frontier = list(tree._shell)
    for _ in range(radius):
        if len(frontier) > cap and frontier[cap].size:
            raise DepthBudgetError(f"{radius}-neighborhood would pass depth cap {cap}")
        reach = {k + 1: _child_indices(params, k, idx) for k, idx in enumerate(frontier) if idx.size}
        top = next(k for k, idx in enumerate(current) if idx.size)
        if top:
            reach[top - 1] = _parent_indices(params, top, current[top])
        current.append(_empty_level(params, len(current)))
        frontier = [_empty_level(params, k) for k in range(len(current))]
        added = {}
        for k, idx in reach.items():
            if not current[k].size:
                current[k] = frontier[k] = idx
                added[k] = np.ones(idx.size, dtype=bool)
                continue
            both = np.concatenate([current[k], idx])
            order = np.argsort(both, kind="stable")
            both = both[order]
            first = np.ones(both.size, dtype=bool)
            first[1:] = both[1:] != both[:-1]
            fresh = first & (order >= current[k].size)
            frontier[k] = both[fresh]
            if frontier[k].size:
                current[k] = both[first]
                added[k] = fresh[first]
    return FiniteSubtree._grown(tree, tuple(current), tuple(frontier), added)
