"""Brute-force reference computations used to pin expected values.

Everything here works by explicit enumeration over a finite ball of the
tree, independent of the package's formulas: adjacency comes from the
parent relation alone, distances from breadth-first search, boundary
measures and lexicographic indices from counting, connectivity and
neighbourhoods from breadth-first search, refinements from testing every
address, a complement's horofunction increment from its maximal
cylinders one by one.  Only the cell types and `canonicalize` come from the package.  The
non-enumerations are phi through an atan2 square root cut along the
nonnegative reals, a second route to the package's principal root, and
per-label means summed by np.add.at, the route the stabilizer average
took before it used np.bincount.
"""

import cmath
import functools
import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np

from treerep.errors import BranchCutError, DepthBudgetError, RefinementError
from treerep.measure import Cylinder, Halftree, canonicalize


def ball_vertices(q: int, depth: int) -> list[tuple[int, ...]]:
    out = [()]
    for k in range(1, depth + 1):
        ranges = [range(1, q + 2)] + [range(1, q + 1)] * (k - 1)
        out.extend(itertools.product(*ranges))
    return out


@functools.lru_cache(maxsize=8)  # cached results are shared: read them, never change them
def adjacency(q: int, depth: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    verts = ball_vertices(q, depth)
    nbrs = {v: [] for v in verts}
    for v in verts:
        if v:
            nbrs[v].append(v[:-1])
            nbrs[v[:-1]].append(v)
    return nbrs


@functools.lru_cache(maxsize=32)
def bfs_distances(q: int, depth: int, src: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    nbrs = adjacency(q, depth)
    dist = {src: 0}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for w in nbrs[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def deep_extensions(q: int, base: tuple[int, ...], levels: int):
    """All vertices `levels` below `base`; proxies for ends through cyl(base)."""
    if not base and levels > 0:
        first = [range(1, q + 2)] + [range(1, q + 1)] * (levels - 1)
        return [tuple(t) for t in itertools.product(*first)]
    ranges = [range(1, q + 1)] * levels
    return [base + tuple(t) for t in itertools.product(*ranges)]


@functools.lru_cache(maxsize=None)
def busemann_oracle(q, base, x, y, levels=2):
    """Horofunction increment on cyl(base), or None if not constant there.

    Evaluates d(x, z) - d(y, z) at every proxy z two levels below the
    base; the increment has stabilized for an end iff the proxy values
    agree across all of them.
    """
    depth = max(len(base) + levels, len(x), len(y))
    dx = bfs_distances(q, depth, x)
    dy = bfs_distances(q, depth, y)
    vals = {dx[z] - dy[z] for z in deep_extensions(q, base, levels)}
    if len(vals) != 1:
        return None
    return next(iter(vals))


def complement_pieces(q: int, excluded: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Bases of the maximal cylinders covering everything outside
    cyl(excluded): the siblings of each of its prefixes."""
    pieces = []
    for k in range(len(excluded)):
        for letter in range(1, (q + 1 if k == 0 else q) + 1):
            if letter != excluded[k]:
                pieces.append(excluded[:k] + (letter,))
    return pieces


def complement_busemann_oracle(q, excluded, y):
    """Horofunction increment from the basepoint to y on the complement of
    cyl(excluded), or None if not constant there: the increment must be
    constant on every piece and the same on all of them."""
    vals = {busemann_oracle(q, piece, (), y) for piece in complement_pieces(q, excluded)}
    if len(vals) != 1 or None in vals:
        return None
    return next(iter(vals))


def sqrt_cut(w: complex) -> complex:
    """sqrt with branch cut on the nonnegative real axis, argument in
    (0, 2pi), from atan2; BranchCutError on the cut."""
    if w.imag == 0.0 and w.real >= 0.0:
        raise BranchCutError(f"argument {w} lies on the branch cut")
    theta = math.atan2(w.imag, w.real)
    if theta <= 0.0:
        theta += 2.0 * math.pi
    return math.sqrt(abs(w)) * cmath.exp(0.5j * theta)


def phi_cut_oracle(z: complex, q: int) -> complex:
    """phi(z) = (z + sqrt(z^2 - 4q)) / 2 with the cut square root."""
    return (z + sqrt_cut(z * z - 4 * q)) / 2.0


def cylinder_count(q: int, depth: int) -> int:
    return (q + 1) * q ** (depth - 1) if depth else 1


def lex_index(q: int, addr: tuple[int, ...]) -> int:
    """Rank of addr among the addresses of its depth in lexicographic
    order: the number of addresses that share a prefix with it and then
    take a smaller letter, each followed by any completion."""
    depth = len(addr)
    return sum((letter - 1) * q ** (depth - j - 1) for j, letter in enumerate(addr))


def uniform_cell_measure(q: int, depth: int) -> Fraction:
    return Fraction(1, cylinder_count(q, depth))


def pushforward_measure(g, c_base: tuple[int, ...], depth: int) -> Fraction:
    """mu(g^{-1} . cyl(c_base)) by summing the depth-`depth` cylinders
    whose image under g lands inside cyl(c_base).

    `depth` must exceed len(c_base) + displacement of g so that each
    cylinder maps onto a single cylinder.
    """
    q = g.params.q
    total = Fraction(0)
    for w in deep_extensions(q, (), depth):
        img = g.apply_vertex(w)
        if img[: len(c_base)] == c_base:
            total += uniform_cell_measure(q, depth)
    return total


def tree_neighbors(q: int, v: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Neighbours in the infinite (q+1)-regular tree, from the word model."""
    out = [v[:-1]] if v else []
    out.extend(v + (letter,) for letter in range(1, (q if v else q + 1) + 1))
    return out


def component_count(q: int, verts) -> int:
    """Connected components of the induced subgraph, by repeated BFS."""
    verts = set(verts)
    seen = set()
    count = 0
    for start in verts:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in tree_neighbors(q, v):
                if w in verts and w not in seen:
                    seen.add(w)
                    queue.append(w)
    return count


def neighborhood(q: int, verts, radius: int) -> set[tuple[int, ...]]:
    """Every vertex within `radius` of the set, by multi-source BFS."""
    dist = {v: 0 for v in verts}
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        if dist[v] == radius:
            continue
        for w in tree_neighbors(q, v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return set(dist)


def refine_to_depth(params, cell, depth: int):
    """The cell as the sorted list of depth-`depth` cylinders inside it,
    found by testing every depth-`depth` address for membership."""
    if depth > params.depth_cap:
        raise DepthBudgetError(f"refinement depth {depth} exceeds cap {params.depth_cap}")
    cell = canonicalize(params, cell)
    inside = isinstance(cell, Cylinder)
    base = cell.base if inside else cell.tail
    if depth < len(base):
        raise RefinementError(f"cell needs depth {len(base)}, got {depth}")
    level = [v for v in ball_vertices(params.q, depth) if len(v) == depth]
    return [Cylinder(v) for v in sorted(level) if (v[: len(base)] == base) == inside]


def orbit_cells_per_vertex(tree):
    """Orbit cells vertex by vertex: for each vertex of valency below q+1
    in tuple order, the half-tree leaving it away from its one neighbour
    inside, canonicalized."""
    q = tree.params.q
    if len(tree) == 1:
        return [Cylinder(())]
    cells = []
    for b in sorted(tree.vertices):
        inside = [w for w in tree_neighbors(q, b) if w in tree.vertices]
        if len(inside) < q + 1:
            (s,) = inside
            cells.append(canonicalize(tree.params, Halftree(s, b)))
    return cells


def add_at_mean(labels: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Every row replaced by the mean of the rows sharing its label, the
    sums accumulated row by row with np.add.at."""
    count = int(labels.max()) + 1
    sums = np.zeros((count, values.shape[1]), dtype=np.complex128)
    np.add.at(sums, labels, values)
    return (sums / np.bincount(labels, minlength=count)[:, None])[labels]


def edge_inversion_image(v: tuple[int, ...]) -> tuple[int, ...]:
    """The edge inversion's rule: (1, a2, ...) -> (a2 + 1, ...), (1,) -> (),
    and (a1, ...) -> (1, a1 - 1, ...) otherwise, () included."""
    if v[:1] == (1,):
        return (v[1] + 1,) + v[2:] if len(v) > 1 else ()
    return (1, v[0] - 1) + v[1:] if v else (1,)


def step_translation_image(v: tuple[int, ...], inverted: bool = False) -> tuple[int, ...]:
    """The step translation's closed form: swap the first letter 1 <-> 2,
    then invert the edge; the inverse inverts the edge first, then swaps."""

    def swap(w):
        return ({1: 2, 2: 1}.get(w[0], w[0]),) + w[1:] if w else w

    return swap(edge_inversion_image(v)) if inverted else edge_inversion_image(swap(v))
