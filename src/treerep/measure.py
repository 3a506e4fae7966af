"""Exact measure theory on the boundary of the rooted tree.

Ends are infinite address words.  The reference measure charges the
cylinder below a depth-k vertex with 1/((q+1) q^(k-1)): one uniform
factor per letter.  Everything here is exact rational arithmetic; no
floats enter until the representation layer multiplies cell values by
matrices.

Two cell shapes cover all sets the verification needs.  A cylinder is
the set of ends through one vertex.  A half-tree is the set of ends on
one side of an oriented edge; when the edge points away from the
basepoint it collapses to a cylinder, and when it points toward the
basepoint it is the complement of one.  `canonicalize` normalizes to
these two cases, after which measures, refinements and index ranges are
a few lines each.

The boundary action of an automorphism distorts the measure by an exact
power of q.  `rn_cocycle(g, c)` returns that power on a cell c deep
enough for the distortion to be constant on it, and the companion
`map_cell` computes images of cells so the change-of-variables identity

    measure(g^-1 . c) = rn_cocycle(g, c) * measure(c)

can be asserted with exact equality.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .automorphism import TreeAutomorphism
from .errors import (
    CylinderTooShallowError,
    DepthBudgetError,
    MalformedAddressError,
    NotCompleteError,
    PartitionError,
    PruningError,
    RefinementError,
    SubtreeError,
    _expect,
)
from .tree import (
    ROOT,
    Address,
    FiniteSubtree,
    TreeParams,
    _index_dtype,
    _open_depths,
    address_from_index,
    busemann_on_cylinder,
    check_address,
    format_address,
    index_unchecked,
    is_complete,
    n_addresses,
    neighbors,
    parent,
)


@dataclass(frozen=True)
class Cylinder:
    """Ends whose word starts with `base`; base = root means the whole boundary."""

    base: Address

    def to_json_obj(self) -> dict:
        return {"kind": "cylinder", "base": format_address(self.base)}


@dataclass(frozen=True)
class Halftree:
    """Ends beyond `head`, away from the adjacent vertex `tail`."""

    tail: Address
    head: Address

    def to_json_obj(self) -> dict:
        return {"kind": "halftree", "from": format_address(self.tail), "to": format_address(self.head)}


EndCell = Cylinder | Halftree


def canonicalize(params: TreeParams, cell: EndCell) -> EndCell:
    """Collapse a half-tree pointing away from the basepoint to a cylinder.

    The surviving half-tree shape always points toward the basepoint,
    i.e. describes the complement of the cylinder at its tail.  Anything
    but a Cylinder or a Halftree raises MalformedAddressError.
    """
    _expect(cell, (Cylinder, Halftree), "a Cylinder or Halftree", MalformedAddressError)
    if isinstance(cell, Cylinder):
        check_address(params, cell.base, allow_deep=True)
        return cell
    check_address(params, cell.tail, allow_deep=True)
    check_address(params, cell.head, allow_deep=True)
    if cell.head != ROOT and parent(cell.head) == cell.tail:
        return Cylinder(cell.head)
    if cell.tail != ROOT and parent(cell.tail) == cell.head:
        return cell
    raise MalformedAddressError(
        f"half-tree endpoints {format_address(cell.tail)}, {format_address(cell.head)} "
        "are not adjacent"
    )


def _anchor(cell: EndCell) -> Address:
    # a canonical cell is the cylinder at this vertex or its complement
    return cell.base if isinstance(cell, Cylinder) else cell.tail


def min_expressible_depth(params: TreeParams, cell: EndCell) -> int:
    """Smallest m at which the cell is a union of depth-m cylinders."""
    return len(_anchor(canonicalize(params, cell)))


def cell_measure(params: TreeParams, cell: EndCell) -> Fraction:
    cell = canonicalize(params, cell)
    if isinstance(cell, Cylinder):
        k = len(cell.base)
        if k == 0:
            return Fraction(1)
        return Fraction(1, (params.q + 1) * params.q ** (k - 1))
    return 1 - cell_measure(params, Cylinder(cell.tail))


def cell_index_ranges(params: TreeParams, cell: EndCell, depth: int) -> list[tuple[int, int]]:
    """The cell as index ranges into the lexicographic depth-`depth` grid.

    A cylinder is one contiguous block; a complement is at most two.
    """
    cell = canonicalize(params, cell)
    u = _anchor(cell)
    total = n_addresses(params, depth)  # checks the depth before it is compared
    if depth < len(u):
        raise RefinementError(
            f"cell needs depth {len(u)} but an index view at depth {depth} was requested"
        )
    if depth > params.depth_cap:
        raise DepthBudgetError(f"address depth {depth} exceeds cap {params.depth_cap}")
    if not u:
        return [(0, total)]
    size = params.q ** (depth - len(u))
    start = index_unchecked(params.q, u) * size
    stop = start + size
    if isinstance(cell, Cylinder):
        return [(start, stop)]
    out = []
    if start > 0:
        out.append((0, start))
    if stop < total:
        out.append((stop, total))
    return out


def _label_grid_size(params: TreeParams, depth: int) -> int:
    """The number of depth-`depth` cylinders, refused (DepthBudgetError)
    where int64 labels and index ranges cannot count them."""
    total = n_addresses(params, depth)
    if _index_dtype(params.q, depth) is object:
        raise DepthBudgetError(
            f"a label grid of the {total} depth-{depth} cylinders at q={params.q} "
            f"outgrows int64 indices"
        )
    return total


def assert_partition(
    params: TreeParams, cells: list[EndCell], depth: int | None = None
) -> np.ndarray:
    """Label every depth-`depth` cylinder with the cell that contains it.

    Returns an int64 array with one entry per depth-`depth` cylinder, in
    lexicographic order; entry i is j when cylinder i lies in cells[j].
    Raises PartitionError unless the cells tile the boundary exactly once.
    `depth` defaults to the smallest depth that expresses every cell; a
    grid too large for int64 indices raises DepthBudgetError.  `cells`
    is a list or tuple; anything else is a MalformedAddressError, as a
    malformed cell is.
    """
    _expect(params, TreeParams, "a TreeParams")
    _expect(cells, (list, tuple), "a list of cells", MalformedAddressError)
    if depth is None:
        depth = max((min_expressible_depth(params, c) for c in cells), default=0)
    _label_grid_size(params, depth)
    ranges = np.array(
        [(a, b, j) for j, c in enumerate(cells) for a, b in cell_index_ranges(params, c, depth)],
        dtype=np.int64,
    ).reshape(-1, 3)
    return _tile_labels(params, ranges[np.argsort(ranges[:, 0], kind="stable")], depth)


def _tile_labels(params: TreeParams, ranges: np.ndarray, depth: int) -> np.ndarray:
    """Labels of the (start, stop, owner) rows of `ranges`, in start order:
    each owner repeated over its range, after `_check_tiling`."""
    starts, stops, owners = ranges.T
    _check_tiling(params, starts, stops, owners, depth)
    return np.repeat(owners, stops - starts)


def _check_tiling(
    params: TreeParams, starts: np.ndarray, stops: np.ndarray, owners: np.ndarray, depth: int
) -> None:
    """Raise PartitionError unless the ranges [starts[i], stops[i]) of
    cells owners[i], in start order, tile the depth-`depth` grid once: the
    first starts at 0, each one where the one before it stops, and the
    last at the grid size."""
    (off,) = np.nonzero(starts[1:] != stops[:-1])
    if off.size and starts[off[0] + 1] < stops[off[0]]:
        i = off[0] + 1
        raise PartitionError(
            f"cell {owners[i]} overlaps cell {owners[i - 1]} on index range "
            f"[{starts[i]}, {min(stops[i], stops[i - 1])})"
        )
    total = n_addresses(params, depth)
    if off.size or not starts.size or starts[0] != 0 or stops[-1] != total:
        raise PartitionError(f"cells leave a gap in the {total} depth-{depth} cylinders")


# -- stabilizer orbits --------------------------------------------------------
#
# The pointwise stabilizer of a complete subtree has one boundary orbit per
# vertex of valency below q+1: the ends leaving the subtree through it.  A
# leaf whose parent lies inside gives the cylinder at the leaf.  The top
# vertex (the basepoint, or the one vertex whose parent lies outside) is a
# leaf unless it is a full basepoint; its one neighbour inside is then its
# child, and its orbit is the complement of that child's cylinder.  So the
# orbits are read off the levels as anchors, one (depth, index) vertex per
# cell, and become index ranges or cell objects only on request.  Only the
# depths where the subtree's shell lies can hold a vertex below full valency
# (`tree._open_depths`), so the completeness check and the leaf scan read
# those levels alone: one level for a ball, whose leaves are then already in
# range order.  No level is copied and no partition sorted: the scan lists
# the cylinders in range order, and a complement's two sides go around them.
# A ball's cells are all its depth-r cylinders, one per index, so its labels
# are the positions of its scan, with no range table to build.


def _neighbors_in(sub: FiniteSubtree, b: Address) -> list[Address]:
    return [v for v in neighbors(sub.params, b) if v in sub]


def _scan_orbit_anchors(tree: FiniteSubtree) -> tuple[int, np.ndarray, np.ndarray, bool]:
    """The orbit cells of a complete subtree as anchors, from its levels.

    Returns (depth, ks, idx, complement): cell j is the cylinder at the
    depth-ks[j] vertex with index idx[j], except that cell 0 is the
    complement of that cylinder when `complement` is set, and `depth` is
    the smallest depth that expresses every cell.  The cells come in the
    order of `orbit_cells`: the complement first, then the cylinders by
    where their index ranges start.
    """
    if not is_complete(tree):
        raise NotCompleteError(
            "orbit cells exist only for complete subtrees (every vertex a leaf or full)"
        )
    levels, valencies, q = tree.levels, tree.valencies, tree.params.q
    if len(tree) == 1:
        return 0, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), False
    depth = len(levels) - 1
    top = next(k for k, idx in enumerate(levels) if idx.size)
    complement = bool(valencies[top][0] == 1)
    # every leaf below the top is a cylinder; range starts at `depth` order them
    dtype = levels[depth].dtype
    depths = [k for k in _open_depths(tree) if k > top]
    leaves = [levels[k][valencies[k] < q + 1].astype(dtype, copy=False) for k in depths]
    ks = np.repeat(np.array(depths, dtype=np.int64), [a.size for a in leaves])
    if len(leaves) == 1:
        (idx,) = leaves
    else:
        idx = np.concatenate(leaves)
        order = np.argsort(
            np.concatenate([a * q ** (depth - k) for k, a in zip(depths, leaves)]),
            kind="stable",
        )
        ks, idx = ks[order], idx[order]
    if complement:
        ks = np.concatenate([[top + 1], ks])
        idx = np.concatenate([levels[top + 1][:1].astype(dtype), idx])
    return depth, ks, idx, complement


def _orbits(tree: FiniteSubtree) -> tuple[tuple, tuple | None]:
    """(anchors, partition), kept on the subtree instance in one slot.

    The anchors are `_scan_orbit_anchors`, run once per instance; the
    partition is `orbit_partition`'s value, None until first asked for.
    """
    memo = getattr(tree, "_orbits", None)
    if memo is None:
        memo = tree._orbits = (_scan_orbit_anchors(tree), None)
    return memo


def orbit_cells(tree: FiniteSubtree) -> list[EndCell]:
    """Orbits on the boundary of the pointwise stabilizer of a complete subtree.

    Each orbit is the set of ends leaving the subtree through one of its
    boundary vertices: the half-tree at that vertex pointing away from
    its unique neighbour inside, canonicalized.  A single-vertex subtree
    has the whole boundary as its one orbit.  The list is in label order
    (see `orbit_partition`).
    """
    params = _expect(tree, FiniteSubtree, "a FiniteSubtree", SubtreeError).params
    (_, ks, idx, complement), _ = _orbits(tree)
    anchors = [address_from_index(params, k, i) for k, i in zip(ks.tolist(), idx.tolist())]
    cells: list[EndCell] = [Cylinder(a) for a in anchors]
    if complement:
        cells[0] = Halftree(anchors[0], parent(anchors[0]))
    return cells


def orbit_partition(tree: FiniteSubtree) -> tuple[int, int, np.ndarray]:
    """The orbit cells of a complete subtree as one labelled partition.

    Returns (count, depth, labels): the number of orbit cells, the
    smallest depth that expresses all of them, and one read-only label
    per depth-`depth` cylinder, j for the j-th cell of `orbit_cells`.
    The labels come straight from the subtree's levels: a cylinder cell
    is one index range and the complement two, one on each side of the
    cylinders.  The ranges go through the tiling check in scan order, so
    cells that overlap, leave a gap or come out of order raise
    PartitionError.  When every cell is a depth-`depth` cylinder (every
    ball), cell j is the cylinder at idx[j]: the check reads idx as the
    range starts, and the labels are 0, 1, 2, ... with no range table.
    Computed once per subtree instance and kept on it, so every
    stabilizer average over the same subtree shares one scan and one
    validation; no cell object is built.  A grid too large for int64
    indices raises DepthBudgetError.
    """
    anchors, partition = _orbits(tree)
    if partition is None:
        params = tree.params
        depth, ks, idx, complement = anchors
        total = _label_grid_size(params, depth)
        owners = np.arange(ks.size)
        if not complement and (ks == depth).all():
            _check_tiling(params, idx, idx + 1, owners, depth)
            labels = owners
        else:
            size = params.q ** (depth - ks)
            starts = idx.astype(np.int64) * size
            ranges = np.stack([starts, starts + size, owners], axis=1)
            if complement:
                # the grid around the child's cylinder, which holds every
                # other cell; an empty side tiles nothing
                (a, b, _) = ranges[0]
                ranges = np.concatenate([[(0, a, 0)], ranges[1:], [(b, total, 0)]])
            labels = _tile_labels(params, ranges, depth)
        labels.flags.writeable = False
        partition = ks.size, depth, labels
        tree._orbits = (anchors, partition)
    return partition


def orbit_merge_under_pruning(
    tree: FiniteSubtree, pruned: FiniteSubtree
) -> dict[EndCell, EndCell]:
    """Surjection from the orbit cells of `tree` onto those of `pruned`.

    `pruned` must arise by deleting, around one full vertex v of `tree`,
    all of its neighbours except one; then the q cells at the deleted
    leaves merge into the new cell at v and every other cell is kept.
    """
    params = _expect(tree, FiniteSubtree, "a FiniteSubtree", SubtreeError).params
    if _expect(pruned, FiniteSubtree, "a FiniteSubtree", SubtreeError).params != params:
        raise PruningError("subtrees live over different tree parameters")
    removed = tree.vertices - pruned.vertices
    if not removed or not pruned.vertices <= tree.vertices:
        raise PruningError("pruned subtree must be a proper subset of the original")
    if not (is_complete(tree) and is_complete(pruned)):
        raise PruningError("both subtrees must be complete")

    def sole_neighbor(sub: FiniteSubtree, b: Address) -> Address:
        near = _neighbors_in(sub, b)
        if len(near) != 1:
            raise PruningError(f"{format_address(b)} is not a leaf of the larger subtree")
        return near[0]

    v = sole_neighbor(tree, min(removed))
    for b in sorted(removed):
        if sole_neighbor(tree, b) != v:
            raise PruningError("deleted vertices do not share a single interior vertex")
    if len(removed) != params.q or v not in pruned:
        raise PruningError(
            f"expected exactly q={params.q} deleted leaves around a kept vertex, "
            f"got {len(removed)}"
        )
    if len(_neighbors_in(tree, v)) != params.q + 1 or len(_neighbors_in(pruned, v)) != 1:
        raise PruningError("the pruning vertex must go from full valency to a leaf")

    # every kept leaf of `tree` is a leaf of `pruned` with the same neighbour,
    # so it keeps its cell; the cells at the deleted leaves go to the one at v
    after = {_exit_vertex(c): c for c in orbit_cells(pruned)}
    return {
        c: after[v if _exit_vertex(c) in removed else _exit_vertex(c)]
        for c in orbit_cells(tree)
    }


def _exit_vertex(cell: EndCell) -> Address:
    # the vertex an orbit cell's ends leave their subtree through
    return cell.base if isinstance(cell, Cylinder) else cell.head


# -- boundary action ----------------------------------------------------------


def map_cell(g: TreeAutomorphism, cell: EndCell) -> EndCell:
    """Image of a cell under the boundary action of g."""
    params = _expect(g, TreeAutomorphism, "a TreeAutomorphism").params
    cell = canonicalize(params, cell)
    if isinstance(cell, Cylinder):
        if not cell.base:
            return cell
        tail, head = parent(cell.base), cell.base
    else:
        tail, head = cell.tail, cell.head
    return canonicalize(params, Halftree(g.apply_vertex(tail), g.apply_vertex(head)))


def rn_cocycle(g: TreeAutomorphism, cell: EndCell) -> Fraction:
    """Measure distortion of g on a cell: the exact power q^b with b the
    horofunction increment from the basepoint to y = g(basepoint),
    constant on the cell.

    On a cylinder b is `busemann_on_cylinder`.  On the complement of the
    cylinder at t, b is constant only when y is the basepoint or t is the
    first letter of y, and is then -|y|: every end of the complement
    leaves the basepoint away from y.  Otherwise the complement holds ends
    that leave the basepoint toward y and ends that leave it away from y,
    and b differs between them.

    Defined only where that increment really is constant; a too-shallow
    cell raises CylinderTooShallowError and the caller should refine.
    The value is the density of the pushforward measure, so

        measure(g^-1 . c) = rn_cocycle(g, c) * measure(c)

    and the composition law reads
    rn_cocycle(g h, c) = rn_cocycle(g, c) * rn_cocycle(h, g^-1 . c).
    """
    params = _expect(g, TreeAutomorphism, "a TreeAutomorphism").params
    cell = canonicalize(params, cell)
    y = g.x0_image
    if isinstance(cell, Cylinder):
        b = busemann_on_cylinder(params, cell.base, y)
    elif y and cell.tail != y[:1]:
        raise CylinderTooShallowError(
            f"the increment toward {format_address(y)} is not constant on the complement "
            f"of cylinder {format_address(cell.tail)}; refine it"
        )
    else:
        b = -len(y)
    return Fraction(params.q) ** b

