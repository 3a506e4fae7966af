"""Boundary representation on vector-valued step functions.

A step function assigns a vector in C^d to every depth-m cylinder; the
array of values is kept dense in the lexicographic cylinder order, so a
cylinder is an index range and refinement is np.repeat.  All depth-m
cylinders carry equal measure, which turns integrals into row means and
keeps the rational bookkeeping implicit and exact.

The action of an automorphism g with basepoint displacement D sends a
resolution-m function to a resolution max(m+D, D+1) one:

    (pi(g) v)(end) = tau^{b} . v(g^{-1} end)

where b is the horofunction increment from the basepoint to g(basepoint),
constant on each output cylinder, and tau is the matrix produced by the
operator-calculus layer.  On each output cylinder u the increment is
2 |lcp(u, g x0)| - D and the lookup vertex is the depth-m prefix of
g^{-1} u; the resolution rule makes both well defined (every output
cylinder is strictly deeper than g x0, so its preimage is again a
cylinder, of depth at least m).  The cylinders with |lcp(u, g x0)| >= j
are the ones below the depth-j prefix of g x0, one index range, so the
D + 1 exponents sit on D + 1 nested ranges.  The input's own rows are
multiplied by each of the D + 1 tau powers into one table of D + 1 slots;
each output row counts the ranges that hold it to find its slot and is
taken from the table once.  The homomorphism property suite is the
empirical proof of this cylinder-level evaluation.

Averages over compact stabilizers are finite measure-weighted sums over
orbit cells (conditional means), never samples over group elements.  An
orbit partition is one integer label per cylinder (measure.assert_partition),
and the average is the per-label mean gathered back by label.  The
basepoint stabilizer is the pointwise stabilizer of the one-vertex subtree:
its one orbit is the whole boundary, and its average is the integral.
fixed_space_report returns a subtree's orbit count, the fixed dimension
per fiber coordinate.  invariant_lift_check takes its subspace as a
(d, k) basis matrix and probes it with a fixed number of vectors, and
halftree_element names its half-tree by the basepoint's neighbour
`head`, as basepoint_shift does.  The automorphisms acted with, the
basepoint shifts included, are built in `automorphism`.
"""
from __future__ import annotations

import numpy as np

from . import measure as bm
from .automorphism import TreeAutomorphism, edge_inversion
from .errors import (
    ConfigError,
    DepthBudgetError,
    RefinementError,
    SpectralGuardError,
)
from .operators import OperatorPair, numerically_singular, power
from .tree import (
    Address,
    FiniteSubtree,
    TreeParams,
    index_unchecked,
    letter_matrix,
    n_addresses,
    prefix_indices,
)

_LIFT_PROBES = 2  # random unit vectors of the span per invariant_lift_check


class StepFunction:
    """Vector-valued step function at uniform cylinder resolution."""

    __slots__ = ("params", "resolution", "values")

    def __init__(self, params: TreeParams, resolution: int, values: np.ndarray):
        if not isinstance(resolution, (int, np.integer)):
            raise ConfigError(f"resolution must be an integer, got {resolution!r}")
        # numpy integers are stored as int, as TreeParams stores its fields
        resolution = int(resolution)
        if not 0 <= resolution <= params.depth_cap:
            raise DepthBudgetError(
                f"resolution {resolution} outside [0, {params.depth_cap}]"
            )
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 2 or values.shape[0] != n_addresses(params, resolution):
            raise ConfigError(
                f"expected a ({n_addresses(params, resolution)}, d) value array, "
                f"got shape {values.shape}"
            )
        self.params = params
        self.resolution = resolution
        self.values = values

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def refine(self, resolution: int) -> "StepFunction":
        if resolution == self.resolution:
            return self
        if resolution < self.resolution:
            raise RefinementError(
                f"cannot coarsen from resolution {self.resolution} to {resolution}"
            )
        if resolution > self.params.depth_cap:  # before np.repeat allocates the rows
            raise DepthBudgetError(f"resolution {resolution} outside [0, {self.params.depth_cap}]")
        factor = n_addresses(self.params, resolution) // n_addresses(self.params, self.resolution)
        return StepFunction(self.params, resolution, np.repeat(self.values, factor, axis=0))

    def integral(self) -> np.ndarray:
        """Measure-weighted integral; cells at one depth weigh equally."""
        return self.values.mean(axis=0)

    def sup_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.values, axis=1))) if self.values.size else 0.0

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        """The difference at the finer of the two resolutions."""
        if self.params != other.params or self.dim != other.dim:
            raise ConfigError("step functions live on different trees or dimensions")
        m = max(self.resolution, other.resolution)
        return StepFunction(self.params, m, self.refine(m).values - other.refine(m).values)

    def max_cell_distance(self, other: "StepFunction") -> float:
        return (self - other).sup_norm()


def _vector(w: np.ndarray, dim: int | None = None) -> np.ndarray:
    """w as a nonempty complex vector, of length `dim` where given; a
    scalar is a 1-vector, anything else a ConfigError."""
    w = np.atleast_1d(np.asarray(w, dtype=np.complex128))
    if w.ndim != 1 or not w.size or (dim is not None and w.size != dim):
        length = "" if dim is None else f" of length {dim}"
        raise ConfigError(f"expected a nonempty vector{length}, got shape {w.shape}")
    return w


def constant_fn(params: TreeParams, w: np.ndarray) -> StepFunction:
    return StepFunction(params, 0, _vector(w)[None])


def indicator_fn(params: TreeParams, cell: bm.EndCell, w: np.ndarray) -> StepFunction:
    w = _vector(w)
    m = bm.min_expressible_depth(params, cell)
    values = np.zeros((n_addresses(params, m), w.shape[0]), dtype=np.complex128)
    for a, b in bm.cell_index_ranges(params, cell, m):
        values[a:b] = w
    return StepFunction(params, m, values)


def pi_apply(g: TreeAutomorphism, v: StepFunction, pair: OperatorPair) -> StepFunction:
    """Apply the boundary representation of g to v.

    Output resolution is max(m + D, D + 1); exceeding the depth cap is a
    DepthBudgetError rather than a truncation.  v's own n_m rows are
    multiplied by each tau^(2j - D), j = 0..D, into one ((D + 1) n_m, d)
    table, slot j after slot j - 1.  An output row's slot is the length
    of its longest common prefix with g x0: the number of the nested
    ranges j = 1..D (the rows below the depth-j prefix of g x0,
    q^(m_out - j) rows from that prefix's index times as many) that hold
    it.  Every output row is then taken once from the table, at its slot
    times n_m plus its lookup row.  For D = 0 the one slot is the product
    by the identity, which is exact.
    """
    params = v.params
    if g.params != params:
        raise ConfigError("automorphism and step function use different tree parameters")
    if pair.q != params.q:
        raise ConfigError(f"operator pair is for q={pair.q}, tree has q={params.q}")
    if pair.dim != v.dim:
        raise ConfigError(f"operator dimension {pair.dim} != function dimension {v.dim}")
    m = v.resolution
    d = g.displacement
    m_out = max(m + d, d + 1)
    if m_out > params.depth_cap:
        raise DepthBudgetError(
            f"resolution {m} plus displacement {d} needs depth {m_out}, cap is {params.depth_cap}"
        )
    q = params.q
    n = n_addresses(params, m_out)
    if m == 0:
        at = np.zeros(n, dtype=np.int64)
    else:
        letters = letter_matrix(params, m_out)
        inv_letters, inv_lengths = g.inverse().apply_batch(
            letters, np.full(n, m_out, dtype=np.int64)
        )
        at = prefix_indices(params, inv_letters, inv_lengths, m)
    n_m = v.values.shape[0]
    for j in range(1, d + 1):
        size = q ** (m_out - j)
        start = index_unchecked(q, g.x0_image[:j]) * size
        at[start : start + size] += n_m
    table = np.concatenate([v.values @ power(pair, 2 * j - d).T for j in range(d + 1)])
    # np.take gathers whole rows; fancy indexing of a narrow 2-d array
    # goes element by element and costs several times as much
    out = np.take(table, at, axis=0)
    return StepFunction(params, m_out, out)


def haar_average_fix(tree: FiniteSubtree, v: StepFunction) -> StepFunction:
    """Average over the pointwise stabilizer of a complete subtree.

    The output is the conditional mean of v on each stabilizer orbit,
    computed at whatever common resolution expresses all orbit cells.
    It needs only the orbit partition's cell count and labels, read from
    the subtree's levels by measure.orbit_partition, so every average
    over the same subtree instance shares one scan and no cell object is
    built.  Each label's sum is an np.bincount per real and imaginary part
    of each fiber column; it adds a label's rows in row order from 0.0,
    so the sums are those of a row-by-row loop, bit for bit.  Raises
    PartitionError if the orbit cells do not tile the boundary.
    """
    params = v.params
    if tree.params != params:
        raise ConfigError("subtree and step function use different tree parameters")
    count, k, labels = bm.orbit_partition(tree)
    m = max(v.resolution, k)
    labels = np.repeat(labels, n_addresses(params, m) // labels.size)
    vv = v.refine(m)
    sums = np.empty((count, v.dim), dtype=np.complex128)
    for j, column in enumerate(vv.values.T):
        sums[:, j].real = np.bincount(labels, column.real, minlength=count)
        sums[:, j].imag = np.bincount(labels, column.imag, minlength=count)
    means = sums / np.bincount(labels, minlength=count)[:, None]
    return StepFunction(params, m, np.take(means, labels, axis=0))


def alpha_via_rep(params: TreeParams, w: np.ndarray, pair: OperatorPair) -> np.ndarray:
    """Recover alpha . w from the representation alone: apply the edge
    inversion to the constant function at w, average over the basepoint
    stabilizer (whose one orbit is the whole boundary, so the average is
    the integral), and rescale by the index q+1 of the cylinder partition."""
    moved = pi_apply(edge_inversion(params), constant_fn(params, w), pair)
    return (params.q + 1) * moved.integral()


def halftree_element(
    params: TreeParams, w_prime: np.ndarray, head: Address, pair: OperatorPair
) -> StepFunction:
    """The step function (tau - tau^{-1}) w' supported on the half-tree
    through the basepoint's neighbour `head`, which basepoint_shift(params,
    head) reaches from the constant function w' (see the half-tree
    reachability suite for the two-path check)."""
    if len(head) != 1:
        raise ConfigError(f"{head} is not a neighbour of the basepoint")
    w_prime = _vector(w_prime, pair.dim)
    return indicator_fn(params, bm.Cylinder(head), (pair.tau - pair.tau_inv) @ w_prime)


def halftree_preimage(pair: OperatorPair, w: np.ndarray) -> np.ndarray:
    """Solve (tau - tau^{-1}) w' = w; the guard layer promises solvability."""
    w = _vector(w, pair.dim)
    diff = pair.tau - pair.tau_inv
    sing = np.linalg.svd(diff, compute_uv=False)
    if numerically_singular(sing):
        raise SpectralGuardError(
            f"tau - tau_inv is numerically singular (smallest singular value {sing[-1]:.3g})"
        )
    return np.linalg.solve(diff, w)


def fixed_space_report(tree: FiniteSubtree) -> int:
    """The number of orbit cells of the pointwise stabilizer of a complete
    subtree; the subspace it fixes in fiber dimension d has dimension d
    times this count.

    Constructively verified: a step function with a distinct value on
    each orbit cell must survive haar_average_fix unchanged, which
    exercises the conditional mean on every cell; values split per
    coordinate, so the scalar check covers every fiber dimension.  The
    probe and the average share the subtree's one orbit_partition.
    """
    params = tree.params
    count, m, labels = bm.orbit_partition(tree)
    probe = (labels + 1)[:, None].astype(np.complex128)
    fn = StepFunction(params, m, probe)
    averaged = haar_average_fix(tree, fn)
    if averaged.resolution != m or not np.array_equal(averaged.values, probe):
        raise ConfigError("orbit cells are not stabilizer-average invariant")
    return count


def invariant_lift_check(
    params: TreeParams,
    basis: np.ndarray,
    pair: OperatorPair,
    generators: list[TreeAutomorphism],
    rng: np.random.Generator,
) -> dict:
    """Measure how far the lift of span(basis) is from being invariant.

    `basis` is a (d, k) matrix whose columns span the subspace, d the
    pair's dimension and 1 <= k <= d; any other shape, non-finite entries
    or dependent columns are a ConfigError.  For a fixed number,
    _LIFT_PROBES, of random unit vectors w in the span, the probes are
    every cell value of pi(g) applied to the constant function at w, plus
    the vector alpha.w reconstructed through the representation.
    Reported leakage is the norm of the component outside the span;
    thresholds are the caller's business.
    """
    mat = np.asarray(basis, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != pair.dim or not 1 <= mat.shape[1] <= pair.dim:
        raise ConfigError(
            f"basis must be a ({pair.dim}, k) matrix, 1 <= k <= {pair.dim}, got shape {mat.shape}"
        )
    if not np.isfinite(mat).all():
        raise ConfigError("subspace basis has non-finite entries")
    sing = np.linalg.svd(mat, compute_uv=False)
    if sing[-1] <= 1e-10 * max(1.0, sing[0]):
        raise ConfigError("subspace basis is numerically dependent")
    ortho, _ = np.linalg.qr(mat)

    def leak(vectors: np.ndarray) -> float:
        vectors = np.atleast_2d(vectors)
        outside = vectors - (vectors @ ortho.conj()) @ ortho.T
        return float(np.max(np.linalg.norm(outside, axis=1)))

    per_generator = {}
    reconstruction = 0.0
    for _ in range(_LIFT_PROBES):
        coeff = rng.standard_normal(mat.shape[1]) + 1j * rng.standard_normal(mat.shape[1])
        w = mat @ coeff
        w = w / np.linalg.norm(w)
        for idx, g in enumerate(generators):
            name = f"{idx}:" + "*".join(gen.kind for gen, _ in g.word)
            moved = pi_apply(g, constant_fn(params, w), pair)
            per_generator[name] = max(per_generator.get(name, 0.0), leak(moved.values))
        reconstruction = max(reconstruction, leak(alpha_via_rep(params, w, pair)))
    return {
        "per_generator": per_generator,
        "reconstruction": reconstruction,
        "max_leakage": max([*per_generator.values(), reconstruction]),
        "subspace_dim": mat.shape[1],
    }
