"""Line-point incidence matrices and their graph invariants.

`build_h` assembles the sparse 0/1 matrix whose rows are the canonical
lines and whose columns are the canonical points of a symmetric-matrix
space; entry (i, j) is 1 exactly when line i contains point j.  It hands
the space's member array to `SparseBitMatrix.from_flat`, which checks it
and keeps a copy: H is stored once, as flat int64 arrays.  The same
matrix doubles as the bipartite adjacency structure used for girth and
diameter computations, and as the parity-check matrix of the two code
families built in `codes`.  Girth and diameter come from one BFS that
advances a block of roots at once, as uint64 bit rows per vertex.

A line is a coset {S + xD}, so each translation X -> X + T of S_n(F_q)
maps lines onto lines and is an automorphism of the Tanner graph of
H(n,q) and of its transpose.  The translations act transitively on the
points, and the lines fall into one orbit per direction D.  An
automorphism keeps a vertex's eccentricity and the length of the
shortest cycle through it, and maps a pair of rows sharing two columns
to another such pair.  So girth, diameter and the pair-overlap check
need only one vertex per orbit.  `translation_roots` reads the
generating translations off h's shape, q^N points, and checks each on h
itself: a matrix that fails the check gets the trivial group, whose
orbits are single vertices, so every vertex is a root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice

import numpy as np

from .exceptions import BadParametersError, StructureViolationError, TooLargeError, check_integer
from .gf import factor_prime_power
from .symspace import SymSpace

# diameter/girth BFS refuses graphs with more vertices than this
VERTEX_CAP = 1 << 20
# roots advanced together by one BFS pass; each BFS array is (V + 1) x ceil(block / 64) uint64
ROOT_BLOCK = 4096

INFINITE = float("inf")


@dataclass(frozen=True, eq=False)
class SparseBitMatrix:
    """A sparse binary matrix: each entry's column, row by row, and each row's weight.

    Both are read-only int64 arrays, H's one copy, cols ascending within
    each row.  The column side is `transpose()`, whose transpose is this
    matrix, and `supports()` lists the rows' columns anew on each call.
    Matrices are equal when their shapes and entries are.
    """

    nrows: int
    ncols: int
    cols: np.ndarray
    row_weights: np.ndarray

    def __post_init__(self):
        self.cols.flags.writeable = False
        self.row_weights.flags.writeable = False

    @classmethod
    def from_flat(cls, nrows: int, ncols: int, indices, weights) -> "SparseBitMatrix":
        """H from its rows' supports laid end to end: row i is the next weights[i] indices.

        The shape must be nonnegative integers, and the indices and weights
        integers that fit in int64; H keeps read-only int64 copies of them.
        One numpy pass checks the row count, that every index lies in
        [0, ncols) and that each row strictly increases.
        """
        nrows, ncols = check_integer("nrows", nrows, 0), check_integer("ncols", ncols, 0)
        weights = _int64("row weights", weights)
        indices = _int64("column indices", indices).ravel()
        if len(weights) != nrows:
            raise BadParametersError(f"expected {nrows} rows, got {len(weights)}")
        # a weight above the index count could wrap the int64 sum back onto it
        if (weights < 0).any() or (weights > len(indices)).any() or weights.sum() != len(indices):
            raise BadParametersError(
                f"row weights sum to {sum(weights.tolist())}, not the {len(indices)} indices"
            )
        row_of = np.repeat(np.arange(nrows), weights)
        # a fall inside a row (not at a row's first entry) breaks its order
        falls = np.flatnonzero(indices[1:] <= indices[:-1]) + 1
        falls = falls[row_of[falls] == row_of[falls - 1]]
        outside = np.flatnonzero((indices < 0) | (indices >= ncols))
        if len(falls):
            raise BadParametersError(f"row {row_of[falls[0]]} support not strictly increasing")
        if len(outside):
            raise BadParametersError(f"row {row_of[outside[0]]} has column index out of range")
        return cls(nrows, ncols, indices, weights)

    @classmethod
    def from_rows(cls, nrows: int, ncols: int, rows) -> "SparseBitMatrix":
        """H from an iterable of row supports, each an ascending sequence of ints."""
        rows = [list(row) for row in rows]
        return cls.from_flat(nrows, ncols, list(chain.from_iterable(rows)), list(map(len, rows)))

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, column) of every entry, row-major, as `np.nonzero(self.toarray())` orders them."""
        return np.repeat(np.arange(self.nrows), self.row_weights), self.cols

    def transpose(self) -> "SparseBitMatrix":
        """The transpose: one instance per matrix, so its cached results are shared."""

        def build():
            order = np.argsort(self.cols, kind="stable")  # each column's rows in order
            weights = np.bincount(self.cols, minlength=self.ncols)
            flipped = SparseBitMatrix(self.ncols, self.nrows, self.nonzero()[0][order], weights)
            flipped._derived["transpose"] = self  # exact: the stable sort keeps rows ascending
            return flipped

        return self._cached("transpose", build)

    @property
    def col_weights(self) -> np.ndarray:
        return self.transpose().row_weights

    def supports(self) -> list[list[int]]:
        """Each row's columns, as a new list of ints per row on every call."""
        entries = iter(self.cols.tolist())
        return [list(islice(entries, k)) for k in self.row_weights.tolist()]

    @property
    def edge_count(self) -> int:
        return len(self.cols)

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols), dtype=np.uint8)
        out[self.nonzero()] = 1
        return out

    def _key(self):
        return self.nrows, self.ncols, self.row_weights.tobytes(), self.cols.tobytes()

    def __eq__(self, other):
        return isinstance(other, SparseBitMatrix) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def _derived(self) -> dict:
        return {}

    def _cached(self, key, compute):
        """compute(), run once per matrix instance and key.

        Cached on the instance, not by value: the store is not a field, so
        equality and hashing ignore it, and an equal matrix built elsewhere
        computes its own.
        """
        derived = self._derived
        if key not in derived:
            derived[key] = compute()
        return derived[key]


def _int64(name: str, values) -> np.ndarray:
    """values as a new int64 array; refused unless all are integers that fit in int64."""
    values = np.asarray(values)
    if values.size and (values.dtype.kind not in "iu" or values.max() > np.iinfo(np.int64).max):
        raise BadParametersError(f"{name} must be integers that fit in 64 bits")
    return values.astype(np.int64)


@dataclass(frozen=True)
class StructureReport:
    """Outcome of the four regular-LDPC structure checks."""

    nrows: int
    ncols: int
    rho: int
    gamma: int
    lambda_max: int
    edge_count: int
    rho_over_ncols: float
    gamma_over_nrows: float


def build_h(space: SymSpace) -> SparseBitMatrix:
    """Incidence matrix of the space: rows are lines, columns are points."""
    lines = space.line_array()
    return SparseBitMatrix.from_flat(len(lines), space.size, lines, np.full(len(lines), space.q))


def verify_structure(h: SparseBitMatrix, n: int, q: int) -> StructureReport:
    """Check row weight q, column weight (q^n-1)/(q-1), and pairwise overlap <= 1.

    h is taken lines by points.  The weight checks scan every row and
    column; the overlap check scans only the rows among `translation_roots`,
    one per orbit, since a translation maps two rows sharing two columns to
    two rows that share two columns.  Raises StructureViolationError naming
    the first failing row, column, or pair.  Returns a report with the
    observed weights and sparsity ratios.  n must be at least 1 and q at
    least 2.
    """
    n, q = check_integer("n", n, 1), check_integer("q", q, 2)
    gamma = (q**n - 1) // (q - 1)
    for side, weights, wanted in (("row", h.row_weights, q), ("column", h.col_weights, gamma)):
        wrong = np.flatnonzero(weights != wanted)
        if len(wrong):
            i = wrong[0]
            raise StructureViolationError(f"{side} {i} has weight {weights[i]}, expected {wanted}")
    # two rows sharing two columns close a 4-cycle, which is also two
    # columns sharing two rows, so the row pairs cover both
    lambda_max = 0
    row_cols = h.cols.reshape(h.nrows, q)
    col_rows = h.transpose().cols.reshape(h.ncols, gamma)
    for r in translation_roots(h):
        if r >= h.nrows:
            break
        met: dict[int, int] = {}
        for j, rows in zip(row_cols[r].tolist(), col_rows.take(row_cols[r], axis=0).tolist()):
            for i in rows:
                if i == r:
                    continue
                if i in met:
                    a, b = sorted((r, i))
                    raise StructureViolationError(
                        f"rows {a} and {b} share more than one column "
                        f"(second overlap at column {j})"
                    )
                met[i] = j
                lambda_max = 1
    return StructureReport(
        nrows=h.nrows,
        ncols=h.ncols,
        rho=q,
        gamma=gamma,
        lambda_max=lambda_max,
        edge_count=h.edge_count,
        rho_over_ncols=q / h.ncols,
        gamma_over_nrows=gamma / h.nrows,
    )


def translation_roots(h: SparseBitMatrix) -> tuple[int, ...]:
    """One Tanner-graph vertex per orbit of the translations that fix h.

    Vertices are numbered rows first, then nrows + column, and each orbit
    is represented by its smallest vertex, so the tuple is ascending.  h
    is tried lines by points, then transposed: a side with c >= 2 columns,
    c = p^d, proposes the d translations of S_n(F_q) by one basis element
    of GF(p^m) at one upper-triangular entry (d = m * n(n+1)/2, and a prime
    power factors one way only), and each is checked on h.  When no side
    passes, the group is trivial and every vertex is a root.  Computed
    once per matrix instance.
    """
    return h._cached("roots", lambda: _translation_roots(h))


def _translation_roots(h: SparseBitMatrix) -> tuple[int, ...]:
    for lines, transposed in ((h, False), (h.transpose(), True)):
        try:
            p, digits = factor_prime_power(lines.ncols)
        except BadParametersError:
            continue
        orbits = lines._cached("orbits", lambda: _line_point_orbits(lines, p, digits))
        if orbits is None:
            continue
        rows, cols = orbits[::-1] if transposed else orbits
        return tuple(rows) + tuple(h.nrows + j for j in cols)
    return tuple(range(h.nrows + h.ncols))


def _line_point_orbits(h: SparseBitMatrix, p: int, digits: int):
    """(row orbit minima, column orbit minima) of the translations, or None.

    h is lines by points.  Generator t adds 1 mod p to base-p digit t of
    every point index: the translation by one basis element of GF(p^m) at
    one upper-triangular entry.  It must map h's set of rows onto itself:
    each translated row is matched to a row by its first two points, then
    compared entry by entry, and no two rows may map to the same row.
    None when a generator fails.  The generators step every base-p digit of
    the p^digits columns, so the columns are one orbit, with minimum 0.
    Rows of unequal weights, or of weight below 2, also give None.
    """
    if not h.nrows or h.row_weights.min() < 2 or np.ptp(h.row_weights):
        return None
    support = h.cols.reshape(h.nrows, -1)
    keys = support[:, 0] * h.ncols + support[:, 1]
    order = np.argsort(keys)
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():
        return None
    point = np.arange(h.ncols)
    row_maps = []
    for t in range(digits):
        step = p**t
        moved = point + np.where(point // step % p == p - 1, (1 - p) * step, step)
        image = np.sort(moved[support], axis=1)
        found = np.searchsorted(keys, image[:, 0] * h.ncols + image[:, 1])
        row_map = order[np.minimum(found, len(keys) - 1)]
        if not np.array_equal(support[row_map], image):
            return None
        if np.bincount(row_map, minlength=h.nrows).max() > 1:
            return None
        row_maps.append(row_map)
    return _orbit_minima(row_maps, h.nrows), [0]


def _orbit_minima(maps, size: int) -> list[int]:
    """Smallest element of each orbit of the group the permutations generate.

    Min-label propagation: each element takes the smallest label among
    itself and its images, then the label of its label, until nothing
    changes.  A label always lies in its element's orbit, and at the fixed
    point it is the same along every generator, so constant on each orbit.
    """
    label = np.arange(size)
    while True:
        merged = label.copy()
        for image in maps:
            np.minimum(merged, merged[image], out=merged)
        merged = merged[merged]
        if np.array_equal(merged, label):
            return np.flatnonzero(label == np.arange(size)).tolist()
        label = merged


def edge_slots(h: SparseBitMatrix) -> tuple[np.ndarray, np.ndarray]:
    """H's one edge layout, (row_side, col_side), built per call from h's arrays.

    row_side[i, k] holds the column-side slot j * col_wt + k' of row i's
    k-th edge, and col_side[j, k'] the row-side slot i * row_wt + k of the
    same edge, each side's rows (nrows x row_wt, ncols x col_wt) listing
    their edges in support order.  Padding, a zero-weight row's included,
    points at the sentinel slot past the other side.
    """
    row_deg, col_of_edge = h.row_weights, h.cols
    col_deg = np.bincount(col_of_edge, minlength=h.ncols)
    # width >= 1 on the column side: an edgeless graph's columns read the sentinel
    row_wt, col_wt = row_deg.max(initial=0), col_deg.max(initial=1)
    row_side = np.full((h.nrows, row_wt), h.ncols * col_wt)
    col_side = np.full((h.ncols, col_wt), h.nrows * row_wt)
    # real slots, in row-major order, list the edges row- and column-major
    row_slot = np.flatnonzero(np.arange(row_wt) < row_deg[:, None])
    col_slot = np.flatnonzero(np.arange(col_wt) < col_deg[:, None])
    row_slot = row_slot[np.argsort(col_of_edge, kind="stable")]
    row_side.flat[row_slot] = col_slot
    col_side.flat[col_slot] = row_slot
    return row_side, col_side


def _neighbours(h: SparseBitMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Rows' and columns' (slot, vertex) neighbour arrays; padding is vertex nrows + ncols."""
    row_side, col_side = edge_slots(h)
    row_wt, col_wt = row_side.shape[1], col_side.shape[1]
    cols = np.where(col_side == h.nrows * row_wt, h.nrows + h.ncols, col_side // max(row_wt, 1))
    # column j is vertex nrows + j, and the row side's sentinel slot gives j = ncols
    return row_side.T // col_wt + h.nrows, cols.T


def _rooted_bfs(h: SparseBitMatrix, roots):
    """Girth and diameter of the Tanner graph of h, from a BFS of each root.

    Vertices are the rows 0..nrows-1, then the columns.  Roots run in
    blocks of ROOT_BLOCK, and each vertex keeps a row of ceil(block / 64)
    uint64 words: bit k is set when root k of the block has reached it.
    Adjacency is one array per side, read off `edge_slots`, whose padding
    is a sentinel vertex past the last one with an all-zero frontier row.
    One depth is a loop over degree slots that ORs the frontier rows of
    every vertex's slot-s neighbours at once, so every root of the block
    advances by one level.  A vertex that receives the same new root from
    two frontier neighbours at depth d closes a cycle of length 2d; the
    graph is bipartite, so no edge joins a layer to itself, and a root on
    a shortest cycle finds its length first.  The last depth that adds any
    bit is the root's eccentricity; a root that misses a vertex makes the
    diameter infinite.  The minimum and maximum over the roots are the
    girth and diameter when the roots meet every orbit of an automorphism
    group, as `translation_roots` do.
    """
    nverts = h.nrows + h.ncols
    sides = tuple(zip((slice(0, h.nrows), slice(h.nrows, nverts)), _neighbours(h)))
    best_girth = INFINITE
    worst = 0
    for first in range(0, len(roots), ROOT_BLOCK):
        block = np.asarray(roots[first : first + ROOT_BLOCK], dtype=np.int64)
        k = np.arange(len(block))
        frontier = np.zeros((nverts + 1, -(-len(block) // 64)), dtype=np.uint64)
        frontier[block, k // 64] = np.left_shift(np.uint64(1), (k % 64).astype(np.uint64))
        seen = frontier[:nverts].copy()
        depth = 0
        while True:
            nxt = np.zeros_like(frontier)
            for side, adj in sides:
                reach = np.zeros_like(seen[side])
                twice = np.zeros_like(reach)
                for slot in adj:
                    bits = frontier[slot]
                    twice |= reach & bits
                    reach |= bits
                new = reach & ~seen[side]
                nxt[side] = new
                seen[side] |= new
                if (twice & new).any():
                    best_girth = min(best_girth, 2 * (depth + 1))
            if not nxt.any():
                break
            frontier = nxt
            depth += 1
        full = np.full(frontier.shape[1], np.uint64(2**64 - 1))
        if len(block) % 64:
            full[-1] = np.uint64((1 << len(block) % 64) - 1)
        worst = max(worst, depth if (seen == full).all() else INFINITE)
    return best_girth, worst


def _tanner(h: SparseBitMatrix):
    """(girth, diameter) of the Tanner graph of h, once per matrix instance."""

    def compute():
        nverts = h.nrows + h.ncols
        if nverts > VERTEX_CAP:
            raise TooLargeError(f"{nverts} vertices exceeds BFS cap {VERTEX_CAP}")
        return _rooted_bfs(h, translation_roots(h))

    return h._cached("tanner", compute)


def girth(h: SparseBitMatrix):
    """Length of the shortest cycle in the Tanner graph of h; infinity for forests.

    The BFS runs from `translation_roots(h)` only.
    """
    return _tanner(h)[0]


def diameter(h: SparseBitMatrix):
    """Maximum eccentricity in the Tanner graph of h; infinity when disconnected.

    The BFS runs from `translation_roots(h)` only.
    """
    return _tanner(h)[1]


def point_graph_components(space: SymSpace) -> int:
    """Number of connected components of the rank-1 adjacency graph on points.

    Translations keep the rank of a difference, so they map components onto
    components, and they act transitively on the points: every component
    is a translate of the component of 0.
    """
    return space.size // sum(len(layer) for layer in space.distance_layers(space.zero()))
