"""Line-point incidence matrices and their graph invariants.

`build_h` assembles the sparse 0/1 matrix whose rows are the canonical
lines and whose columns are the canonical points of a symmetric-matrix
space; entry (i, j) is 1 exactly when line i contains point j.  The same
matrix doubles as the bipartite adjacency structure used for girth and
diameter computations, and as the parity-check matrix of the two code
families built in `codes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import StructureViolationError, TooLargeError
from .symspace import SymSpace

# build_h refuses instances with more incidences than this
EDGE_CAP = 1 << 24
# diameter/girth BFS refuses graphs with more vertices than this
VERTEX_CAP = 1 << 20
# roots advanced together by one BFS pass; BFS memory is O(V * ROOT_BLOCK) bits
ROOT_BLOCK = 4096

INFINITE = float("inf")


@dataclass(frozen=True)
class SparseBitMatrix:
    """A sparse binary matrix kept as consistent row and column supports."""

    nrows: int
    ncols: int
    row_support: tuple[tuple[int, ...], ...]
    col_support: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, nrows: int, ncols: int, rows) -> "SparseBitMatrix":
        row_support = []
        cols: list[list[int]] = [[] for _ in range(ncols)]
        for i, row in enumerate(rows):
            row = tuple(int(j) for j in row)
            if any(row[k] >= row[k + 1] for k in range(len(row) - 1)):
                raise ValueError(f"row {i} support not strictly increasing")
            if row and (row[0] < 0 or row[-1] >= ncols):
                raise ValueError(f"row {i} has column index out of range")
            row_support.append(row)
            for j in row:
                cols[j].append(i)
        if len(row_support) != nrows:
            raise ValueError(f"expected {nrows} rows, got {len(row_support)}")
        return cls(
            nrows=nrows,
            ncols=ncols,
            row_support=tuple(row_support),
            col_support=tuple(tuple(c) for c in cols),
        )

    def transpose(self) -> "SparseBitMatrix":
        return SparseBitMatrix(
            nrows=self.ncols,
            ncols=self.nrows,
            row_support=self.col_support,
            col_support=self.row_support,
        )

    @property
    def edge_count(self) -> int:
        return sum(len(r) for r in self.row_support)

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols), dtype=np.uint8)
        for i, row in enumerate(self.row_support):
            out[i, list(row)] = 1
        return out

    @cached_property
    def _tanner_bfs(self):
        """(girth, diameter) of the Tanner graph, computed once per instance.

        Cached on the instance, not by value: it is not a field, so equality
        and hashing ignore it, and an equal matrix built elsewhere runs its
        own BFS.
        """
        return _all_roots_bfs(self)

    @cached_property
    def _row_masks(self) -> tuple[int, ...]:
        """Each row's support as an int with bit j set for column j.

        Built on first use and cached on the instance like _tanner_bfs, so
        equality and hashing ignore it.
        """
        return tuple(sum(1 << j for j in row) for row in self.row_support)


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
    r = space.line_count()
    edges = r * space.q
    if edges > EDGE_CAP:
        raise TooLargeError(
            f"instance has r={r} lines x q={space.q} = {edges} incidences, "
            f"exceeding cap {EDGE_CAP} (c={space.size} points)"
        )
    rows = [line.points for line in space.lines()]
    return SparseBitMatrix.from_rows(r, space.size, rows)


def verify_structure(h: SparseBitMatrix, n: int, q: int) -> StructureReport:
    """Check row weight q, column weight (q^n-1)/(q-1), and pairwise overlap <= 1.

    Raises StructureViolationError naming the first failing row, column, or
    pair.  Returns a report with the observed weights and sparsity ratios.
    """
    gamma = (q**n - 1) // (q - 1)
    for i, row in enumerate(h.row_support):
        if len(row) != q:
            raise StructureViolationError(f"row {i} has weight {len(row)}, expected {q}")
    for j, col in enumerate(h.col_support):
        if len(col) != gamma:
            raise StructureViolationError(
                f"column {j} has weight {len(col)}, expected {gamma}"
            )
    # two rows sharing two columns show up as a row pair repeated across
    # columns; a repeated column pair is the same 4-cycle, so this one pass
    # also catches two columns sharing two rows
    seen_row_pairs: set[tuple[int, int]] = set()
    for j, col in enumerate(h.col_support):
        for a in range(len(col)):
            for b in range(a + 1, len(col)):
                pair = (col[a], col[b])
                if pair in seen_row_pairs:
                    raise StructureViolationError(
                        f"rows {pair[0]} and {pair[1]} share more than one column "
                        f"(second overlap at column {j})"
                    )
                seen_row_pairs.add(pair)
    lambda_max = 1 if seen_row_pairs else 0
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


def _all_roots_bfs(h: SparseBitMatrix):
    """Girth and diameter of the Tanner graph of h, from one BFS of every root.

    Vertices are the rows 0..nrows-1, then the columns.  Roots run in
    blocks of ROOT_BLOCK; each vertex keeps an int bitset of the block's
    roots that have reached it, so one pass over the adjacency per depth
    advances every root of the block at once.  A vertex that receives the
    same new root from two frontier neighbours at depth d closes a cycle
    of length 2d through that root.  The graph is bipartite, so no edge
    joins a layer to itself, and the first such depth over all roots is
    the exact girth.  The last depth that adds any bit is the largest
    eccentricity; a root that misses a vertex makes the diameter infinite.
    """
    nverts = h.nrows + h.ncols
    if nverts > VERTEX_CAP:
        raise TooLargeError(f"{nverts} vertices exceeds BFS cap {VERTEX_CAP}")
    adj = [tuple(h.nrows + j for j in row) for row in h.row_support]
    adj.extend(h.col_support)
    best_girth = INFINITE
    worst = 0
    for first in range(0, nverts, ROOT_BLOCK):
        width = min(ROOT_BLOCK, nverts - first)
        frontier = [0] * nverts
        for k in range(width):
            frontier[first + k] = 1 << k
        seen = frontier[:]
        depth = 0
        while True:
            nxt = [0] * nverts
            for v, nbrs in enumerate(adj):
                reach = twice = 0
                for u in nbrs:
                    bits = frontier[u]
                    twice |= reach & bits
                    reach |= bits
                new = reach & ~seen[v]
                if new:
                    nxt[v] = new
                    seen[v] |= new
                    if twice & new:
                        best_girth = min(best_girth, 2 * (depth + 1))
            if not any(nxt):
                break
            frontier = nxt
            depth += 1
        full = (1 << width) - 1
        worst = max(worst, depth if all(s == full for s in seen) else INFINITE)
    return best_girth, worst


def girth(h: SparseBitMatrix):
    """Length of the shortest cycle in the Tanner graph of h; infinity for forests."""
    return h._tanner_bfs[0]


def diameter(h: SparseBitMatrix):
    """Maximum eccentricity in the Tanner graph of h; infinity when disconnected."""
    return h._tanner_bfs[1]


def point_graph_components(space: SymSpace) -> int:
    """Number of connected components of the rank-1 adjacency graph on points."""
    seen: set[int] = set()
    components = 0
    for start in range(space.size):
        if start not in seen:
            components += 1
            for layer in space.distance_layers(space.point_at(start)):
                seen.update(layer)
    return components
