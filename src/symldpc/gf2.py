"""Binary linear algebra: rank, null space, minimum and stopping distance.

Matrices come in as SparseBitMatrix.  Every GF(2) computation on them
(elimination, the null-space basis and codeword enumeration) uses one
representation: rows packed 64 columns per uint64 word, bit j % 64 of
word j // 64 standing for column j, set from (row, column) entry arrays.
Rank and null space come from one Gauss-Jordan pass over those rows,
which yields the unique reduced row echelon form; it runs once per
matrix instance.

Above the enumeration cap, codeword supports and stopping sets are found
by one branch and bound, pruned by counting: a partial support with L
rows still open needs at least ceil(L / gamma_max) more columns.  A row
is open while it is hit an odd number of times for a codeword, and
exactly once for a stopping set.  Both searches take the Tanner bound of
h's girth (`tanner_lower_bound`, at girth 6 or 8) as a floor: a budget
below it is answered without searching, and a checked seed of its size
(a family's witness) is exact at once.  Exactness is explicit:
DistanceResult.status says whether a search exhausted everything below
the reported value or only proved a lower bound within its budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import BadParametersError, StructureViolationError, TooLargeError
from .exceptions import UnsupportedGirthError, check_integer
from .incidence import SparseBitMatrix, girth

# full codeword enumeration is used when the code dimension is at most this
ENUM_DIM_CAP = 25
# codeword enumeration holds a table of 2^ENUM_TABLE_BITS basis combinations
ENUM_TABLE_BITS = 12
# bytes of the largest packed matrix, refused before it is allocated: C(3,5)
# and CT(3,5) pack about 190 MB, C(3,7) would take 13.1 GiB
PACK_BYTE_CAP = 1 << 30

EXACT = "exact"
LOWER_BOUND_ONLY = "lower_bound_only"

METHOD_ENUMERATION = "enumeration"
METHOD_SUPPORT_SEARCH = "support_search"
METHOD_WITNESS_PLUS_BOUND = "witness_plus_bound"


@dataclass(frozen=True)
class DistanceResult:
    """A distance value with its exactness status and verified witness."""

    value: int
    status: str
    witness: frozenset[int] | None
    method: str

    @property
    def exact(self) -> bool:
        return self.status == EXACT


def _pack(nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The 0/1 matrix with ones at (rows[k], cols[k]), packed as (nrows, words) uint64.

    Bit j % 64 of word j // 64 stands for column j; there is at least one word.
    A packing of more than PACK_BYTE_CAP bytes raises TooLargeError.
    """
    words = max(1, -(-ncols // 64))
    if nrows * words * 8 > PACK_BYTE_CAP:
        raise TooLargeError(
            f"packing {nrows} x {ncols} bits takes {nrows * words * 8} bytes,"
            f" past the GF(2) elimination cap of {PACK_BYTE_CAP}"
        )
    packed = np.zeros((nrows, words), dtype=np.uint64)
    np.bitwise_or.at(packed, (rows, cols >> 6), np.uint64(1) << (cols & 63).astype(np.uint64))
    return packed


def _bits(packed: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The 0/1 entries of packed rows at the given columns, as uint8."""
    return ((packed[:, cols >> 6] >> (cols & 63).astype(np.uint64)) & np.uint64(1)).astype(np.uint8)


def _echelon(h: SparseBitMatrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of h: (packed nonzero rows, pivot column of each).

    Gauss-Jordan by column: the first row holding column c that is not yet
    a pivot row becomes c's pivot and is XORed into every other row holding
    c.  Rows that are not pivots yet are zero before column c, so the XOR
    starts at c's word.
    """
    mat = _pack(h.nrows, h.ncols, *h.nonzero())
    unused = np.ones(h.nrows, dtype=bool)
    pivot_rows: list[int] = []
    pivots: list[int] = []
    for c in range(h.ncols):
        if len(pivots) == h.nrows:
            break
        word = c >> 6
        hits = np.flatnonzero(mat[:, word] & np.uint64(1 << (c & 63)))
        candidates = hits[unused[hits]]
        if not len(candidates):
            continue
        p = candidates[0]
        mat[hits[hits != p], word:] ^= mat[p, word:]
        unused[p] = False
        pivot_rows.append(p)
        pivots.append(c)
    return mat[pivot_rows], pivots


def _reduced(h: SparseBitMatrix) -> tuple[np.ndarray, tuple[int, ...]]:
    """`_echelon(h)`, computed once per matrix instance and kept read-only.

    Rank, dimension, null space and minimum distance of one matrix then
    share one elimination.
    """

    def compute():
        mat, pivots = _echelon(h)
        mat.flags.writeable = False
        return mat, tuple(pivots)

    return h._cached("echelon", compute)


def rank_gf2(h: SparseBitMatrix) -> int:
    """Rank over GF(2)."""
    return len(_reduced(h)[1])


def code_dimension(h: SparseBitMatrix) -> int:
    """Dimension of the null space: ncols - rank."""
    return h.ncols - rank_gf2(h)


def _basis(echelon: np.ndarray, pivots: list[int], ncols: int) -> np.ndarray:
    free = np.delete(np.arange(ncols), pivots)
    basis = np.zeros((len(free), ncols), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = _bits(echelon, free).T
    return basis


def null_space_basis(h: SparseBitMatrix) -> np.ndarray:
    """Basis of the GF(2) null space as a (k, ncols) uint8 0/1 array.

    Row t is the null vector that is 1 at the t-th free (non-pivot) column
    and 0 at every other free column, so the basis is canonical.
    """
    return _basis(*_reduced(h), h.ncols)


def _row_hits(h: SparseBitMatrix, cols) -> np.ndarray:
    """How often the columns hit each row, as an array over h's rows; a column outside h is refused.

    The columns' supports are read off the transpose's arrays, where
    column j's rows are a run of row_weights[j] entries of its `cols`.
    """
    cols = list(cols)
    if outside := [j for j in cols if not 0 <= j < h.ncols]:
        raise BadParametersError(f"column {outside[0]} is outside the {h.ncols} columns of h")
    side = h.transpose()
    cols = np.array(cols, dtype=np.int64)
    weights = side.row_weights[cols]
    starts = np.cumsum(side.row_weights)[cols] - weights
    # the runs laid end to end: each entry is its run's start plus its place in the run
    run_of = np.repeat(np.arange(len(cols)), weights)
    at = starts[run_of] + np.arange(len(run_of)) - (np.cumsum(weights) - weights)[run_of]
    return np.bincount(side.cols[at], minlength=h.nrows)


def columns_sum_zero(h: SparseBitMatrix, cols) -> bool:
    """True when the chosen columns sum to zero over GF(2): every row count is even."""
    return not (_row_hits(h, cols) % 2).any()


def is_stopping_set(h: SparseBitMatrix, cols) -> bool:
    """True when every row meets the nonempty column set in 0 or >= 2 positions."""
    sel = set(int(j) for j in cols)
    return bool(sel) and not (_row_hits(h, sel) == 1).any()


def _min_weight_enumeration(basis: np.ndarray) -> tuple[int, np.ndarray]:
    """(min weight, argmin codeword) over the nonzero codewords of a packed basis.

    A table of all 2^L combinations of the first L = min(k, ENUM_TABLE_BITS)
    basis vectors, filled by doubling in place, is XORed into one reused
    buffer with each combination of the other vectors in Gray order, and
    np.bitwise_count gives the weights.  Only the best word is copied out.
    """
    low = min(len(basis), ENUM_TABLE_BITS)
    table = np.zeros((1 << low, basis.shape[1]), dtype=np.uint64)
    for i, v in enumerate(basis[:low]):
        np.bitwise_xor(table[: 1 << i], v, out=table[1 << i : 2 << i])
    words = np.empty_like(table)
    counts = np.empty(table.shape, dtype=np.uint8)
    weights = np.empty(len(table), dtype=np.uint64)
    above_any = 64 * basis.shape[1] + 1
    best_w, best_cw = above_any, None
    offset = np.zeros(basis.shape[1], dtype=np.uint64)
    for t in range(1 << (len(basis) - low)):
        if t:
            offset ^= basis[low + (t & -t).bit_length() - 1]
        np.bitwise_xor(table, offset, out=words)
        np.bitwise_count(words, out=counts)
        counts.sum(axis=1, out=weights)
        weights[weights == 0] = above_any
        i = int(weights.argmin())
        if weights[i] < best_w:
            best_w, best_cw = int(weights[i]), words[i].copy()
    if best_cw is None:
        raise StructureViolationError("null-space basis spans no nonzero codeword")
    return best_w, best_cw


def _checked_seed(h: SparseBitMatrix, seed, holds, least: int) -> tuple[int, ...] | None:
    """The seed as a tuple; refused unless `least` or more distinct columns pass `holds`."""
    if seed is None:
        return None
    seed = tuple(seed)
    if not seed or len(set(seed)) < len(seed) or len(seed) < least or not holds(h, seed):
        raise StructureViolationError(
            f"seed {sorted(seed)} is not {least} or more distinct columns passing {holds.__name__}"
        )
    return seed


def _smallest_support(h: SparseBitMatrix, budget: int, limit: int, holds, seed) -> DistanceResult:
    """Smallest nonempty column set of at most budget columns with no open row.

    A row is open while the set still needs another of its columns: each
    hit on a row whose count was below `limit` toggles its open bit.  Limit
    2 opens the rows hit exactly once (stopping sets); ncols + 1 opens the
    rows hit an odd number of times (codeword supports).

    Branch and bound: a partial support with an open row can only grow into
    a wanted set by adding another column of that row, so branching is
    forced on the lowest open row; a partial support with no open row is
    already a wanted set.  The search rooted at column j0 adds no column
    below j0: a set whose smallest column is m is reached inside itself
    from root m, so the roots together stay exhaustive.  A column meets at
    most gamma_max rows (h's largest column weight), so L open rows need at
    least ceil(L / gamma_max) more columns; a branch stops once that count
    reaches the size bound.  Exact when the search space below the found
    size is exhausted within the budget; the witness must pass `holds`.

    Every codeword support is a stopping set, so `_girth_floor(h)` bounds
    both searches from below: a budget under it returns the floor (or
    budget + 1, if larger) as lower_bound_only without searching, and a
    set of the floor's size ends the search at once.

    A `seed`, a claimed wanted set checked against the floor, is exact at
    once at the floor's size, at any budget (`witness_plus_bound`); with at
    most budget + 1 columns it is the first best set to beat.
    """
    floor = _girth_floor(h)
    seed = _checked_seed(h, seed, holds, floor)
    if seed is not None and len(seed) == floor:
        return DistanceResult(floor, EXACT, frozenset(seed), METHOD_WITNESS_PLUS_BOUND)
    if budget < floor:
        return DistanceResult(
            value=max(floor, budget + 1),
            status=LOWER_BOUND_ONLY,
            witness=None,
            method=METHOD_SUPPORT_SEARCH,
        )
    rows, cols = h.supports(), h.transpose().supports()
    gamma_max = int(h.col_weights.max(initial=0))
    hits = [0] * h.nrows
    in_support = [False] * h.ncols
    support: list[int] = []
    open_rows = 0  # bit i is set while row i is open
    bound = budget + 1  # only supports smaller than this are still wanted
    best: tuple[int, ...] | None = None
    if seed is not None and len(seed) <= bound:
        bound, best = len(seed), seed

    for j0 in range(h.ncols):
        if bound <= max(floor, 1):
            break
        # walk the tree rooted at j0 on an explicit stack, so its depth is not
        # bound by the recursion limit: a frame per support column holds its
        # branching row's columns still to try and how many more it needs
        frames: list = []
        j = j0
        while True:
            if j >= 0:
                support.append(j)
                in_support[j] = True
                for i in cols[j]:
                    c = hits[i]
                    hits[i] = c + 1
                    if c < limit:
                        open_rows ^= 1 << i
                if open_rows:
                    row = (open_rows & -open_rows).bit_length() - 1
                    frames.append((iter(rows[row]), -(-open_rows.bit_count() // gamma_max)))
                else:
                    bound = len(support)
                    best = tuple(support)
                    if bound <= floor:
                        break
                    frames.append(((), 0))
            kids, need = frames[-1]
            j = -1
            if len(support) + need < bound:
                for k in kids:
                    if k >= j0 and not in_support[k]:
                        j = k
                        break
            if j < 0:
                frames.pop()
                k = support.pop()
                in_support[k] = False
                for i in cols[k]:
                    c = hits[i] - 1
                    hits[i] = c
                    if c < limit:
                        open_rows ^= 1 << i
                if not frames:
                    break
    if best is None:
        return DistanceResult(
            value=budget + 1,
            status=LOWER_BOUND_ONLY,
            witness=None,
            method=METHOD_SUPPORT_SEARCH,
        )
    if not holds(h, best):
        raise StructureViolationError(
            f"branch-and-bound witness {sorted(best)} fails {holds.__name__}"
        )
    return DistanceResult(
        value=len(best),
        status=EXACT,
        witness=frozenset(best),
        method=METHOD_SUPPORT_SEARCH,
    )


def _girth_floor(h: SparseBitMatrix) -> int:
    """`tanner_lower_bound` from h's girth and least column weight, else 0.

    This is the tree bound of Orlitsky, Urbanke, Viswanathan and Zhang
    (ISIT 2002).  It applies at girth 6 or 8, and not when the BFS refuses h
    (`incidence.VERTEX_CAP`).  The girth is h's cached one.
    """
    try:
        girth_value = girth(h)
    except TooLargeError:
        return 0
    if girth_value not in (6, 8):
        return 0
    return tanner_lower_bound(girth_value, int(h.col_weights.min()))


def _support_search(h: SparseBitMatrix, budget: int, seed=None) -> DistanceResult:
    """Lightest nonempty column set summing to zero, of weight at most budget.

    Exact when one is found, since every lighter set was exhausted first;
    otherwise a lower bound of budget + 1.
    """
    budget = check_integer("budget", budget, 1)
    return _smallest_support(h, budget, h.ncols + 1, columns_sum_zero, seed)


def min_distance(h: SparseBitMatrix, budget: int = 6, seed=None) -> DistanceResult:
    """Exact minimum distance when feasible, else a budgeted support search.

    A `seed` (a claimed codeword support) no larger than the girth floor
    goes to `_smallest_support` before any elimination.  Otherwise, with
    code dimension <= ENUM_DIM_CAP every nonzero codeword is enumerated
    from a null-space basis (always exact; the seed is only checked).
    Above the cap, the branch and bound of `_smallest_support` looks from
    the seed for the lightest codeword support up to weight `budget`; a hit
    at weight w is exact because all smaller weights were exhausted first.
    """
    budget = check_integer("budget", budget, 1)
    if seed is not None and len(seed) <= _girth_floor(h):
        return _support_search(h, budget, seed)
    echelon, pivots = _reduced(h)
    k = h.ncols - len(pivots)
    _checked_seed(h, seed, columns_sum_zero, 1)  # a seed here is above the floor
    if k == 0:
        # only the zero codeword; report the conventional n + 1 sentinel
        return DistanceResult(
            value=h.ncols + 1, status=EXACT, witness=None, method=METHOD_ENUMERATION
        )
    if k <= ENUM_DIM_CAP:
        basis = _basis(echelon, pivots, h.ncols)
        w, cw = _min_weight_enumeration(_pack(len(basis), h.ncols, *np.nonzero(basis)))
        witness = frozenset(np.flatnonzero(_bits(cw[None], np.arange(h.ncols))).tolist())
        if not columns_sum_zero(h, witness):
            raise StructureViolationError("enumerated minimum-weight word is not a codeword")
        return DistanceResult(
            value=w, status=EXACT, witness=witness, method=METHOD_ENUMERATION
        )
    return _support_search(h, budget, seed)


def stopping_distance(h: SparseBitMatrix, budget: int | None = None, seed=None) -> DistanceResult:
    """Smallest nonempty column set meeting every row in 0 or >= 2 positions.

    The branch and bound of `_smallest_support` from `seed`, with the rows
    hit exactly once open; without a budget it searches up to every column.
    """
    if budget is not None:
        budget = check_integer("budget", budget, 1)
    if h.ncols == 0 and seed is None:
        # no nonempty column set; report min_distance's n + 1 sentinel
        return DistanceResult(
            value=1, status=EXACT, witness=None, method=METHOD_SUPPORT_SEARCH
        )
    return _smallest_support(h, h.ncols if budget is None else budget, 2, is_stopping_set, seed)


def tanner_lower_bound(girth_value: int, col_weight: int) -> int:
    """Girth-based lower bound on the minimum and stopping distance.

    Girth 6 gives col_weight + 1; girth 8 gives 2 * col_weight.
    """
    if girth_value == 6:
        return col_weight + 1
    if girth_value == 8:
        return 2 * col_weight
    raise UnsupportedGirthError(f"no bound implemented for girth {girth_value}")
