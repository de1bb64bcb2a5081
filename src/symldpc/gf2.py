"""Binary linear algebra: rank, null space, minimum and stopping distance.

Matrices come in as SparseBitMatrix; internally rows live as Python int
bitmasks (bit j = column j), which makes Gaussian elimination and
codeword enumeration cheap at the lengths this package cares about.
The support search keeps its column-subset tables as numpy arrays of
column syndromes packed 64 rows per uint64 word.

Exactness is explicit: DistanceResult.status says whether a search
exhausted everything below the reported value or only proved a lower
bound within its budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    BadParametersError,
    StructureViolationError,
    TooLargeError,
    UnsupportedGirthError,
)
from .incidence import SparseBitMatrix

# full codeword enumeration is used when the code dimension is at most this
ENUM_DIM_CAP = 25
# the support search refuses a budget whose largest half-subset table exceeds this
SUPPORT_TABLE_CAP = 1 << 24

_WORD_MASK = (1 << 64) - 1

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


def row_masks(h: SparseBitMatrix) -> list[int]:
    """Rows as int bitmasks, bit j set for column j."""
    out = []
    for row in h.row_support:
        m = 0
        for j in row:
            m |= 1 << j
        out.append(m)
    return out


def col_masks(h: SparseBitMatrix) -> list[int]:
    """Columns as int bitmasks, bit i set for row i."""
    out = []
    for col in h.col_support:
        m = 0
        for i in col:
            m |= 1 << i
        out.append(m)
    return out


def _rref(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (pivot rows, pivot column indices)."""
    mat = [r for r in rows if r]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        bit = 1 << c
        piv = None
        for i in range(r, len(mat)):
            if mat[i] & bit:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and (mat[i] & bit):
                mat[i] ^= mat[r]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[: len(pivots)], pivots


def rank_gf2(h: SparseBitMatrix) -> int:
    """Rank over GF(2)."""
    _, pivots = _rref(row_masks(h), h.ncols)
    return len(pivots)


def code_dimension(h: SparseBitMatrix) -> int:
    """Dimension of the null space: ncols - rank."""
    return h.ncols - rank_gf2(h)


def null_space_basis(h: SparseBitMatrix) -> list[int]:
    """Basis of the GF(2) null space, one bitmask per free column."""
    rref_rows, pivots = _rref(row_masks(h), h.ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(h.ncols):
        if f in pivot_set:
            continue
        v = 1 << f
        for row, pcol in zip(rref_rows, pivots):
            if row & (1 << f):
                v |= 1 << pcol
        basis.append(v)
    return basis


def columns_sum_zero(h: SparseBitMatrix, cols) -> bool:
    """True when the chosen columns sum to zero over GF(2)."""
    acc = 0
    masks = col_masks(h)
    for j in cols:
        acc ^= masks[j]
    return acc == 0


def is_stopping_set(h: SparseBitMatrix, cols) -> bool:
    """True when every row meets the nonempty column set in 0 or >= 2 positions."""
    sel = set(int(j) for j in cols)
    if not sel:
        return False
    touched_rows = set()
    for j in sel:
        touched_rows.update(h.col_support[j])
    for i in touched_rows:
        hits = sum(1 for j in h.row_support[i] if j in sel)
        if hits == 1:
            return False
    return True


def _support(mask: int) -> frozenset[int]:
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return frozenset(out)


def _min_weight_enumeration(basis: list[int]) -> tuple[int, int]:
    """(min weight, argmin codeword) over all 2^k - 1 nonzero codewords, Gray order."""
    best_w = None
    best_cw = 0
    cw = 0
    for t in range(1, 1 << len(basis)):
        gray_bit = (t & -t).bit_length() - 1
        cw ^= basis[gray_bit]
        w = cw.bit_count()
        if w and (best_w is None or w < best_w):
            best_w = w
            best_cw = cw
    if best_w is None:
        raise StructureViolationError("null-space basis spans no nonzero codeword")
    return best_w, best_cw


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise BadParametersError(f"distance search budget must be >= 1, got {budget}")


def _packed_columns(h: SparseBitMatrix) -> np.ndarray:
    """Column syndromes packed 64 rows per uint64 word, shape (ncols, words)."""
    words = max(1, -(-h.nrows // 64))
    table = [[(m >> (64 * w)) & _WORD_MASK for w in range(words)] for m in col_masks(h)]
    return np.array(table, dtype=np.uint64).reshape(h.ncols, words)


def _extend(cols: np.ndarray, keys: np.ndarray, packed: np.ndarray):
    """The (k+1)-subset table from the k-subset table.

    A table lists every subset as its ascending column indices with its
    packed syndrome, grouped by ascending last column.  The subsets that
    column j extends (those ending below j) are therefore a prefix of the
    k-table, and the (k+1)-table comes out grouped by j in turn.
    """
    last = cols[:, -1] if cols.shape[1] else np.array([-1])
    counts = np.searchsorted(last, np.arange(packed.shape[0]))
    total = int(counts.sum())
    out_cols = np.empty((total, cols.shape[1] + 1), dtype=cols.dtype)
    out_keys = np.empty((total, keys.shape[1]), dtype=np.uint64)
    start = 0
    for j, count in enumerate(counts):
        stop = start + count
        out_cols[start:stop, :-1] = cols[:count]
        out_cols[start:stop, -1] = j
        np.bitwise_xor(keys[:count], packed[j], out=out_keys[start:stop])
        start = stop
    return out_cols, out_keys


def _exact_keys(keys: np.ndarray) -> np.ndarray:
    """One sortable key per subset that is equal exactly when all its words are."""
    if keys.shape[1] == 1:
        return keys[:, 0]
    return keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))[:, 0]


def _matching_pair(h, table_a, table_b, sorted_a, sorted_b) -> frozenset[int] | None:
    """Union of the first disjoint a- and b-subsets with equal keys, checked to sum to zero."""
    if table_a is table_b:  # a == b: every subset matches itself, so look for repeats
        shared = sorted_a[1:][sorted_a[1:] == sorted_a[:-1]]
    else:
        pos = np.minimum(np.searchsorted(sorted_b, sorted_a), len(sorted_b) - 1)
        shared = sorted_a[sorted_b[pos] == sorted_a]
    for key in shared:
        firsts = table_a[0][_exact_keys(table_a[1]) == key].tolist()
        seconds = table_b[0][_exact_keys(table_b[1]) == key].tolist()
        for first in firsts:
            for second in seconds:
                if set(first).isdisjoint(second):
                    witness = frozenset(first + second)
                    if not columns_sum_zero(h, witness):
                        raise StructureViolationError(
                            f"support search witness {sorted(witness)} does not sum to zero"
                        )
                    return witness
    return None


def _support_search(h: SparseBitMatrix, budget: int) -> DistanceResult:
    """Meet-in-the-middle search for the lightest zero-sum column subset.

    Exhausts weights 1..budget in order; exact when a dependency is found,
    otherwise a lower bound of budget + 1.  Weight w looks for an a-subset
    and a b-subset (a = w // 2, b = w - a) with the same packed syndrome.
    Each subset table's keys are sorted once: the sorted a-keys are looked
    up in the sorted b-keys, or, when a == b, equal neighbours are taken,
    since every subset matches itself.  Once no lighter dependency exists,
    two distinct subsets with equal syndromes are disjoint and their union
    is a dependency of weight w.
    """
    _check_budget(budget)
    half = budget - budget // 2
    largest = max(math.comb(h.ncols, k) for k in range(min(half, h.ncols) + 1))
    if largest > SUPPORT_TABLE_CAP:
        raise TooLargeError(
            f"support search to weight {budget} needs {largest} subsets of "
            f"{h.ncols} columns in one table, exceeding cap {SUPPORT_TABLE_CAP}"
        )
    packed = _packed_columns(h)
    tables = [
        (np.zeros((1, 0), dtype=np.min_scalar_type(h.ncols)),
         np.zeros((1, packed.shape[1]), dtype=np.uint64))
    ]
    sorted_keys: dict[int, np.ndarray] = {}
    for w in range(1, budget + 1):
        a, b = w // 2, w - w // 2
        if len(tables) == b:
            tables.append(_extend(*tables[-1], packed))
        if not len(tables[b][0]):
            break  # b > ncols: no subsets at this weight or any heavier one
        for k in (a, b):
            if k not in sorted_keys:
                sorted_keys[k] = np.sort(_exact_keys(tables[k][1]))
        witness = _matching_pair(h, tables[a], tables[b], sorted_keys[a], sorted_keys[b])
        if witness is not None:
            return DistanceResult(
                value=w, status=EXACT, witness=witness, method=METHOD_SUPPORT_SEARCH
            )
        if a < b:
            # heavier weights pair only the tables from b up
            tables[a] = None
            del sorted_keys[a]
    return DistanceResult(
        value=budget + 1,
        status=LOWER_BOUND_ONLY,
        witness=None,
        method=METHOD_SUPPORT_SEARCH,
    )


def min_distance(h: SparseBitMatrix, budget: int = 6) -> DistanceResult:
    """Exact minimum distance when feasible, else a budgeted support search.

    With code dimension <= ENUM_DIM_CAP every nonzero codeword is
    enumerated from a null-space basis (always exact).  Above the cap, all
    column subsets of weight up to `budget` are tested for a GF(2)
    dependency; a hit at weight w is exact because all smaller weights
    were exhausted first.
    """
    _check_budget(budget)
    basis = null_space_basis(h)
    k = len(basis)
    if k == 0:
        # only the zero codeword; report the conventional n + 1 sentinel
        return DistanceResult(
            value=h.ncols + 1, status=EXACT, witness=None, method=METHOD_ENUMERATION
        )
    if k <= ENUM_DIM_CAP:
        w, cw = _min_weight_enumeration(basis)
        witness = _support(cw)
        if not columns_sum_zero(h, witness):
            raise StructureViolationError("enumerated minimum-weight word is not a codeword")
        return DistanceResult(
            value=w, status=EXACT, witness=witness, method=METHOD_ENUMERATION
        )
    return _support_search(h, budget)


def stopping_distance(h: SparseBitMatrix, budget: int | None = None) -> DistanceResult:
    """Smallest nonempty column set meeting every row in 0 or >= 2 positions.

    Branch and bound: a partial support with a "lonely" row (exactly one
    hit) can only grow into a stopping set by adding another column of
    that row, so branching is forced on the lowest lonely row; a partial
    support with no lonely rows already is a stopping set.  The search
    rooted at column j0 adds no column below j0: a stopping set whose
    smallest column is m is reached inside itself from root m, so the
    roots together stay exhaustive.  Exact when the search space below
    the found size is exhausted within the budget.
    """
    if budget is None:
        budget = h.ncols
    _check_budget(budget)
    rows, cols = h.row_support, h.col_support
    hits = [0] * h.nrows
    in_support = [False] * h.ncols
    support: list[int] = []
    lonely = 0  # bit i is set while row i has exactly one hit
    bound = budget + 1  # only supports smaller than this are still wanted
    best: tuple[int, ...] | None = None
    floor = 0

    def grow(j: int) -> None:
        nonlocal lonely, bound, best
        support.append(j)
        in_support[j] = True
        for i in cols[j]:
            c = hits[i]
            hits[i] = c + 1
            if c < 2:
                lonely ^= 1 << i
        if not lonely:
            bound = len(support)
            best = tuple(support)
        else:
            row = (lonely & -lonely).bit_length() - 1
            for k in rows[row]:
                if len(support) + 1 >= bound:
                    break
                if k >= floor and not in_support[k]:
                    grow(k)
        for i in cols[j]:
            c = hits[i] - 1
            hits[i] = c
            if c < 2:
                lonely ^= 1 << i
        in_support[j] = False
        support.pop()

    for j0 in range(h.ncols):
        if bound == 1:
            break
        floor = j0
        grow(j0)
    if best is None:
        return DistanceResult(
            value=budget + 1,
            status=LOWER_BOUND_ONLY,
            witness=None,
            method=METHOD_SUPPORT_SEARCH,
        )
    if not is_stopping_set(h, best):
        raise StructureViolationError("branch-and-bound result is not a stopping set")
    return DistanceResult(
        value=len(best),
        status=EXACT,
        witness=frozenset(best),
        method=METHOD_SUPPORT_SEARCH,
    )


def tanner_lower_bound(girth_value: int, col_weight: int) -> int:
    """Girth-based lower bound on the minimum and stopping distance.

    Girth 6 gives col_weight + 1; girth 8 gives 2 * col_weight.
    """
    if girth_value == 6:
        return col_weight + 1
    if girth_value == 8:
        return 2 * col_weight
    raise UnsupportedGirthError(f"no bound implemented for girth {girth_value}")
