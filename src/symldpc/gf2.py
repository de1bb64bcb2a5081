"""Binary linear algebra: rank, null space, minimum and stopping distance.

Matrices come in as SparseBitMatrix; internally rows live as Python int
bitmasks (bit j = column j), which makes Gaussian elimination and
codeword enumeration cheap at the lengths this package cares about.

Exactness is explicit: DistanceResult.status says whether a search
exhausted everything below the reported value or only proved a lower
bound within its budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import StructureViolationError, UnsupportedGirthError
from .incidence import SparseBitMatrix

# full codeword enumeration is used when the code dimension is at most this
ENUM_DIM_CAP = 25

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


def _support_search(h: SparseBitMatrix, budget: int) -> DistanceResult:
    """Meet-in-the-middle search for the lightest zero-sum column subset.

    Exhausts weights 1..budget in order; exact when a dependency is found,
    otherwise a lower bound of budget + 1.
    """
    masks = col_masks(h)
    ncols = h.ncols
    for w in range(1, budget + 1):
        a = w // 2
        b = w - a
        half: dict[int, tuple[int, ...]] = {}
        if a == 0:
            half[0] = ()
        else:
            stack = [(0, 0, ())]
            while stack:
                start, acc, chosen = stack.pop()
                if len(chosen) == a:
                    half.setdefault(acc, chosen)
                    continue
                for j in range(start, ncols - (a - len(chosen)) + 1):
                    stack.append((j + 1, acc ^ masks[j], chosen + (j,)))
        found = _search_b_side(masks, ncols, b, half)
        if found is not None:
            return DistanceResult(
                value=w,
                status=EXACT,
                witness=frozenset(found),
                method=METHOD_SUPPORT_SEARCH,
            )
    return DistanceResult(
        value=budget + 1,
        status=LOWER_BOUND_ONLY,
        witness=None,
        method=METHOD_SUPPORT_SEARCH,
    )


def _search_b_side(masks, ncols, b, half):
    stack = [(0, 0, ())]
    while stack:
        start, acc, chosen = stack.pop()
        if len(chosen) == b:
            match = half.get(acc)
            if match is not None and not (set(match) & set(chosen)):
                return match + chosen
            continue
        for j in range(start, ncols - (b - len(chosen)) + 1):
            stack.append((j + 1, acc ^ masks[j], chosen + (j,)))
    return None


def min_distance(h: SparseBitMatrix, budget: int = 6) -> DistanceResult:
    """Exact minimum distance when feasible, else a budgeted support search.

    With code dimension <= ENUM_DIM_CAP every nonzero codeword is
    enumerated from a null-space basis (always exact).  Above the cap, all
    column subsets of weight up to `budget` are tested for a GF(2)
    dependency; a hit at weight w is exact because all smaller weights
    were exhausted first.
    """
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
    that row, so branching is forced there; a partial support with no
    lonely rows already is a stopping set.  Exact when the search space
    below the found size is exhausted within the budget.
    """
    ncols = h.ncols
    if budget is None:
        budget = ncols
    best: list[int | None] = [None]
    best_support: list[tuple[int, ...] | None] = [None]
    hits = [0] * h.nrows

    def lonely_row() -> int:
        for i, c in enumerate(hits):
            if c == 1:
                return i
        return -1

    def dfs(support: list[int], in_support: set[int]) -> None:
        row = lonely_row()
        if row < 0:
            size = len(support)
            if best[0] is None or size < best[0]:
                best[0] = size
                best_support[0] = tuple(support)
            return
        limit = budget if best[0] is None else min(budget, best[0] - 1)
        if len(support) + 1 > limit:
            return
        for j in h.row_support[row]:
            if j in in_support:
                continue
            support.append(j)
            in_support.add(j)
            for i in h.col_support[j]:
                hits[i] += 1
            dfs(support, in_support)
            for i in h.col_support[j]:
                hits[i] -= 1
            in_support.remove(j)
            support.pop()

    for j0 in range(ncols):
        if best[0] == 1:
            break
        for i in h.col_support[j0]:
            hits[i] += 1
        dfs([j0], {j0})
        for i in h.col_support[j0]:
            hits[i] -= 1
    if best[0] is None:
        return DistanceResult(
            value=budget + 1,
            status=LOWER_BOUND_ONLY,
            witness=None,
            method=METHOD_SUPPORT_SEARCH,
        )
    if not is_stopping_set(h, best_support[0]):
        raise StructureViolationError("branch-and-bound result is not a stopping set")
    return DistanceResult(
        value=best[0],
        status=EXACT,
        witness=frozenset(best_support[0]),
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
