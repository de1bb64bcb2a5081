import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import chain, combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from symldpc import (
    FAMILY_SYMMETRIC,
    FAMILY_TRANSPOSE,
    SparseBitMatrix,
    build_h,
    c2q_witness,
    certified_min_distance,
    code_dimension,
    columns_sum_zero,
    ctranspose_witness,
    girth,
    is_stopping_set,
    make_code,
    min_distance,
    null_space_basis,
    rank_gf2,
    stopping_distance,
    sym_space,
    tanner_lower_bound,
)
from symldpc import gf2
from symldpc.codes import family_witness
from symldpc.exceptions import (
    BadParametersError,
    StructureViolationError,
    TooLargeError,
    UnsupportedGirthError,
)
from symldpc.gf2 import (
    EXACT,
    LOWER_BOUND_ONLY,
    METHOD_SUPPORT_SEARCH,
    METHOD_WITNESS_PLUS_BOUND,
    DistanceResult,
    _support_search,
)

from conftest import per_entry_lists, supports
from test_acceptance import COUNT_INSTANCES


# -- int-bitmask oracles for elimination and enumeration -----------------------


def row_masks(h):
    """Rows as int bitmasks, bit j set for column j."""
    return [sum(1 << j for j in row) for row in h.supports()]


def col_masks(h):
    """Columns as int bitmasks, bit i set for row i."""
    return [sum(1 << i for i in col) for col in h.transpose().supports()]


def _dense(masks, ncols):
    """Int bitmasks as a (len(masks), ncols) uint8 0/1 array."""
    nbytes = -(-ncols // 8)
    out = np.zeros((len(masks), ncols), dtype=np.uint8)
    for t, m in enumerate(masks):
        raw = np.frombuffer(m.to_bytes(nbytes, "little"), dtype=np.uint8)
        out[t] = np.unpackbits(raw, bitorder="little")[:ncols]
    return out


def reference_rref(rows, ncols):
    """Reduced row echelon form of int rows; returns (pivot rows, pivot column indices)."""
    mat = [r for r in rows if r]
    pivots = []
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


def reference_null_space(h):
    """One int bitmask per free column: that column plus the pivots whose RREF row holds it."""
    rref_rows, pivots = reference_rref(row_masks(h), h.ncols)
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


def reference_min_weight(basis):
    """(min weight, argmin codeword) over all 2^k - 1 nonzero codewords, Gray order."""
    best_w = None
    best_cw = 0
    cw = 0
    for t in range(1, 1 << len(basis)):
        cw ^= basis[(t & -t).bit_length() - 1]
        w = bin(cw).count("1")
        if w and (best_w is None or w < best_w):
            best_w = w
            best_cw = cw
    return best_w, best_cw


# -- pure-Python oracles for the two exact searches ---------------------------


def reference_support_search(h, budget):
    """Meet-in-the-middle over a dict of a-subset syndromes and a DFS over b-subsets."""
    masks = col_masks(h)
    ncols = h.ncols
    for w in range(1, budget + 1):
        a = w // 2
        b = w - a
        half = {}
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
        found = _reference_b_side(masks, ncols, b, half)
        if found is not None:
            return DistanceResult(w, EXACT, frozenset(found), METHOD_SUPPORT_SEARCH)
    return DistanceResult(budget + 1, LOWER_BOUND_ONLY, None, METHOD_SUPPORT_SEARCH)


def _reference_b_side(masks, ncols, b, half):
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


def reference_stopping_distance(h, budget=None):
    """Branch and bound on the lowest lonely row, rescanning every row at every node."""
    ncols = h.ncols
    if budget is None:
        budget = ncols
    best = [None]
    best_support = [None]
    hits = [0] * h.nrows
    rows, cols = supports(h)

    def lonely_row():
        for i, c in enumerate(hits):
            if c == 1:
                return i
        return -1

    def dfs(support, in_support):
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
        for j in rows[row]:
            if j in in_support:
                continue
            support.append(j)
            in_support.add(j)
            for i in cols[j]:
                hits[i] += 1
            dfs(support, in_support)
            for i in cols[j]:
                hits[i] -= 1
            in_support.remove(j)
            support.pop()

    for j0 in range(ncols):
        if best[0] == 1:
            break
        for i in cols[j0]:
            hits[i] += 1
        dfs([j0], {j0})
        for i in cols[j0]:
            hits[i] -= 1
    if best[0] is None:
        return DistanceResult(budget + 1, LOWER_BOUND_ONLY, None, METHOD_SUPPORT_SEARCH)
    return DistanceResult(best[0], EXACT, frozenset(best_support[0]), METHOD_SUPPORT_SEARCH)


def _matrix_from_dense(rows):
    arr = np.asarray(rows, dtype=np.uint8)
    return SparseBitMatrix.from_rows(
        arr.shape[0], arr.shape[1], [tuple(np.flatnonzero(r)) for r in arr]
    )


def test_rank_examples(c22):
    assert rank_gf2(c22.h) == 7
    assert rank_gf2(c22.h.transpose()) == 7
    zero = SparseBitMatrix.from_rows(3, 5, [(), (), ()])
    assert rank_gf2(zero) == 0


def test_oversized_elimination_is_refused_before_it_packs(monkeypatch):
    # C(3,7)'s shape, 958009 lines over 7^6 points, with three entries: its
    # packing would take 958009 x 1839 words, 13.1 GiB
    nrows, ncols = 958009, 7**6
    weights = np.zeros(nrows, dtype=np.int64)
    weights[:2] = 2, 1
    h = SparseBitMatrix.from_flat(nrows, ncols, [0, 5, ncols - 1], weights)

    def refuse(*args, **kwargs):
        raise AssertionError("_pack allocated")

    with monkeypatch.context() as m:
        m.setattr(gf2.np, "zeros", refuse)
        for reader in (rank_gf2, code_dimension, null_space_basis):
            with pytest.raises(TooLargeError, match=f"takes {nrows * 1839 * 8} bytes"):
                reader(h)
    # the cap admits a packing of exactly its size: 3 rows of one word
    small = SparseBitMatrix.from_rows(3, 5, [(0, 1), (1, 2), (0, 2)])
    monkeypatch.setattr(gf2, "PACK_BYTE_CAP", 3 * 8)
    assert rank_gf2(small) == 2
    monkeypatch.setattr(gf2, "PACK_BYTE_CAP", 3 * 8 - 1)
    with pytest.raises(TooLargeError, match="takes 24 bytes"):
        rank_gf2(SparseBitMatrix.from_rows(3, 5, [(0, 1), (1, 2), (0, 2)]))


def test_rank_equals_transpose_rank(c24, ct23):
    for h in (c24.h, ct23.h):
        assert rank_gf2(h) == rank_gf2(h.transpose())


def test_code_dimension(c22, ct22, c24):
    assert code_dimension(c22.h) == 1
    assert code_dimension(ct22.h) == 5
    assert code_dimension(c24.h) == 19


def test_null_space_basis_spans_kernel(ct22):
    basis = null_space_basis(ct22.h)
    assert (basis.shape, basis.dtype) == ((5, 12), np.uint8)
    rows = _dense(row_masks(ct22.h), ct22.h.ncols).astype(int)
    assert not (rows @ basis.T % 2).any()


def test_min_distance_exact_small(c22, ct22):
    d = min_distance(c22.h)
    assert (d.value, d.status, d.method) == (8, "exact", "enumeration")
    assert d.witness == frozenset(range(8))
    dt = min_distance(ct22.h)
    assert (dt.value, dt.status) == (4, "exact")
    assert columns_sum_zero(ct22.h, dt.witness)


def test_min_distance_witness_is_minimal(ct23):
    d = min_distance(ct23.h)
    assert d.value == 6
    assert columns_sum_zero(ct23.h, d.witness)
    # dropping any one column leaves an independent set
    for drop in d.witness:
        rest = sorted(d.witness - {drop})
        sub = SparseBitMatrix.from_rows(
            ct23.h.nrows,
            len(rest),
            _columns_as_rows(ct23.h, rest),
        )
        assert rank_gf2(sub) == len(rest)


def _columns_as_rows(h, cols):
    # submatrix with the chosen columns, re-indexed 0..len(cols)-1
    remap = {c: k for k, c in enumerate(cols)}
    rows = []
    for row in h.supports():
        rows.append(tuple(sorted(remap[j] for j in row if j in remap)))
    return rows


def test_min_distance_zero_dimension_sentinel():
    ident = _matrix_from_dense(np.eye(3, dtype=int))
    d = min_distance(ident)
    assert d.value == 4  # ncols + 1 sentinel for the trivial code
    assert d.status == "exact"


def test_support_search_agrees_with_enumeration():
    rng = np.random.default_rng(5)
    dense = (rng.random((8, 18)) < 0.3).astype(int)
    h = _matrix_from_dense(dense)
    exact = min_distance(h)
    assert exact.method == "enumeration"
    searched = _support_search(h, budget=exact.value)
    assert searched.value == exact.value
    assert searched.status == "exact"
    assert columns_sum_zero(h, searched.witness)


def test_support_search_budget_exhaustion():
    ident = _matrix_from_dense(np.eye(6, dtype=int))
    res = _support_search(ident, budget=3)
    assert res.value == 4
    assert res.status == "lower_bound_only"
    assert res.witness is None


def test_support_search_finds_zero_column():
    dense = np.eye(4, dtype=int)
    dense[:, 2] = 0
    res = _support_search(_matrix_from_dense(dense), budget=2)
    assert res.value == 1
    assert res.witness == frozenset({2})


def test_stopping_distance_small(c22, ct22):
    assert stopping_distance(ct22.h).value == 4
    assert stopping_distance(c22.h).value == 8


def test_stopping_distance_matches_brute_force(ct22):
    def brute(h, cap):
        for w in range(1, cap + 1):
            for cols in combinations(range(h.ncols), w):
                if is_stopping_set(h, cols):
                    return w
        return None

    assert brute(ct22.h, 5) == 4
    res = stopping_distance(ct22.h)
    assert res.value == 4
    assert is_stopping_set(ct22.h, res.witness)


def test_stopping_distance_budget_exhaustion():
    ident = _matrix_from_dense(np.eye(5, dtype=int))
    res = stopping_distance(ident, budget=5)
    assert res.status == "lower_bound_only"
    assert res.value == 6


@pytest.mark.parametrize("nrows", [0, 3])
def test_distances_without_columns_report_the_sentinel(nrows):
    # no column means no nonempty column set: both report the n + 1 sentinel
    h = SparseBitMatrix.from_rows(nrows, 0, [()] * nrows)
    for res in (min_distance(h), stopping_distance(h), stopping_distance(h, budget=4)):
        assert (res.value, res.status, res.witness) == (1, "exact", None)
    # the support search on its own only exhausts its budget
    res = _support_search(h, budget=4)
    assert (res.value, res.status, res.witness) == (5, "lower_bound_only", None)


def test_stopping_at_most_min_distance(ct22, ct23, c22):
    for code in (ct22, ct23, c22):
        s = stopping_distance(code.h).value
        d = min_distance(code.h).value
        assert s <= d


def test_codeword_support_is_stopping_set(ct22):
    d = min_distance(ct22.h)
    assert is_stopping_set(ct22.h, d.witness)


@pytest.mark.parametrize("shift", [-12, 12])
@pytest.mark.parametrize("check", [columns_sum_zero, is_stopping_set])
def test_support_checks_refuse_a_column_outside_h(ct22, check, shift):
    # shifted by -12, CT(2,2)'s witness would wrap onto itself and pass
    witness = ctranspose_witness(2, 2)
    assert check(ct22.h, witness)
    with pytest.raises(BadParametersError, match="outside the 12 columns"):
        check(ct22.h, [j + shift for j in witness])


@pytest.mark.parametrize(
    "family, q, witness",
    [(FAMILY_TRANSPOSE, 4, ctranspose_witness(2, 4)), (FAMILY_SYMMETRIC, 4, c2q_witness(4)),
     (FAMILY_TRANSPOSE, 3, ctranspose_witness(2, 3)), (FAMILY_SYMMETRIC, 3, frozenset())],
)
def test_support_checks_read_the_arrays_and_agree_with_the_views(family, q, witness):
    h = make_code(family, 2, q).h
    _, col_rows = supports(h)

    def hits(cols):  # the checks' former form: a Counter over the column supports
        return Counter(chain.from_iterable(col_rows[j] for j in cols)).values()

    rng = random.Random(q)
    picks = [list(witness), [*witness, *witness], sorted(witness)[1:], [0, 0]]
    picks += [[rng.randrange(h.ncols) for _ in range(rng.randint(0, 2 * q))] for _ in range(300)]
    for cols in picks:
        assert columns_sum_zero(h, cols) == all(c % 2 == 0 for c in hits(cols))
        assert is_stopping_set(h, cols) == (bool(cols) and 1 not in hits(set(cols)))
    assert columns_sum_zero(h, witness) and per_entry_lists(h) == []


def test_tanner_lower_bound():
    assert tanner_lower_bound(8, 2) == 4
    assert tanner_lower_bound(8, 5) == 10
    assert tanner_lower_bound(6, 3) == 4
    with pytest.raises(UnsupportedGirthError):
        tanner_lower_bound(10, 3)


def test_searched_distances_respect_girth_bound(c22, ct22, ct23, c24):
    for code in (c22, ct22, ct23, c24):
        col_weight = int(code.h.col_weights[0])
        assert min_distance(code.h).value >= tanner_lower_bound(8, col_weight)
    for code in (c22, ct22, ct23):
        col_weight = int(code.h.col_weights[0])
        assert stopping_distance(code.h).value >= tanner_lower_bound(8, col_weight)


# -- packed elimination and enumeration against their oracles ------------------


def _assert_elimination_matches_oracle(h):
    _, pivots = reference_rref(row_masks(h), h.ncols)
    assert rank_gf2(h) == len(pivots)
    assert code_dimension(h) == h.ncols - len(pivots)
    basis = null_space_basis(h)
    assert basis.dtype == np.uint8
    # the RREF basis is canonical, so the two must agree row for row
    np.testing.assert_array_equal(basis, _dense(reference_null_space(h), h.ncols))


def _assert_min_weight_matches_oracle(h):
    got = min_distance(h)
    basis = reference_null_space(h)
    if not basis:
        assert (got.value, got.status, got.witness) == (h.ncols + 1, EXACT, None)
        return
    want = reference_min_weight(basis)[0]
    assert (got.value, got.status, got.method) == (want, EXACT, "enumeration")
    assert len(got.witness) == got.value
    assert columns_sum_zero(h, got.witness)
    # a nonempty proper subset of a minimum-weight word is no codeword
    assert got.value == 1 or not columns_sum_zero(h, sorted(got.witness)[1:])


# widths on both sides of the 64-column word boundaries
_WIDTHS = st.one_of(st.integers(0, 20), st.sampled_from([63, 64, 65, 127, 128, 129]))


@st.composite
def _gf2_matrices(draw, max_dimension=None):
    """Random matrices with all-zero rows and columns and repeated rows.

    With max_dimension set, the matrix gets ncols - d rows for a drawn
    d <= max_dimension, so its null space stays small enough to enumerate.
    """
    ncols = draw(_WIDTHS)
    if max_dimension is None:
        nrows = draw(st.integers(0, 12))
    else:
        nrows = max(0, ncols - draw(st.integers(0, max_dimension)))
    density = draw(st.sampled_from([0.1, 0.3, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = (rng.random((nrows, ncols)) < density).astype(np.uint8)
    if nrows and draw(st.booleans()):
        dense[draw(st.integers(0, nrows - 1))] = 0
    if nrows > 1 and draw(st.booleans()):
        src, dst = draw(st.lists(st.integers(0, nrows - 1), min_size=2, max_size=2, unique=True))
        dense[dst] = dense[src]
    if ncols and draw(st.booleans()):
        dense[:, draw(st.integers(0, ncols - 1))] = 0
    return _matrix_from_dense(dense)


@given(_gf2_matrices())
@settings(max_examples=300, deadline=None)
@example(SparseBitMatrix.from_rows(0, 0, []))
@example(SparseBitMatrix.from_rows(3, 0, [(), (), ()]))
@example(SparseBitMatrix.from_rows(0, 65, []))
def test_elimination_matches_oracle(h):
    _assert_elimination_matches_oracle(h)


@given(_gf2_matrices(max_dimension=12))
@settings(max_examples=150, deadline=None)
def test_min_weight_matches_oracle(h):
    assume(len(reference_null_space(h)) <= 17)
    _assert_min_weight_matches_oracle(h)


@pytest.mark.parametrize(
    "ncols, dimension", [(30, 12), (30, 13), (40, 17), (65, 18), (129, 19)]
)
def test_min_weight_past_the_doubling_table_matches_oracle(ncols, dimension):
    # dimensions above 12 XOR the 2^12-entry table with Gray-ordered offsets
    rng = np.random.default_rng(ncols)
    h = _matrix_from_dense(rng.random((ncols - dimension, ncols)) < 0.4)
    assert code_dimension(h) == dimension
    _assert_min_weight_matches_oracle(h)


def test_min_distance_enumeration_memory(c24):
    # the whole 2^16-entry table and each XOR of it: 3.7 MB traced
    h = SparseBitMatrix.from_rows(c24.h.nrows, c24.h.ncols, c24.h.supports())
    tracemalloc.start()
    try:
        got = min_distance(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got.value, got.status, got.method) == (16, EXACT, "enumeration")
    assert peak < 2_000_000


def test_elimination_is_computed_once_per_matrix_and_read_only(monkeypatch, ct23):
    calls = []
    echelon = gf2._echelon
    monkeypatch.setattr(gf2, "_echelon", lambda h: calls.append(h) or echelon(h))
    h = SparseBitMatrix.from_rows(ct23.h.nrows, ct23.h.ncols, ct23.h.supports())
    assert code_dimension(h) == h.ncols - rank_gf2(h)
    null_space_basis(h)
    min_distance(h)
    assert len(calls) == 1
    mat, _ = gf2._reduced(h)
    with pytest.raises(ValueError):
        mat[0, 0] = 0
    # equal matrices do not share it
    twin = SparseBitMatrix.from_rows(h.nrows, h.ncols, h.supports())
    assert twin == h and rank_gf2(twin) == rank_gf2(h)
    assert len(calls) == 2


@pytest.mark.parametrize("transpose", [False, True], ids=["H", "HT"])
@pytest.mark.parametrize("n, q", COUNT_INSTANCES)
def test_elimination_matches_oracle_on_count_instances(n, q, transpose):
    h = build_h(sym_space(n, q))
    _assert_elimination_matches_oracle(h.transpose() if transpose else h)


# -- the fast searches against their oracles -----------------------------------


def girth_floor(h):
    """The Tanner bound from h's girth and least column weight, at girth 6 or 8; else 0."""
    g = girth(h)
    return tanner_lower_bound(g, int(h.col_weights.min())) if g in (6, 8) else 0


def floored(h, want):
    """An oracle's result under the girth floor.

    The floor is a proof, so an exact value never lies below it; where the
    oracle finds nothing within the budget, the result is the floor when
    that exceeds budget + 1.
    """
    floor = girth_floor(h)
    if want.exact:
        assert want.value >= floor
        return want
    return DistanceResult(max(want.value, floor), LOWER_BOUND_ONLY, None, METHOD_SUPPORT_SEARCH)


def _assert_support_search_matches_oracle(h, budget):
    got = _support_search(h, budget)
    want = floored(h, reference_support_search(h, budget))
    assert (got.value, got.status) == (want.value, want.status)
    if got.exact:
        assert len(got.witness) == got.value
        assert columns_sum_zero(h, got.witness)
    else:
        assert got.witness is None


def _assert_stopping_distance_matches_oracle(h, budget):
    got = stopping_distance(h, budget=budget)
    want = floored(h, reference_stopping_distance(h, budget=budget))
    assert (got.value, got.status) == (want.value, want.status)
    if got.exact:
        assert len(got.witness) == got.value
        assert is_stopping_set(h, got.witness)
    else:
        assert got.witness is None


@st.composite
def _small_matrices(draw):
    """Sparse random matrices up to 10 x 14, some with zero or repeated columns."""
    nrows = draw(st.integers(1, 10))
    ncols = draw(st.integers(1, 14))
    density = draw(st.sampled_from([0.15, 0.3, 0.5]))
    cells = draw(st.lists(st.floats(0, 1), min_size=nrows * ncols, max_size=nrows * ncols))
    dense = (np.array(cells).reshape(nrows, ncols) < density).astype(int)
    if draw(st.booleans()):
        dense[:, draw(st.integers(0, ncols - 1))] = 0
    if ncols > 1 and draw(st.booleans()):
        src, dst = draw(st.lists(st.integers(0, ncols - 1), min_size=2, max_size=2, unique=True))
        dense[:, dst] = dense[:, src]
    return _matrix_from_dense(dense)


@given(_small_matrices(), st.integers(1, 9))
@settings(max_examples=300, deadline=None)
@example(_matrix_from_dense(np.eye(5, dtype=int)), 6)  # full rank: budget exhausted
# the three columns form a stopping set (row 0 is hit three times) but no codeword
@example(_matrix_from_dense([[1, 1, 1], [1, 1, 0], [0, 1, 1], [1, 0, 1]]), 3)
def test_support_search_matches_oracle(h, budget):
    _assert_support_search_matches_oracle(h, budget)


@given(_small_matrices(), st.one_of(st.none(), st.integers(1, 15)))
@settings(max_examples=300, deadline=None)
@example(_matrix_from_dense(np.eye(5, dtype=int)), None)  # no stopping set at all
def test_stopping_distance_matches_oracle(h, budget):
    _assert_stopping_distance_matches_oracle(h, budget)


def test_support_search_compares_every_word_past_64_rows():
    # columns 0 and 1 agree on rows 0..63 and differ on rows 64 and 65, so a
    # key of the first word alone would report a false weight-2 dependency
    rows = [() for _ in range(70)]
    rows[0] = (0, 1)
    rows[64] = (0, 2)
    rows[65] = (1, 2)
    rows[69] = (3,)
    h = SparseBitMatrix.from_rows(70, 4, rows)
    res = _support_search(h, budget=4)
    assert (res.value, res.status, res.witness) == (3, "exact", frozenset({0, 1, 2}))
    _assert_support_search_matches_oracle(h, 4)


@pytest.mark.parametrize("seed", [3, 5, 11])
def test_searches_match_oracles_past_64_rows(seed):
    # 16 random rows straddling the word boundary at row 64 leave light
    # dependencies and stopping sets (exact at budget 6, not all at 3)
    rng = np.random.default_rng(seed)
    dense = np.zeros((72, 24), dtype=int)
    dense[56:] = rng.random((16, 24)) < 0.25
    h = _matrix_from_dense(dense)
    for budget in (3, 6):
        _assert_support_search_matches_oracle(h, budget)
        _assert_stopping_distance_matches_oracle(h, budget)


@pytest.mark.parametrize("name", ["c22", "ct22", "ct23", "ct24"])
def test_searches_match_oracles_on_geometry_codes(name, request):
    h = request.getfixturevalue(name).h
    _assert_support_search_matches_oracle(h, 8)
    _assert_stopping_distance_matches_oracle(h, 8)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_support_search_meets_the_transpose_certificate(q):
    # the 2q dependent lines of CT(2,q) are found by search, not only certified
    code = make_code(FAMILY_TRANSPOSE, 2, q)
    res = _support_search(code.h, budget=2 * q)
    assert (res.value, res.status) == (2 * q, "exact")
    assert res.value == certified_min_distance(code).value
    assert columns_sum_zero(code.h, res.witness)


def test_min_distance_of_ct28_at_the_default_budget():
    # girth 8 and column weight 8 put every codeword at 16 or more, above budget 6
    d = min_distance(make_code(FAMILY_TRANSPOSE, 2, 8).h)
    assert (d.value, d.status, d.method) == (16, "lower_bound_only", "support_search")


@pytest.mark.parametrize(
    "family, n, q, floor",
    [(FAMILY_SYMMETRIC, 2, 8, 18), (FAMILY_TRANSPOSE, 2, 8, 16), (FAMILY_SYMMETRIC, 3, 4, 42)],
)
def test_a_budget_below_the_girth_floor_reports_the_floor(family, n, q, floor):
    h = make_code(family, n, q).h
    assert girth_floor(h) == floor
    for budget in (1, floor - 2, floor - 1):
        res = stopping_distance(h, budget=budget)
        assert (res.value, res.status, res.witness) == (floor, LOWER_BOUND_ONLY, None)
    # one more than the budget when that is larger: budget + 1 is proved too
    res = _support_search(h, budget=floor - 1)
    assert (res.value, res.status) == (floor, LOWER_BOUND_ONLY)


def test_stopping_distance_of_c28_below_the_floor_returns_at_once():
    # it searched past 150 s before the floor
    h = make_code(FAMILY_SYMMETRIC, 2, 8).h
    res = stopping_distance(h, budget=16)
    assert (res.value, res.status) == (18, LOWER_BOUND_ONLY)


def test_a_set_of_the_floor_size_ends_the_search(monkeypatch):
    # root 0 reaches the triangle {0, 1, 2} first; the pair {3, 4} is smaller
    h = SparseBitMatrix.from_rows(4, 5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert girth_floor(h) == 2  # girth 6, columns 3 and 4 of weight 1
    assert stopping_distance(h).witness == frozenset({3, 4})
    # a floor of 3 would end the search at the triangle
    monkeypatch.setattr(gf2, "_girth_floor", lambda h: 3)
    assert stopping_distance(h).witness == frozenset({0, 1, 2})


def test_ct24_distances_exact_at_budget_eight(ct24):
    d = min_distance(ct24.h, budget=8)
    assert (d.value, d.status, d.method) == (8, "exact", "support_search")
    st_res = stopping_distance(ct24.h, budget=8)
    assert (st_res.value, st_res.status) == (8, "exact")


@pytest.mark.parametrize("budget", [0, -3])
def test_searches_reject_budget_below_one(ct22, budget):
    with pytest.raises(BadParametersError, match="budget"):
        min_distance(ct22.h, budget=budget)
    with pytest.raises(BadParametersError, match="budget"):
        stopping_distance(ct22.h, budget=budget)
    with pytest.raises(BadParametersError, match="budget"):
        _support_search(ct22.h, budget=budget)


@pytest.mark.parametrize("budget", [2.5, True, "3", np.float64(4.0)])
@pytest.mark.parametrize("search", [min_distance, stopping_distance, _support_search])
def test_searches_reject_budgets_that_are_not_integers(ct22, search, budget):
    with pytest.raises(BadParametersError, match="budget must be an integer >= 1"):
        search(ct22.h, budget=budget)


def test_support_search_rejects_wrong_witness_under_optimize():
    # -O strips asserts, so the witness check must be a real raise
    script = """
import sys
import symldpc as s
import symldpc.gf2 as g
from symldpc.exceptions import StructureViolationError
if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
code = s.make_code(s.FAMILY_TRANSPOSE, 2, 2)
g.columns_sum_zero = lambda h, cols: False
try:
    g._support_search(code.h, 6)
except StructureViolationError:
    print("refused")
else:
    print("accepted")
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "refused"


@pytest.mark.parametrize("q,budget,value,status", [(4, 16, 16, "exact"), (5, 12, 13, "lower_bound_only")])
def test_stopping_distance_of_the_symmetric_family(q, budget, value, status):
    # the counting bound on lonely rows makes these budgets a second each
    res = stopping_distance(make_code(FAMILY_SYMMETRIC, 2, q).h, budget=budget)
    assert (res.value, res.status) == (value, status)


def _cycle(n):
    """n checks on n columns, check i on columns i and i + 1 mod n."""
    return SparseBitMatrix.from_rows(n, n, [sorted({i, (i + 1) % n}) for i in range(n)])


def test_stopping_search_runs_deeper_than_the_recursion_limit():
    # the only stopping set of a cycle is every column, so the search goes
    # 1200 columns deep, past the interpreter's default limit of 1000 frames
    res = stopping_distance(_cycle(1200))
    assert (res.value, res.status, res.witness) == (1200, "exact", frozenset(range(1200)))


@pytest.mark.parametrize(
    "family,n,q,search,budget,witness",
    [
        (
            FAMILY_SYMMETRIC, 2, 3, stopping_distance, None,
            [0, 1, 7, 8, 9, 10, 12, 14, 21, 23, 25, 26],
        ),
        (FAMILY_TRANSPOSE, 2, 3, stopping_distance, None, [0, 1, 4, 7, 30, 33]),
        (FAMILY_TRANSPOSE, 2, 4, stopping_distance, 8, [0, 1, 5, 9, 13, 68, 72, 76]),
        (FAMILY_TRANSPOSE, 2, 3, _support_search, 6, [0, 1, 4, 7, 30, 33]),
        (FAMILY_TRANSPOSE, 2, 4, _support_search, 8, [0, 1, 5, 9, 13, 68, 72, 76]),
    ],
)
def test_support_search_witnesses_keep_their_branching_order(family, n, q, search, budget, witness):
    # the first witness the branch and bound meets depends on the order it
    # tries columns in; these are the witnesses of the recursive search
    res = search(make_code(family, n, q).h, budget)
    assert (res.value, res.status, sorted(res.witness)) == (len(witness), "exact", witness)


SEARCHES = {
    "codeword": (_support_search, columns_sum_zero),
    "stopping": (stopping_distance, is_stopping_set),
}


@pytest.mark.parametrize("search", sorted(SEARCHES))
@pytest.mark.parametrize(
    "name, budget, witness",
    [("c22", 8, None), ("ct22", 8, None), ("ct23", 8, None), ("ct24", 8, None),
     ("c24", 16, c2q_witness(4))],
)
def test_seeded_and_unseeded_searches_agree(name, budget, witness, search, request):
    code = request.getfixturevalue(name)
    seed = family_witness(code) if witness is None else witness
    run, holds = SEARCHES[search]
    seeded, plain = run(code.h, budget, seed=seed), run(code.h, budget)
    assert (seeded.value, seeded.status) == (plain.value, plain.status) == (len(seed), EXACT)
    assert holds(code.h, seeded.witness)
    at_floor = len(seed) == girth_floor(code.h)
    assert seeded.method == (METHOD_WITNESS_PLUS_BOUND if at_floor else METHOD_SUPPORT_SEARCH)
    assert min_distance(code.h, budget, seed=seed).value == min_distance(code.h, budget).value


@pytest.mark.parametrize("q", [5, 8])
@pytest.mark.parametrize("search", [min_distance, stopping_distance])
def test_a_seed_at_the_floor_is_exact_at_once(q, search):
    # unseeded, the stopping search took 8.4 s to reach 10 on CT(2,5) and ran
    # past 90 s on CT(2,8)
    h = make_code(FAMILY_TRANSPOSE, 2, q).h
    start = time.perf_counter()
    res = search(h, seed=ctranspose_witness(2, q))
    assert time.perf_counter() - start < 1.0
    assert (res.value, res.status, res.method) == (2 * q, EXACT, METHOD_WITNESS_PLUS_BOUND)
    assert res.witness == ctranspose_witness(2, q)


def test_a_seed_at_the_floor_needs_no_elimination(monkeypatch):
    # the floor check comes before the elimination, which CT(3,5) would pay 172 s for
    h = make_code(FAMILY_TRANSPOSE, 3, 4).h

    def refuse(h):
        raise AssertionError("min_distance eliminated before reading the seed")

    monkeypatch.setattr(gf2, "_echelon", refuse)
    res = min_distance(h, seed=ctranspose_witness(3, 4))
    assert (res.value, res.status, res.method) == (8, EXACT, METHOD_WITNESS_PLUS_BOUND)


@pytest.mark.parametrize("search", [_support_search, stopping_distance])
def test_a_seed_past_the_budget_keeps_the_budget(c24, search):
    # C(2,4)'s 16-point witness: at budget 12 it is not used, at budget 15
    # it is the one set left once every smaller one is ruled out
    seed = c2q_witness(4)
    res = search(c24.h, 12, seed=seed)
    assert (res.value, res.status, res.witness) == (13, LOWER_BOUND_ONLY, None)
    res = search(c24.h, 15, seed=seed)
    assert (res.value, res.status, res.method) == (16, EXACT, METHOD_SUPPORT_SEARCH)
    assert search(c24.h, 15).status == LOWER_BOUND_ONLY


@pytest.mark.parametrize("search", [min_distance, _support_search, stopping_distance])
def test_a_bad_seed_is_refused(ct23, search, monkeypatch):
    # empty, a repeated column, below the floor, failing the check
    witness = sorted(ctranspose_witness(2, 3))
    for seed in ([], witness + witness[:1], witness[1:], list(range(6))):
        with pytest.raises(StructureViolationError, match="seed"):
            search(ct23.h, 8, seed=seed)
    # the witness passes both checks, so only the floor refuses it here
    monkeypatch.setattr(gf2, "_girth_floor", lambda h: 7)
    with pytest.raises(StructureViolationError, match="7 or more"):
        search(ct23.h, 8, seed=witness)


def test_a_seed_is_checked_where_there_is_nothing_to_search():
    # no column, or no nonzero codeword: no seed can hold, and none is passed over
    no_columns = SparseBitMatrix.from_rows(2, 0, [(), ()])
    for search in (min_distance, stopping_distance):
        with pytest.raises(BadParametersError, match="outside the 0 columns"):
            search(no_columns, seed=[0])
    with pytest.raises(StructureViolationError, match="seed"):
        stopping_distance(no_columns, seed=[])
    full_rank = _matrix_from_dense(np.eye(3, dtype=int))
    assert min_distance(full_rank).value == 4
    with pytest.raises(StructureViolationError, match="seed"):
        min_distance(full_rank, seed=[0])
