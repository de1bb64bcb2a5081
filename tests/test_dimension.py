"""The character count of the odd-q geometry dimensions, and the gate in front of it."""

import itertools

import numpy as np
import pytest

from symldpc import (
    FAMILY_SYMMETRIC,
    FAMILY_TRANSPOSE,
    CodeSpec,
    code_dimension,
    field_of_size,
    geometry_dimension,
    make_code,
    sym_space,
    symmetric_dimension_bound,
    transpose_dimension_bound,
)
from symldpc.codes import DIMENSION_CHARACTER_COUNT, DIMENSION_ELIMINATION
from symldpc.exceptions import BadCharacteristicError, BadParametersError
from symldpc.incidence import SparseBitMatrix

FAMILIES = (FAMILY_SYMMETRIC, FAMILY_TRANSPOSE)


def _brute_zero_counts(n: int, q: int) -> np.ndarray:
    """Z(A) for every symmetric A: the projective u with u^T A u = 0, summed over all n^2 terms.

    This is the trace pairing tr(A u u^T), with each off-diagonal entry
    counted twice, not the entry dot product that the library counts with.
    """
    fld = field_of_size(q)
    add, mul = np.array(fld.add_table), np.array(fld.mul_table)
    coords = [(i, j) for i in range(n) for j in range(i, n)]
    entries = np.array(list(itertools.product(range(q), repeat=len(coords))))
    full = np.zeros((len(entries), n, n), dtype=np.int64)
    for k, (i, j) in enumerate(coords):
        full[:, i, j] = full[:, j, i] = entries[:, k]
    # one u per projective point: its first nonzero entry is 1
    us = itertools.product(range(q), repeat=n)
    us = np.array([u for u in us if next(filter(None, u), 0) == 1])
    form = np.zeros((len(entries), len(us)), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            form = add[form, mul[mul[us[None, :, i], full[:, i, j, None]], us[None, :, j]]]
    return (form == 0).sum(axis=1)


@pytest.mark.parametrize(
    "n,q", [(n, q) for n in (1, 2) for q in (3, 5, 7, 9, 11, 25, 27)] + [(3, 3), (3, 5)]
)
def test_count_equals_the_brute_count_of_anisotropic_forms(n, q):
    zeros = _brute_zero_counts(n, q)
    assert sym_space(n, q).anisotropic_count() == int((zeros == 0).sum())
    assert geometry_dimension(FAMILY_SYMMETRIC, n, q) == int((zeros == 0).sum())
    assert geometry_dimension(FAMILY_TRANSPOSE, n, q) == int(np.maximum(zeros - 1, 0).sum())


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize(
    "n,q", [(1, q) for q in (3, 5, 7, 9)] + [(2, q) for q in (3, 5, 7, 9, 11, 13)] + [(3, 3)]
)
def test_count_equals_elimination(family, n, q):
    code = make_code(family, n, q)
    assert code.dimension_method == DIMENSION_CHARACTER_COUNT
    assert code.dimension == code_dimension(code.h)


def test_counted_dimensions_meet_the_paper_bounds():
    # pinned values; the paper's bounds hold with room on all of them
    got = {
        (n, q): tuple(geometry_dimension(family, n, q) for family in FAMILIES)
        for n, q in [(2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (3, 7)]
    }
    assert got == {
        (2, 3): (6, 15), (2, 5): (40, 65), (2, 7): (126, 175),
        (3, 3): (0, 2430), (3, 5): (0, 81250), (3, 7): (0, 840350),
    }
    for (n, q), (dim_c, dim_ct) in got.items():
        assert dim_c <= symmetric_dimension_bound(n, q)
        assert dim_ct <= transpose_dimension_bound(n, q)


def test_count_refuses_even_q_and_unknown_families():
    with pytest.raises(BadCharacteristicError):
        geometry_dimension(FAMILY_SYMMETRIC, 2, 4)
    with pytest.raises(BadParametersError):
        geometry_dimension("gallager_random", 2, 3)


def _without_direction(n: int, q: int, direction: int) -> SparseBitMatrix:
    """H(n,q) less the lines of one direction class."""
    space = sym_space(n, q)
    members, dirs, _ = space._enumeration
    keep = members[dirs != direction]
    return SparseBitMatrix.from_flat(len(keep), space.size, keep, np.full(len(keep), q))


def _entry_moved(h: SparseBitMatrix) -> SparseBitMatrix:
    """h with row 0's last entry moved to the first column outside the row."""
    rows = h.supports()
    rows[0][-1] = next(j for j in range(h.ncols) if j not in rows[0])
    rows[0].sort()
    return SparseBitMatrix.from_rows(h.nrows, h.ncols, rows)


def _rows_reversed(h: SparseBitMatrix) -> SparseBitMatrix:
    return SparseBitMatrix.from_rows(h.nrows, h.ncols, h.supports()[::-1])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (3, 3)])
def test_a_matrix_that_is_not_the_built_one_is_eliminated(family, n, q):
    built = make_code(family, n, q).h
    dropped = _without_direction(n, q, 0)
    others = [_entry_moved(built), _rows_reversed(built), built.transpose()]
    others.append(dropped if family == FAMILY_SYMMETRIC else dropped.transpose())
    for h in others:
        code = CodeSpec(family, h, "altered", n=n, q=q)
        assert code.dimension_method == DIMENSION_ELIMINATION
        assert code.dimension == code_dimension(h)


@pytest.mark.parametrize("n,q,counted,eliminated", [(3, 3, 0, 6), (2, 5, 40, 44)])
def test_dropping_a_direction_class_changes_the_dimension(n, q, counted, eliminated):
    # such an h still passes the translation check, so only equality with the
    # built matrix keeps the count away from it
    code = CodeSpec(FAMILY_SYMMETRIC, _without_direction(n, q, 0), "dropped", n=n, q=q)
    assert geometry_dimension(FAMILY_SYMMETRIC, n, q) == counted
    assert (code.dimension, code.dimension_method) == (eliminated, DIMENSION_ELIMINATION)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n,q", [(2, 5), (3, 3), (1, 3), (5, 101), (40, 99991)])
def test_a_wrong_n_or_q_is_eliminated_without_enumerating(monkeypatch, family, n, q):
    built = make_code(family, 2, 3)
    monkeypatch.setattr(type(sym_space(2, 3)), "line_array", lambda self: pytest.fail("enumerated"))
    code = CodeSpec(family, built.h, "relabelled", n=n, q=q)
    assert code.dimension_method == DIMENSION_ELIMINATION
    assert code.dimension == code_dimension(built.h)


def test_a_q_that_is_not_a_prime_power_is_eliminated():
    # one line of all 15 points has the shape of H(1,15), but GF(15) does not exist
    h = SparseBitMatrix.from_rows(1, 15, [range(15)])
    code = CodeSpec(FAMILY_SYMMETRIC, h, "H(1,15)?", n=1, q=15)
    assert (code.dimension, code.dimension_method) == (14, DIMENSION_ELIMINATION)
