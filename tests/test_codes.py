import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symldpc import (
    FAMILY_SYMMETRIC,
    FAMILY_TRANSPOSE,
    CodeSpec,
    c2q_witness,
    certified_min_distance,
    certified_stopping_distance,
    columns_sum_zero,
    ctranspose_witness,
    gallager_random,
    independent_row_family,
    make_code,
    min_distance,
    rank_gf2,
    stopping_distance,
    sym_space,
    symmetric_dimension_bound,
    transpose_dimension_bound,
)
from symldpc import gf2
from symldpc.exceptions import BadCharacteristicError, BadParametersError, StructureViolationError
from symldpc.incidence import SparseBitMatrix

from conftest import supports
from fixture_h22 import DEPENDENT_TRANSPOSE_COLUMNS, L_LINES, V_POINTS


def test_make_code_parameters(c22, ct22, c24, ct24):
    assert (c22.length, c22.dimension) == (8, 1)
    assert (ct22.length, ct22.dimension) == (12, 5)
    assert (c24.length, c24.dimension) == (64, 19)
    assert (ct24.length, ct24.dimension) == (80, 35)
    assert ct24.h.nrows == 64 and ct24.h.ncols == 80
    assert c22.labels == {"rows": "lines", "cols": "points"}
    assert ct22.labels == {"rows": "points", "cols": "lines"}


def test_make_code_rejects_unknown_family():
    with pytest.raises(BadParametersError):
        make_code("mystery", 2, 2)


def test_ctranspose_witness_matches_fixture_lines():
    # map the fixture's dependent transpose columns into canonical line indices
    sp = sym_space(2, 2)
    expected = set()
    for lno in DEPENDENT_TRANSPOSE_COLUMNS:
        members = sorted(sp.point(V_POINTS[v - 1]).index for v in L_LINES[lno - 1])
        expected.add(sp.line_index(members))
    assert ctranspose_witness(2, 2) == frozenset(expected)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_ctranspose_witness_columns_dependent(q):
    witness = ctranspose_witness(2, q)
    assert len(witness) == 2 * q
    code = make_code(FAMILY_TRANSPOSE, 2, q)
    assert columns_sum_zero(code.h, witness)


@pytest.mark.parametrize("shift", [1, 5])
def test_ctranspose_witness_refuses_lines_that_do_not_cancel(monkeypatch, shift):
    # shifted line indices name 2q lines whose points do not all pair up
    sp = sym_space(2, 3)
    index, count = sp.line_index, sp.line_count()
    monkeypatch.setattr(sp, "line_index", lambda members: (index(members) + shift) % count)
    with pytest.raises(StructureViolationError):
        ctranspose_witness(2, 3)


def test_ctranspose_witness_embeds_in_larger_order():
    witness = ctranspose_witness(3, 2)
    assert len(witness) == 4
    code = make_code(FAMILY_TRANSPOSE, 3, 2)
    assert columns_sum_zero(code.h, witness)


def test_c2q_witness_q2_is_whole_space():
    assert c2q_witness(2) == frozenset(range(8))


@pytest.mark.parametrize("q", [2, 4, 8])
def test_c2q_witness_even_line_intersections(q):
    witness = c2q_witness(q)
    assert len(witness) == 4 * q
    for line in sym_space(2, q).lines():
        assert len(witness.intersection(line.points)) in (0, 2)


def test_c2q_witness_rejects_odd_characteristic():
    with pytest.raises(BadCharacteristicError):
        c2q_witness(3)


@pytest.mark.parametrize(
    "n,q,size", [(2, 2, 6), (2, 3, 15), (2, 4, 28), (3, 2, 56)]
)
def test_independent_row_family_has_full_rank(n, q, size):
    rows = independent_row_family(n, q)
    assert len(rows) == size == q ** ((n * n - n) // 2) * (q**n - (q - 1) ** n)
    code = make_code(FAMILY_SYMMETRIC, n, q)
    sub = SparseBitMatrix.from_rows(
        len(rows), code.h.ncols, (r for i, r in enumerate(code.h.supports()) if i in rows)
    )
    assert rank_gf2(sub) == len(rows)


def test_dimension_bounds_hold(c22, ct22, c23, ct23, c24, ct24):
    for code in (c22, c23, c24):
        assert code.dimension <= symmetric_dimension_bound(code.n, code.q)
    for code in (ct22, ct23, ct24):
        assert code.dimension <= transpose_dimension_bound(code.n, code.q)


def test_certified_distance_for_transpose_family(ct24):
    res = certified_min_distance(ct24)
    assert res is not None
    assert (res.value, res.status, res.method) == (8, "exact", "witness_plus_bound")
    assert columns_sum_zero(ct24.h, res.witness)
    ct25 = make_code(FAMILY_TRANSPOSE, 2, 5)
    assert certified_min_distance(ct25).value == 10


def test_certified_distance_agrees_with_enumeration(ct22, ct23):
    for code in (ct22, ct23):
        assert certified_min_distance(code).value == min_distance(code.h).value


def test_certified_distance_rejects_wrong_witness_under_optimize():
    # -O strips asserts, so the certificate check must be a real raise
    script = """
import sys
import symldpc.codes as c
from symldpc.exceptions import StructureViolationError
if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
code = c.make_code(c.FAMILY_TRANSPOSE, 2, 3)
c.ctranspose_witness = lambda n, q: frozenset(range(2 * q))
for certify in (
    lambda: c.certified_min_distance(code),
    lambda: c.gf2.stopping_distance(code.h, seed=range(6)),
):
    try:
        certify()
    except StructureViolationError:
        print("refused")
    else:
        print("certified")
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["refused", "refused"]


def test_certified_distance_not_applicable_for_symmetric(c22):
    assert certified_min_distance(c22) is None


def test_gallager_shapes_and_weights():
    g = gallager_random(12, 2, 3, seed=5)
    assert g.h.nrows == 8 and g.h.ncols == 12
    rows, cols = supports(g.h)
    assert all(len(r) == 3 for r in rows)
    assert all(len(c) == 2 for c in cols)
    g2 = gallager_random(80, 3, 5, seed=5)
    assert g2.h.nrows == 48 and g2.h.ncols == 80
    rows, cols = supports(g2.h)
    assert all(len(r) == 5 for r in rows)
    assert all(len(c) == 3 for c in cols)


def test_gallager_determinism():
    a = gallager_random(64, 3, 4, seed=9)
    b = gallager_random(64, 3, 4, seed=9)
    assert a.h == b.h
    c = gallager_random(64, 3, 4, seed=10)
    assert c.h != a.h


def test_gallager_bad_parameters():
    with pytest.raises(BadParametersError):
        gallager_random(10, 2, 3, seed=1)  # 3 does not divide 10
    with pytest.raises(BadParametersError):
        gallager_random(12, 0, 3, seed=1)


@pytest.mark.parametrize(
    "name, value",
    [
        ("length", 12.0),
        ("col_wt", True),
        ("row_wt", "3"),
        ("seed", 1.5),
        ("seed", -1),
    ],
)
def test_gallager_parameters_must_be_integers(name, value):
    kwargs = {"length": 12, "col_wt": 2, "row_wt": 3, "seed": 1, name: value}
    with pytest.raises(BadParametersError, match=f"{name} must be an integer"):
        gallager_random(**kwargs)


def test_girth_property_lazy(ct22):
    assert ct22.girth == 8
    assert make_code(FAMILY_SYMMETRIC, 2, 3).girth == 8


def test_q2_family_contains_only_the_all_ones_codeword():
    # over GF(2) every row has weight 2, so all columns sum to zero, and the
    # connected point graph forces any dependent column set to be everything
    for n in (2, 3):
        code = make_code(FAMILY_SYMMETRIC, n, 2)
        assert code.dimension == 1
        d = min_distance(code.h)
        assert d.value == 2 ** (n * (n + 1) // 2)
        assert d.witness == frozenset(range(code.length))


def test_c25_documented_distance_consistent_with_girth_bound():
    # the order-2 family over GF(5) has a recorded distance of 20 at length
    # 125, beyond the enumeration regime here; check consistency only
    from symldpc import tanner_lower_bound

    code = make_code(FAMILY_SYMMETRIC, 2, 5)
    assert code.length == 125
    gamma = int(code.h.col_weights[0])
    assert tanner_lower_bound(8, gamma) == 12 <= 20
    with pytest.raises(BadCharacteristicError):
        c2q_witness(5)  # no dependent-point witness exists in odd characteristic


def test_codespec_stores_only_what_h_cannot_give(monkeypatch):
    assert [f.name for f in dataclasses.fields(CodeSpec)] == ["family", "h", "code_id", "n", "q"]
    calls = []
    rank = gf2.rank_gf2
    monkeypatch.setattr(gf2, "rank_gf2", lambda h: calls.append(h) or rank(h))
    code = make_code(FAMILY_TRANSPOSE, 2, 4)  # even q: the dimension needs an elimination
    odd = make_code(FAMILY_TRANSPOSE, 2, 3)
    gallager = gallager_random(12, 2, 3, seed=5)
    assert calls == []  # building reads no rank
    assert code.length == code.h.ncols == 80 and gallager.labels is None
    assert code.dimension == 80 - rank(code.h)
    assert code.dimension == 80 - rank(code.h)
    assert len(calls) == 1  # the dimension is computed once, on first use
    # odd q: the dimension is counted, with no elimination at all
    calls.clear()
    assert (odd.dimension, odd.dimension_method) == (36 - rank(odd.h), "character_count")
    assert calls == []
    for bad in ({"n": "2"}, {"n": 0}, {"q": 1}, {"q": True}, {"family": None}):
        with pytest.raises(BadParametersError):
            CodeSpec(**{"family": FAMILY_TRANSPOSE, "h": code.h, "code_id": "x", **bad})


def test_certified_stopping_distance_matches_search(c22, ct22, ct23):
    for code in (ct22, ct23):
        res = certified_stopping_distance(code)
        assert (res.value, res.status, res.method) == (
            stopping_distance(code.h).value, "exact", "witness_plus_bound"
        )
    assert certified_stopping_distance(c22) is None
    assert certified_stopping_distance(gallager_random(12, 2, 3, seed=5)) is None


@pytest.mark.parametrize("certify", [certified_min_distance, certified_stopping_distance])
@pytest.mark.parametrize("meta_q", [4, 5])
def test_certificates_take_the_bound_from_h_not_from_q(ct23, ct24, certify, meta_q):
    # CT(2,4) labelled q = 3 gets the 6-line CT(2,3) witness, below its bound 2 * 4;
    # CT(2,3) labelled q = 4 or 5 gets line indices past its 36 columns
    wrong = [CodeSpec(FAMILY_TRANSPOSE, ct24.h, "CT(2,4)?", n=2, q=3)]
    wrong.append(CodeSpec(FAMILY_TRANSPOSE, ct23.h, "CT(2,3)?", n=2, q=meta_q))
    for code in wrong:
        with pytest.raises(StructureViolationError):
            certify(code)
