"""Acceptance suite: every release criterion, each printing one pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  The simulation
criterion performs the full 50,000-trial sweeps and dominates the
runtime; everything else finishes in well under a minute combined.
"""

import io
import time
from itertools import combinations

import numpy as np
import pytest

import symldpc as s
from symldpc.decode import ERASED

from fixture_h22 import H_FIXTURE, L_LINES, V_POINTS

COUNT_INSTANCES = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]


def _passed(num, name, t0, budget=None):
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] criterion {num:2d} ({name}): PASS in {elapsed:.2f}s")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"


def test_criterion_01_golden_fixture():
    t0 = time.perf_counter()
    sp = s.sym_space(2, 2)
    h = s.build_h(sp)
    col_of = [sp.point(v).index for v in V_POINTS]
    row_of = [
        sp.line_index(sorted(col_of[v - 1] for v in members)) for members in L_LINES
    ]
    assert sorted(col_of) == list(range(8))
    assert sorted(row_of) == list(range(12))
    dense = h.toarray()
    for i in range(12):
        for j in range(8):
            assert dense[row_of[i], col_of[j]] == H_FIXTURE[i][j]
    assert s.rank_gf2(h) == 7
    _passed(1, "golden fixture permutation-equivalent, rank 7", t0, budget=1.0)


def test_criterion_02_counts_and_structure():
    t0 = time.perf_counter()
    for n, q in COUNT_INSTANCES:
        sp = s.sym_space(n, q)
        expected_points = q ** (n * (n + 1) // 2)
        expected_lines = (q**n - 1) // (q - 1) * q ** ((n * n + n - 2) // 2)
        assert sp.size == expected_points
        h = s.build_h(sp)
        assert (h.nrows, h.ncols) == (expected_lines, expected_points)
        rep = s.verify_structure(h, n, q)
        assert rep.rho == q
        assert rep.gamma == (q**n - 1) // (q - 1)
        assert rep.lambda_max <= 1
    _passed(2, "point/line counts and structure on six instances", t0, budget=30.0)


def test_criterion_03_girth_eight_everywhere():
    t0 = time.perf_counter()
    for n, q in COUNT_INSTANCES:
        h = s.build_h(s.sym_space(n, q))
        assert s.girth(h) == 8, (n, q)
    _passed(3, "girth 8 on six instances", t0, budget=120.0)


def test_criterion_04_diameter_six():
    t0 = time.perf_counter()
    for q in (2, 3, 4):
        h = s.build_h(s.sym_space(2, q))
        assert s.diameter(h) == 6, q
    _passed(4, "diameter 6 for order-2 instances", t0)


def test_criterion_05_exact_distances(c22, ct22, ct23, c23, c24):
    t0 = time.perf_counter()
    d = s.min_distance(c22.h)
    assert (d.value, d.status) == (8, "exact")
    assert s.stopping_distance(c22.h).value == 8
    d = s.min_distance(ct22.h)
    assert (d.value, d.status) == (4, "exact")
    assert s.stopping_distance(ct22.h).value == 4
    d = s.min_distance(ct23.h)
    assert (d.value, d.status) == (6, "exact")
    assert s.stopping_distance(ct23.h).value == 6
    d = s.min_distance(c23.h)
    assert (d.value, d.status) == (12, "exact")
    d = s.min_distance(c24.h)
    assert (d.value, d.status, d.method) == (16, "exact", "enumeration")
    assert c24.dimension == 19  # enumeration covered 2^19 codewords
    _passed(5, "exact minimum/stopping distances", t0, budget=600.0)


def test_criterion_06_witness_regime(ct22, ct23, c22, c24, ct24):
    t0 = time.perf_counter()
    for q in (2, 3, 4, 5):
        witness = s.ctranspose_witness(2, q)
        assert len(witness) == 2 * q
        code = s.make_code(s.FAMILY_TRANSPOSE, 2, q)
        assert s.columns_sum_zero(code.h, witness)
    for q in (2, 4, 8):
        witness = s.c2q_witness(q)
        assert len(witness) == 4 * q
        for line in s.sym_space(2, q).lines():
            assert len(witness.intersection(line.points)) in (0, 2)
    # witness sizes match the searched distances where exact search ran
    assert len(s.ctranspose_witness(2, 2)) == s.min_distance(ct22.h).value
    assert len(s.ctranspose_witness(2, 3)) == s.min_distance(ct23.h).value
    assert len(s.c2q_witness(2)) == s.min_distance(c22.h).value
    assert len(s.c2q_witness(4)) == s.min_distance(c24.h).value
    # beyond the enumeration regime the witness-plus-girth-bound certificate applies
    cert = s.certified_min_distance(ct24)
    assert (cert.value, cert.status, cert.method) == (8, "exact", "witness_plus_bound")
    cert25 = s.certified_min_distance(s.make_code(s.FAMILY_TRANSPOSE, 2, 5))
    assert (cert25.value, cert25.status) == (10, "exact")
    _passed(6, "dependent-column witnesses for both families", t0)


def test_criterion_07_dimensions(c22, ct22, c24, ct24):
    t0 = time.perf_counter()
    assert s.code_dimension(c22.h) == 1
    assert s.code_dimension(ct22.h) == 5
    assert s.code_dimension(c24.h) == 19
    assert s.code_dimension(ct24.h) == 35
    for n, q in COUNT_INSTANCES:
        code = s.make_code(s.FAMILY_SYMMETRIC, n, q)
        tcode = s.make_code(s.FAMILY_TRANSPOSE, n, q)
        assert code.dimension <= s.symmetric_dimension_bound(n, q)
        assert tcode.dimension <= s.transpose_dimension_bound(n, q)
        rows = s.independent_row_family(n, q)
        sub = s.SparseBitMatrix.from_rows(
            len(rows), code.h.ncols, (r for i, r in enumerate(code.h.supports()) if i in rows)
        )
        assert s.rank_gf2(sub) == len(rows)
        assert s.rank_gf2(code.h) >= len(rows)
    _passed(7, "dimensions and rank bounds", t0)


def _collinear_table(sp):
    coll = np.zeros((sp.size, sp.size), dtype=bool)
    for line in sp.lines():
        for a in line.points:
            for b in line.points:
                if a != b:
                    coll[a, b] = True
    return coll


def test_criterion_08_geometry_property_suites():
    t0 = time.perf_counter()
    for n, q in [(2, 2), (2, 4), (3, 2)]:
        sp = s.sym_space(n, q)
        shells = [sp.deleted_neighbourhood(sp.point_at(i)) for i in range(sp.size)]
        per_point = [0] * sp.size
        for line in sp.lines():
            for m in line.points:
                per_point[m] += 1
        for i in range(sp.size):
            assert len(shells[i]) == q**n - 1
            assert per_point[i] == (q**n - 1) // (q - 1)
        # rank-1 points on distinct lines through zero differ by rank 2
        zero_lines = sp.lines_through(sp.zero())
        for la, lb in combinations(zero_lines, 2):
            for a in la.points:
                for b in lb.points:
                    if a and b:
                        assert (
                            sp.rank(sp.sub(sp.point_at(a), sp.point_at(b))) == 2
                        )
        # graph distance equals matrix rank except the even-characteristic
        # zero-diagonal case, which costs exactly one extra step
        dists = _all_graph_distances(sp)
        for i in range(sp.size):
            for j in range(sp.size):
                diff = sp.sub(sp.point_at(i), sp.point_at(j))
                ad = sp.rank(diff)
                expected = ad + 1 if sp.is_alternate(diff) else ad
                assert dists[i][j] == expected

    for n, q in [(2, 2), (2, 4)]:
        sp = s.sym_space(n, q)
        coll = _collinear_table(sp)
        shells = [
            frozenset(p.index for p in sp.deleted_neighbourhood(sp.point_at(i)))
            for i in range(sp.size)
        ]
        dists = _all_graph_distances(sp)
        for i, j in combinations(range(sp.size), 2):
            if coll[i, j]:
                continue
            common = shells[i] & shells[j]
            assert len(common) in (0, q)
            assert (len(common) == q) == (dists[i][j] == 2)
            for a, b in combinations(sorted(common), 2):
                assert not coll[a, b]
        for i, j, k in combinations(range(sp.size), 3):
            if coll[i, j] or coll[i, k] or coll[j, k]:
                continue
            assert len(shells[i] & shells[j] & shells[k]) in (0, 1, q)

    for n in (2, 3, 4):
        assert s.point_graph_components(s.sym_space(n, 2)) == 1
    _passed(8, "exhaustive geometry property suites", t0)


def _all_graph_distances(sp):
    dists = []
    for start in range(sp.size):
        d = [-1] * sp.size
        d[start] = 0
        frontier = [start]
        while frontier:
            nxt = []
            for idx in frontier:
                for nb in sp.neighbor_indices(idx):
                    if d[nb] == -1:
                        d[nb] = d[idx] + 1
                        nxt.append(nb)
            frontier = nxt
        dists.append(d)
    return dists


def test_criterion_09_peeling_matches_stopping_sets(ct22):
    t0 = time.perf_counter()

    def contains_stopping_set(cols):
        return any(
            s.is_stopping_set(ct22.h, sub)
            for size in range(1, len(cols) + 1)
            for sub in combinations(cols, size)
        )

    checked = 0
    for size in range(0, 6):
        for cols in combinations(range(12), size):
            received = np.zeros(12, dtype=int)
            received[list(cols)] = ERASED
            outcome = s.peel_decode_bec(ct22, received)
            stalled = outcome.status == "stalled"
            assert stalled == contains_stopping_set(cols)
            checked += 1
    assert checked == 1586
    _passed(9, "peeling stalls exactly on stopping sets", t0, budget=60.0)


@pytest.fixture(scope="module")
def sim_codes(ct22, c24, ct24):
    return [
        ct22,
        c24,
        ct24,
        s.gallager_random(12, 2, 3, seed=101),
        s.gallager_random(64, 3, 4, seed=101),
        s.gallager_random(80, 3, 5, seed=101),
    ]


def test_criterion_10_simulation_sweeps(sim_codes):
    t0 = time.perf_counter()
    ebno = [1.0, 4.0, 7.0]
    trials = 50_000
    per_code = []
    for code in sim_codes:
        res = s.run_awgn_sweep(code, ebno, trials, seed=2026, threads=1)
        per_code.append(res)
        assert all(r.trials == trials for r in res)
        assert res[0].wer >= res[-1].wer, code.code_id
        assert res[0].wer > res[-1].wer, code.code_id  # strict at a 6 dB gap
    buf1 = io.StringIO()
    s.results_to_csv([r for res in per_code for r in res], buf1)
    # rerun under a different thread count: output must be bit-identical
    rerun = [
        r
        for code in sim_codes
        for r in s.run_awgn_sweep(code, ebno, trials, seed=2026, threads=2)
    ]
    buf2 = io.StringIO()
    s.results_to_csv(rerun, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    _passed(10, "50k-trial sweeps, monotone and bit-identical", t0, budget=900.0)
