import functools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symldpc import (
    SparseBitMatrix,
    SumProductDecoder,
    build_h,
    columns_sum_zero,
    diameter,
    gallager_random,
    girth,
    is_stopping_set,
    make_code,
    peel_decode_bec,
    point_graph_components,
    rank_gf2,
    stopping_distance,
    sym_space,
    verify_structure,
)
from symldpc import gf2, incidence, symspace
from symldpc.cli import write_alist
from symldpc.exceptions import BadParametersError, StructureViolationError, TooLargeError

from conftest import per_entry_lists, supports

INF = float("inf")


def _adjacency(h):
    """Rows are vertices 0..nrows-1, columns follow."""
    rows, cols = supports(h)
    adj = [[h.nrows + j for j in row] for row in rows]
    adj.extend(cols)
    return adj


def reference_girth(h):
    """Per-root BFS oracle: a non-tree edge between depths d1 and d2 closes
    a cycle of length d1 + d2 + 1 through the root."""
    adj = _adjacency(h)
    best = INF
    for root in range(len(adj)):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        for u in queue:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def reference_diameter(h):
    """Per-root BFS oracle: maximum eccentricity, infinity when disconnected."""
    adj = _adjacency(h)
    worst = 0
    for root in range(len(adj)):
        dist = {root: 0}
        queue = [root]
        for u in queue:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) < len(adj):
            return INF
        worst = max(worst, max(dist.values()))
    return worst


@st.composite
def bipartite_matrices(draw):
    nrows = draw(st.integers(0, 10))
    ncols = draw(st.integers(0, 10))
    rows = [
        sorted(draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)) if ncols else [])
        for _ in range(nrows)
    ]
    return SparseBitMatrix.from_rows(nrows, ncols, rows)


@pytest.mark.parametrize(
    "n,q,rows,cols", [(2, 2, 12, 8), (2, 3, 36, 27), (2, 4, 80, 64)]
)
def test_build_h_dimensions(n, q, rows, cols):
    h = build_h(sym_space(n, q))
    assert (h.nrows, h.ncols) == (rows, cols)
    assert h.edge_count == rows * q


def test_row_and_column_supports_describe_same_matrix():
    h = build_h(sym_space(2, 3))
    dense = h.toarray()
    for j, col in enumerate(h.transpose().supports()):
        assert col == sorted(col)
        assert [i for i in range(h.nrows) if dense[i, j]] == list(col)


def test_transpose_is_involution():
    h = build_h(sym_space(2, 2))
    assert h.transpose().transpose() is h
    ct = make_code("symmetric_transpose", 2, 4).h
    assert ct.transpose().transpose() is ct and ct.transpose() == build_h(sym_space(2, 4))
    # a transpose keeps its source as its own transpose; exact, because a
    # fresh copy of the transpose transposes back to the same entries
    for m in (h, ct, *(case() for case in EDGE_SLOT_CASES.values())):
        t = m.transpose()
        again = SparseBitMatrix.from_flat(t.nrows, t.ncols, t.cols, t.row_weights).transpose()
        assert again == m and again is not m


def test_double_counting():
    h = build_h(sym_space(3, 2))
    rows, cols = supports(h)
    assert sum(len(r) for r in rows) == sum(len(c) for c in cols)
    assert h.edge_count == 224 * 2


@pytest.mark.parametrize("n,q", [(2, 2), (2, 4)])
def test_structure_checks_pass(n, q):
    h = build_h(sym_space(n, q))
    rep = verify_structure(h, n, q)
    assert rep.rho == q
    assert rep.gamma == (q**n - 1) // (q - 1)
    assert rep.lambda_max <= 1
    assert rep.rho_over_ncols < 1
    assert rep.gamma_over_nrows < 1


def test_structure_catches_perturbation():
    h = build_h(sym_space(2, 2))
    rows = h.supports()
    # copying row 0 over row 11 gives columns 0 and 1 a fourth row, so the
    # column-weight check fires before the overlap check is reached
    rows[11] = rows[0]
    bad = SparseBitMatrix.from_rows(h.nrows, h.ncols, rows)
    with pytest.raises(StructureViolationError, match="column 0 has weight 4, expected 3"):
        verify_structure(bad, 2, 2)
    # wrong row weight
    rows = h.supports()
    rows[0] = (0, 1, 2)
    bad = SparseBitMatrix.from_rows(h.nrows, h.ncols, rows)
    with pytest.raises(StructureViolationError):
        verify_structure(bad, 2, 2)


def test_structure_catches_four_cycle_with_weights_kept():
    h = build_h(sym_space(2, 2))
    rows = h.supports()
    assert (rows[0], rows[3], rows[6]) == ([0, 1], [1, 5], [2, 5])
    # move column 0 from row 0 to row 6 and column 5 the other way: every row
    # and column weight stays, but row 0 becomes a second copy of row 3
    rows[0], rows[6] = (1, 5), (0, 2)
    bad = SparseBitMatrix.from_rows(h.nrows, h.ncols, rows)
    with pytest.raises(StructureViolationError, match="rows 0 and 3 share more than one"):
        verify_structure(bad, 2, 2)


def test_girth_synthetic_graphs():
    four_cycle = SparseBitMatrix.from_rows(2, 2, [(0, 1), (0, 1)])
    assert girth(four_cycle) == 4
    six_cycle = SparseBitMatrix.from_rows(3, 3, [(0, 1), (1, 2), (0, 2)])
    assert girth(six_cycle) == 6
    tree = SparseBitMatrix.from_rows(2, 3, [(0, 1), (1, 2)])
    assert girth(tree) == INF


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_girth_of_built_instances(n, q):
    assert girth(build_h(sym_space(n, q))) == 8


@given(bipartite_matrices())
@settings(max_examples=200, deadline=None)
@example(SparseBitMatrix.from_rows(0, 0, []))  # empty graph
@example(SparseBitMatrix.from_rows(1, 0, [()]))  # single vertex
@example(SparseBitMatrix.from_rows(3, 4, [(0, 1), (1, 2), (3,)]))  # forest
@example(SparseBitMatrix.from_rows(4, 4, [(0, 1), (0, 1), (2, 3), (2, 3)]))  # two 4-cycles
def test_bfs_matches_per_root_oracle(h):
    assert girth(h) == reference_girth(h)
    assert diameter(h) == reference_diameter(h)
    assert all_roots_bfs(h) == (girth(h), diameter(h))


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_bfs_root_blocks_split(monkeypatch, n, q):
    h = build_h(sym_space(n, q))
    monkeypatch.setattr(incidence, "ROOT_BLOCK", 7)
    for m in (h, h.transpose()):
        assert girth(m) == reference_girth(m)
        assert diameter(m) == reference_diameter(m)


def test_tanner_bfs_runs_once_per_matrix_instance(monkeypatch):
    calls = []
    bfs = incidence._rooted_bfs
    monkeypatch.setattr(incidence, "_rooted_bfs", lambda h, roots: calls.append(h) or bfs(h, roots))
    h = build_h(sym_space(2, 3))
    twin = build_h(sym_space(2, 3))
    assert (girth(h), diameter(h), girth(h)) == (8, 6, 8)
    assert len(calls) == 1
    # the cache belongs to the instance: equality and hashing ignore it, and
    # an equal matrix runs its own BFS
    assert twin == h and hash(twin) == hash(h)
    assert diameter(twin) == 6
    assert len(calls) == 2


def _padded(supports, offset, sentinel):
    """(largest degree, len(supports)) array: slot s of every vertex's neighbours.

    Neighbour j is vertex offset + j; vertices with fewer neighbours are
    padded with the sentinel vertex.  Built from the supports alone, it is
    the oracle for the BFS's neighbour arrays.
    """
    out = np.full((max(map(len, supports), default=0), len(supports)), sentinel)
    for v, support in enumerate(supports):
        out[: len(support), v] = [offset + j for j in support]
    return out


EDGE_SLOT_CASES = {
    "C(2,2)": lambda: make_code("symmetric", 2, 2).h,
    "CT(2,3)": lambda: make_code("symmetric_transpose", 2, 3).h,
    "C(2,4)": lambda: make_code("symmetric", 2, 4).h,
    "G(12,2,3)": lambda: gallager_random(12, 2, 3, seed=5).h,
    # row 1 is empty and column 3 unchecked
    "irregular": lambda: SparseBitMatrix.from_rows(4, 5, [(0, 2), (), (0, 1, 2, 4), (2,)]),
    "edgeless": lambda: SparseBitMatrix.from_rows(2, 3, [(), ()]),
}


@pytest.mark.parametrize("name", list(EDGE_SLOT_CASES))
def test_edge_slots_link_each_edge_to_its_twin_slot(name):
    h = EDGE_SLOT_CASES[name]()
    row_side, col_side = incidence.edge_slots(h)
    rows, cols = supports(h)
    row_wt = max(map(len, rows), default=0)
    col_wt = max(max(map(len, cols), default=0), 1)
    assert row_side.shape == (h.nrows, row_wt) and col_side.shape == (h.ncols, col_wt)
    sides = (
        (row_side, rows, col_side, col_wt, h.ncols),
        (col_side, cols, row_side, max(row_wt, 1), h.nrows),
    )
    for side, side_supports, other, other_wt, other_count in sides:
        for v, support in enumerate(side_supports):
            real = side[v, : len(support)]
            # each real slot lies in the row of its support entry, in order
            assert (real // other_wt).tolist() == list(support)
            # and the slot it names points back at this one
            here = v * side.shape[1] + np.arange(len(support))
            assert other.flat[real].tolist() == here.tolist()
            # padding is the sentinel slot, one past the other side's last
            assert (side[v, len(support) :] == other_count * other.shape[1]).all()


@pytest.mark.parametrize("name", list(EDGE_SLOT_CASES))
def test_bfs_neighbour_arrays_match_the_padded_supports(name):
    h = EDGE_SLOT_CASES[name]()
    nverts = h.nrows + h.ncols
    rows, cols = incidence._neighbours(h)
    row_supports, col_supports = supports(h)
    assert np.array_equal(rows, _padded(row_supports, h.nrows, nverts))
    # the column side is at least one slot wide; without edges that slot is padding
    want = _padded(col_supports, 0, nverts)
    assert np.array_equal(cols[: len(want)], want)
    assert (cols[len(want) :] == nverts).all()


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_expected_eight_cycle_is_present(n, q):
    # the cycle through 0, corner(1,0,0), corner(1,0,1), corner(0,0,1) and
    # the four lines joining consecutive ones
    sp = sym_space(n, q)
    h = build_h(sp)
    dense = h.toarray()
    pts = [sp.zero(), sp.corner(1, 0, 0), sp.corner(1, 0, 1), sp.corner(0, 0, 1)]
    lines = [
        sp.line_through(pts[0], pts[1]),
        sp.line_through(pts[1], pts[2]),
        sp.line_through(pts[2], pts[3]),
        sp.line_through(pts[3], pts[0]),
    ]
    assert len({p.index for p in pts}) == 4
    assert len({ln.points for ln in lines}) == 4
    for k, ln in enumerate(lines):
        assert dense[ln.index, pts[k].index] == 1
        assert dense[ln.index, pts[(k + 1) % 4].index] == 1


def test_diameter_small_instances():
    assert diameter(build_h(sym_space(2, 2))) == 6
    path = SparseBitMatrix.from_rows(2, 1, [(0,), (0,)])
    assert diameter(path) == 2
    disconnected = SparseBitMatrix.from_rows(2, 2, [(0,), (1,)])
    assert diameter(disconnected) == INF


def reference_point_graph_components(space):
    """Components counted by a BFS from every point not yet reached."""
    seen: set[int] = set()
    components = 0
    for start in range(space.size):
        if start not in seen:
            components += 1
            for layer in space.distance_layers(space.point_at(start)):
                seen.update(layer)
    return components


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_point_graph_is_connected(n, q):
    space = sym_space(n, q)
    assert point_graph_components(space) == reference_point_graph_components(space) == 1


def test_point_graph_components_uses_point_bfs_cap(monkeypatch):
    sp = sym_space(3, 2)
    monkeypatch.setattr(symspace, "BFS_POINT_CAP", sp.size - 1)
    with pytest.raises(TooLargeError):
        point_graph_components(sp)
    monkeypatch.setattr(symspace, "BFS_POINT_CAP", sp.size)
    monkeypatch.setattr(incidence, "VERTEX_CAP", 1)  # the Tanner-graph cap plays no part
    assert point_graph_components(sp) == 1


def test_caps_reject_runaway_instances():
    with pytest.raises(TooLargeError):
        build_h(sym_space(4, 4))
    huge = SparseBitMatrix.from_flat(1 << 20, 1, [], np.zeros(1 << 20, dtype=np.int64))
    with pytest.raises(TooLargeError):
        girth(huge)
    with pytest.raises(TooLargeError):
        diameter(huge)


# -- roots from the translation orbits ---------------------------------------


def all_roots_bfs(h):
    """(girth, diameter) from a bit-parallel BFS of every vertex at once.

    The library's BFS before it took a list of roots; quick enough to serve
    as the oracle where the per-root oracles above take tens of seconds.
    """
    adj = _adjacency(h)
    nverts = len(adj)
    frontier = [1 << v for v in range(nverts)]
    seen = frontier[:]
    best, depth = INF, 0
    while True:
        nxt = [0] * nverts
        for v, nbrs in enumerate(adj):
            reach = twice = 0
            for u in nbrs:
                twice |= reach & frontier[u]
                reach |= frontier[u]
            new = reach & ~seen[v]
            if new:
                nxt[v] = new
                seen[v] |= new
                if twice & new:
                    best = min(best, 2 * (depth + 1))
        if not any(nxt):
            break
        frontier = nxt
        depth += 1
    full = (1 << nverts) - 1
    return best, depth if all(s == full for s in seen) else INF


@st.composite
def sparse_matrices(draw):
    """Up to 70 x 70 with at most 3 entries per row: forests, several
    components, empty rows and empty columns all come up, and up to 140
    vertices make a block of every root span three uint64 words."""
    nrows = draw(st.integers(0, 70))
    ncols = draw(st.integers(0, 70))
    rows = [
        sorted(draw(st.sets(st.integers(0, ncols - 1), max_size=3)) if ncols else [])
        for _ in range(nrows)
    ]
    return SparseBitMatrix.from_rows(nrows, ncols, rows)


def _ring(length):
    """A cycle of 2 * length Tanner vertices: row i holds columns i and i + 1 mod length."""
    return [sorted({i, (i + 1) % length}) for i in range(length)]


@given(sparse_matrices())
@settings(max_examples=100, deadline=None)
@example(SparseBitMatrix.from_rows(0, 0, []))
@example(SparseBitMatrix.from_rows(70, 0, [()] * 70))  # 70 isolated rows
# a forest of 40 paths plus 30 empty columns
@example(SparseBitMatrix.from_rows(40, 70, [(2 * i, 2 * i + 1) for i in range(35)] + [()] * 5))
# an 80-vertex ring, a 60-vertex ring and 10 empty columns: girth 60, disconnected
@example(SparseBitMatrix.from_rows(
    70, 80, _ring(40) + [tuple(40 + j for j in r) for r in _ring(30)]))
# one 140-vertex ring: girth 140, diameter 70, roots in three words
@example(SparseBitMatrix.from_rows(70, 70, _ring(70)))
def test_word_bfs_from_every_root_matches_the_int_bfs(h):
    want = all_roots_bfs(h)
    roots = tuple(range(h.nrows + h.ncols))
    for block in (1, 63, 64, 65, incidence.ROOT_BLOCK):
        with mock.patch.object(incidence, "ROOT_BLOCK", block):
            assert incidence._rooted_bfs(h, roots) == want


def reference_overlap(h):
    """lambda_max from every row pair; raises on two rows sharing two columns."""
    seen = set()
    for col in h.transpose().supports():
        for a in range(len(col)):
            for b in range(a + 1, len(col)):
                if (col[a], col[b]) in seen:
                    raise StructureViolationError(f"rows {col[a]} and {col[b]}")
                seen.add((col[a], col[b]))
    return 1 if seen else 0


def reference_overlap_loop(h, roots):
    """verify_structure's former overlap loop, over lists of the supports: (lambda_max, message).

    The message is that of the StructureViolationError raised, else None.
    """
    rows, cols = supports(h)
    lambda_max = 0
    for r in roots:
        if r >= h.nrows:
            break
        met = {}
        for j in rows[r]:
            for i in cols[j]:
                if i == r:
                    continue
                if i in met:
                    a, b = sorted((r, i))
                    return None, (
                        f"rows {a} and {b} share more than one column "
                        f"(second overlap at column {j})"
                    )
                met[i] = j
                lambda_max = 1
    return lambda_max, None


def _cycle_switches(h, rng, count):
    """`count` copies of h, each with one weight-preserving 2x2 switch that closes a 4-cycle.

    Row a meets row c at column z; a trades another of its columns, x, for
    a column y of c that a misses, and a row b holding y but not x takes x
    in exchange, so a and c then share z and y.
    """
    rows, cols = supports(h)
    out = []
    while len(out) < count:
        a = rng.randrange(h.nrows)
        z, x = rng.sample(rows[a], 2)
        c = rng.choice([i for i in cols[z] if i != a])
        ys = [j for j in rows[c] if j not in rows[a]]
        if not ys:
            continue
        y = rng.choice(ys)
        bs = [i for i in cols[y] if i not in (a, c) and x not in rows[i]]
        if not bs:
            continue
        b = rng.choice(bs)
        switched = list(rows)
        switched[a] = sorted({*rows[a]} - {x} | {y})
        switched[b] = sorted({*rows[b]} - {y} | {x})
        out.append(SparseBitMatrix.from_rows(h.nrows, h.ncols, switched))
    return out


def _three_equal_rows(h):
    """h with rows 1 and 2 set to row 0, and the columns they leave handed to
    the rows that held row 0's columns, so every weight is kept.

    Rows 0, 1 and 2 then share all of row 0's columns: rows 1 and 2 both
    complete their second overlap with the root, row 0, at the same column,
    where the loop meets row 1 first.
    """
    rows = [list(r) for r in h.supports()]
    target = rows[0]
    for i in (1, 2):
        given = [j for j in rows[i] if j not in target]
        taken = [j for j in target if j not in rows[i]]
        for j, k in zip(taken, given):
            # a row holding j but not k, outside rows 0 to 2, trades j for k
            donor = next(r for r in range(3, len(rows)) if j in rows[r] and k not in rows[r])
            rows[donor] = sorted(set(rows[donor]) - {j} | {k})
        rows[i] = list(target)
    return SparseBitMatrix.from_rows(h.nrows, h.ncols, rows)


@pytest.mark.parametrize("every_root", [False, True], ids=["orbit_roots", "every_root"])
@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_overlap_check_matches_the_view_loop(n, q, every_root):
    # the same verdict and message as the loop it replaced, on H(n,q) and on
    # switched copies of it, which keep every weight and so reach the loop
    h = build_h(sym_space(n, q))
    cases = [h, *_cycle_switches(h, random.Random(10 * n + q), 12), _three_equal_rows(h)]
    for m in cases:
        if every_root:
            m._derived["roots"] = tuple(range(m.nrows + m.ncols))  # the trivial group
        want = reference_overlap_loop(m, incidence.translation_roots(m))
        try:
            got = verify_structure(m, n, q).lambda_max, None
        except StructureViolationError as err:
            got = None, str(err)
        assert got == want
        assert (want[1] is None) == (m is h)


ORBIT_INSTANCES = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 8), (3, 2), (3, 3)]


@functools.lru_cache(maxsize=None)
def _oracle_invariants(n, q):
    # the transpose has the same Tanner graph with rows and columns swapped,
    # so both orientations share one oracle run; C(3,3) takes the all-roots
    # oracle, the per-root ones taking about 26 s there
    h = build_h(sym_space(n, q))
    if (n, q) == (3, 3):
        return all_roots_bfs(h)
    return reference_girth(h), reference_diameter(h)


@pytest.mark.parametrize("transpose", [False, True], ids=["C", "CT"])
@pytest.mark.parametrize("n,q", ORBIT_INSTANCES)
def test_orbit_roots_match_oracles(n, q, transpose):
    lines = build_h(sym_space(n, q))
    h = lines.transpose() if transpose else lines
    roots = incidence.translation_roots(h)
    gamma = (q**n - 1) // (q - 1)
    assert len(roots) == gamma + 1  # one orbit per direction, one of points
    assert (girth(h), diameter(h)) == _oracle_invariants(n, q)
    oriented = h.transpose() if transpose else h
    rep = verify_structure(oriented, n, q)
    assert rep.lambda_max == reference_overlap(oriented) == 1


def _altered(n, q, row, point):
    """H(n,q) with the last point of one row replaced by another point."""
    h = build_h(sym_space(n, q))
    rows = h.supports()
    rows[row] = (*rows[row][:-1], point)
    return SparseBitMatrix.from_rows(h.nrows, h.ncols, rows)


# C(2,4)'s row 1 is (0, 16, 32, 48); as (0, 16, 32, 34) every translate of
# it still starts with the first two points of some row, and the rows still
# map one to one, so only the entry-by-entry comparison rejects it
@pytest.mark.parametrize("n,q,row,point", [(2, 3, 0, 3), (3, 3, 0, 3), (2, 4, 1, 34)])
def test_altered_row_falls_back_to_every_root(n, q, row, point):
    bad = _altered(n, q, row, point)
    assert incidence.translation_roots(bad) == tuple(range(bad.nrows + bad.ncols))
    if (n, q) == (3, 3):
        want = all_roots_bfs(bad)
    else:
        want = reference_girth(bad), reference_diameter(bad)
    assert (girth(bad), diameter(bad)) == want
    with pytest.raises(StructureViolationError):
        verify_structure(bad, n, q)


def test_gallager_code_of_geometry_shape_falls_back_to_every_root():
    # 12 x 8 with column weight 3 and row weight 2, the shape of H(2,2)
    g = gallager_random(8, 3, 2, seed=4)
    h = g.h
    assert (h.nrows, h.ncols) == (12, 8)
    every = tuple(range(20))
    assert incidence.translation_roots(h) == every
    assert incidence.translation_roots(h.transpose()) == tuple(range(20))
    assert (girth(h), diameter(h)) == (reference_girth(h), reference_diameter(h))
    assert g.girth == reference_girth(h)


def _widened(n, q):
    """H(n,q) with one more column, met by row 0 only: 1 + q^N columns."""
    h = build_h(sym_space(n, q))
    rows = h.supports()
    rows[0] = (*rows[0], h.ncols)
    return SparseBitMatrix.from_rows(h.nrows, h.ncols + 1, rows)


@pytest.mark.parametrize(
    "h",
    [
        SparseBitMatrix.from_rows(1, 1, [(0,)]),
        SparseBitMatrix.from_rows(2, 6, [(0, 1, 2), (3, 4, 5)]),
        _widened(2, 2),  # 12 x 9, and 9 = 3^2 columns tried and failed
        _widened(2, 3),  # 36 x 28
    ],
    ids=["1x1", "2x6", "C(2,2)+1", "C(2,3)+1"],
)
def test_shapes_without_a_translation_group_give_every_root(h):
    assert incidence.translation_roots(h) == tuple(range(h.nrows + h.ncols))
    assert (girth(h), diameter(h)) == (reference_girth(h), reference_diameter(h))


@pytest.mark.parametrize("n,q", [(3, 2), (2, 4)])
def test_orbit_roots_split_across_root_blocks(monkeypatch, n, q):
    h = build_h(sym_space(n, q))
    monkeypatch.setattr(incidence, "ROOT_BLOCK", 3)
    for m in (h, h.transpose()):
        assert len(incidence.translation_roots(m)) > 3
        assert (girth(m), diameter(m)) == _oracle_invariants(n, q)


def test_orbit_rooted_girth_and_diameter_memory():
    # every root at once held a 3888-bit int per vertex: 6.3 MB traced
    code = make_code("symmetric", 3, 3)
    tracemalloc.start()
    try:
        assert code.girth == 8
        assert tracemalloc.get_traced_memory()[1] < 3_000_000
        # the same BFS gave the diameter
        assert diameter(code.h) == 8
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000



@pytest.mark.parametrize("n,q", [(2, 1), (2, 0), (0, 2), (2.0, 2), (2, True)])
def test_structure_refuses_parameters_outside_the_family(n, q):
    # q = 1 used to divide by q - 1 = 0
    with pytest.raises(BadParametersError, match="must be an integer"):
        verify_structure(build_h(sym_space(2, 2)), n, q)


@pytest.mark.parametrize(
    "nrows,ncols,indices,weights,message",
    [
        (3, 4, [0, 1, 2], [1, 2], "expected 3 rows, got 2"),
        (2, 4, [0, 1, 2], [1, 1], "row weights sum to 2, not the 3 indices"),
        (2, 4, [0, 1, 2], [4, -1], "row weights sum to 3, not the 3 indices"),
        (2, 4, [1, 0, 2], [2, 1], "row 0 support not strictly increasing"),
        (2, 4, [0, 1, 4], [2, 1], "row 1 has column index out of range"),
        (2, 4, [-1, 0, 2], [2, 1], "row 0 has column index out of range"),
        # fractions, strings, bools and indices past int64 used to be cast or overflow
        (2, 3, [0.5, 1.7, 2.2], [2, 1], "column indices must be integers that fit in 64 bits"),
        (1, 3, ["1", "2"], [2], "column indices must be integers"),
        (1, 3, [True], [1], "column indices must be integers"),
        (1, 3, [2**63], [1], "column indices must be integers that fit in 64 bits"),
        (1, 3, [2**64], [1], "column indices must be integers that fit in 64 bits"),
        (1, 3, [0], [1.6], "row weights must be integers"),
        (2, -3, [], [0, 0], "ncols must be an integer >= 0"),
        # an int64 sum of these wraps to 0, and np.repeat then crashed the interpreter
        (4, 3, [], [2**62] * 4, f"row weights sum to {2**64}, not the 0 indices"),
        (2.0, 3, [0, 1], [1, 1], "nrows must be an integer >= 0"),
    ],
)
def test_from_flat_refusals_are_typed(nrows, ncols, indices, weights, message):
    with pytest.raises(BadParametersError, match=message):
        SparseBitMatrix.from_flat(nrows, ncols, indices, weights)
    if len(weights) == nrows and sum(weights) == len(indices) and min(weights) >= 0:
        rows, start = [], 0
        for w in weights:
            rows.append(indices[start : start + w])
            start += w
        with pytest.raises(BadParametersError, match=message):
            SparseBitMatrix.from_rows(nrows, ncols, rows)


def test_matrix_arrays_are_read_only_copies():
    space = sym_space(2, 3)
    h = build_h(space)
    # build_h hands over the space's cached member array; h keeps its own copy
    assert not np.shares_memory(h.cols, space.line_array())
    for array in (h.cols, h.row_weights, h.transpose().cols, h.transpose().row_weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    cols = space.line_array().copy()
    weights = np.full(len(cols), space.q)
    mine = SparseBitMatrix.from_flat(h.nrows, h.ncols, cols, weights)
    cached = (girth(mine), rank_gf2(mine))
    cols[:] = 0
    weights[:] = 1
    assert mine == h and mine.transpose() == h.transpose()
    assert (girth(mine), rank_gf2(mine)) == cached == (girth(h), rank_gf2(h))
    # computed after the caller's change, from h's own arrays
    assert rank_gf2(mine.transpose()) == rank_gf2(h.transpose())


@pytest.mark.parametrize("family", ["symmetric", "symmetric_transpose"])
def test_array_readers_build_no_tuple_view(tmp_path, family):
    # H is kept once, as arrays: only the peeler caches a list per entry on h
    code = make_code(family, 2, 3)
    h = code.h
    girth(h), diameter(h), rank_gf2(h), incidence.translation_roots(h)
    SumProductDecoder(h)
    incidence.edge_slots(h)
    verify_structure(h if family == "symmetric" else h.transpose(), 2, 3)
    columns_sum_zero(h, [0, 1]), is_stopping_set(h, [0, 1])
    write_alist(h, tmp_path / "h.alist")
    stopping_distance(h, budget=gf2._girth_floor(h))  # a budget at the floor searches
    assert per_entry_lists(h) == []
    peel_decode_bec(code, np.zeros(code.length, dtype=np.int64))
    assert per_entry_lists(h) == ["peel"]


def test_orbit_check_lays_out_no_edges(monkeypatch):
    roots = incidence.translation_roots(make_code("symmetric", 2, 3).h)

    def refuse(h):
        raise AssertionError("edge_slots called")

    monkeypatch.setattr(incidence, "edge_slots", refuse)
    # one root per line direction, (q^n - 1) / (q - 1) = 4, and one for the points
    assert len(roots) == 5
    assert incidence.translation_roots(make_code("symmetric", 2, 3).h) == roots
