import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symldpc import (
    SparseBitMatrix,
    build_h,
    diameter,
    girth,
    point_graph_components,
    sym_space,
    verify_structure,
)
from symldpc import incidence, symspace
from symldpc.exceptions import StructureViolationError, TooLargeError

INF = float("inf")


def _adjacency(h):
    """Rows are vertices 0..nrows-1, columns follow."""
    adj = [[h.nrows + j for j in row] for row in h.row_support]
    adj.extend(list(col) for col in h.col_support)
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
    for j, col in enumerate(h.col_support):
        assert list(col) == sorted(col)
        assert [i for i in range(h.nrows) if dense[i, j]] == list(col)


def test_transpose_is_involution():
    h = build_h(sym_space(2, 2))
    assert h.transpose().transpose() == h


def test_double_counting():
    h = build_h(sym_space(3, 2))
    assert sum(len(r) for r in h.row_support) == sum(len(c) for c in h.col_support)
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
    rows = list(h.row_support)
    # copying row 0 over row 11 gives columns 0 and 1 a fourth row, so the
    # column-weight check fires before the overlap check is reached
    rows[11] = rows[0]
    bad = SparseBitMatrix.from_rows(h.nrows, h.ncols, rows)
    with pytest.raises(StructureViolationError, match="column 0 has weight 4, expected 3"):
        verify_structure(bad, 2, 2)
    # wrong row weight
    rows = list(h.row_support)
    rows[0] = (0, 1, 2)
    bad = SparseBitMatrix.from_rows(h.nrows, h.ncols, rows)
    with pytest.raises(StructureViolationError):
        verify_structure(bad, 2, 2)


def test_structure_catches_four_cycle_with_weights_kept():
    h = build_h(sym_space(2, 2))
    rows = list(h.row_support)
    assert (rows[0], rows[3], rows[6]) == ((0, 1), (1, 5), (2, 5))
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


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_bfs_root_blocks_split(monkeypatch, n, q):
    h = build_h(sym_space(n, q))
    monkeypatch.setattr(incidence, "ROOT_BLOCK", 7)
    for m in (h, h.transpose()):
        assert girth(m) == reference_girth(m)
        assert diameter(m) == reference_diameter(m)


def test_tanner_bfs_runs_once_per_matrix_instance(monkeypatch):
    calls = []
    bfs = incidence._all_roots_bfs
    monkeypatch.setattr(incidence, "_all_roots_bfs", lambda h: calls.append(h) or bfs(h))
    h = build_h(sym_space(2, 3))
    twin = build_h(sym_space(2, 3))
    assert (girth(h), diameter(h), girth(h)) == (8, 6, 8)
    assert len(calls) == 1
    # the cache belongs to the instance: equality and hashing ignore it, and
    # an equal matrix runs its own BFS
    assert twin == h and hash(twin) == hash(h)
    assert diameter(twin) == 6
    assert len(calls) == 2


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


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_point_graph_is_connected(n, q):
    assert point_graph_components(sym_space(n, q)) == 1


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
    huge = SparseBitMatrix(nrows=1 << 20, ncols=1, row_support=(), col_support=())
    with pytest.raises(TooLargeError):
        girth(huge)
    with pytest.raises(TooLargeError):
        diameter(huge)
