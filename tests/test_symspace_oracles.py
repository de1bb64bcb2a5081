"""SymSpace's array arithmetic against the scalar arithmetic it replaced.

Each oracle here is the point-by-point Python code that the table-array
helpers `_sums` and `_matmul` and the array `_matrix_rank` took over,
kept as a brute-force reference.  The two are compared on seeded random
inputs over every small space below.
"""

import random

import pytest

from symldpc.codes import c2q_witness, sym_space
from symldpc.gf import field_of_size

SPACES = [(1, 2), (2, 2), (2, 3), (2, 4), (2, 5), (2, 8), (2, 9), (3, 2), (3, 3), (3, 4)]
SAMPLES = 24


def oracle_matrix_rank(sp, rows):
    """Gauss-Jordan elimination one scalar at a time through the tuple tables."""
    ft = sp.field
    mat = [list(row) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        iv = ft.inv_table[mat[rank][col]]
        for r in range(nrows):
            if r != rank and mat[r][col]:
                f = ft.mul_table[mat[r][col]][iv]
                for c in range(col, ncols):
                    prod = ft.mul_table[f][mat[rank][c]]
                    mat[r][c] = ft.add_table[mat[r][c]][ft.neg_table[prod]]
        rank += 1
        if rank == nrows:
            break
    return rank


def oracle_apply_motion(sp, g, s):
    """P^T S P + shift by two triple loops over the tuple tables."""
    add, mul, n = sp.field.add_table, sp.field.mul_table, sp.n
    smat, p = sp.matrix_of(s), g.p_rows

    def product(a, b):
        out = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    out[i][j] = add[out[i][j]][mul[a[i][k]][b[k][j]]]
        return out

    pt = [list(col) for col in zip(*p)]
    return sp.add(sp.from_matrix(product(pt, product(smat, p))), g.shift)


def oracle_neighbor_indices(sp, idx):
    """idx + each rank-1 point, entry by entry, in rank_one_entries() order."""
    ent = sp._entries_of(idx)
    add = sp.field.add_table
    return [
        sp._index_of(tuple(add[a][b] for a, b in zip(ent, d))) for d in sp.rank_one_entries()
    ]


def oracle_line_members(sp, s_ent, d_ent):
    """Sorted indices of S + x*D, one x and one entry at a time."""
    add, mul = sp.field.add_table, sp.field.mul_table
    return tuple(sorted(
        sp._index_of(tuple(add[a][mul[x][b]] for a, b in zip(s_ent, d_ent)))
        for x in range(sp.q)
    ))


def oracle_distance_layers(sp, s):
    """A set-based BFS whose neighbours are `sp.add(point, rank-1 point)`."""
    steps = [sp.point(e) for e in sp.rank_one_entries()]
    seen = {s.index}
    layer = [s]
    while layer:
        yield {p.index for p in layer}
        nxt = []
        for p in layer:
            for d in steps:
                nb = sp.add(p, d)
                if nb.index not in seen:
                    seen.add(nb.index)
                    nxt.append(nb)
        layer = nxt


def oracle_c2q_witness(q):
    """The corners over the powers of the primitive element, plus the four corner diagonals."""
    fld = field_of_size(q)
    sp = sym_space(2, q)
    mul, add = fld.mul_table, fld.add_table
    pts = {sp.corner(a, 0, c).index for a in (0, 1) for c in (0, 1)}
    for t in fld.primitive_powers():
        t2 = mul[t][t]
        for a in (0, 1):
            for c in (t2, add[t2][1]):
                pts.add(sp.corner(a, t, c).index)
    return frozenset(pts)


def _points(sp, rng):
    return [sp.point_at(rng.randrange(sp.size)) for _ in range(SAMPLES)]


@pytest.fixture(params=SPACES, ids=[f"S{n}F{q}" for n, q in SPACES])
def space_and_rng(request):
    n, q = request.param
    return sym_space(n, q), random.Random(f"oracle {n} {q}")


def test_matrix_rank_matches_oracle(space_and_rng):
    sp, rng = space_and_rng
    assert sp._matrix_rank([]) == oracle_matrix_rank(sp, []) == 0
    for cols in (sp.n, sp.n + 1):
        for _ in range(SAMPLES):
            rows = [[rng.randrange(sp.q) for _ in range(cols)] for _ in range(sp.n)]
            if rng.random() < 0.3:
                # a repeated row forces a rank below n
                rows[-1] = list(rows[0])
            assert sp._matrix_rank(rows) == oracle_matrix_rank(sp, rows), rows


def test_rank_matches_oracle(space_and_rng):
    sp, rng = space_and_rng
    for s in _points(sp, rng) + [sp.zero(), sp.identity()]:
        assert sp.rank(s) == oracle_matrix_rank(sp, sp.matrix_of(s)), s


def test_apply_motion_matches_oracle(space_and_rng):
    sp, rng = space_and_rng
    for _ in range(4):
        g = sp.random_motion(rng)
        for s in _points(sp, rng):
            assert sp.apply_motion(g, s) == oracle_apply_motion(sp, g, s), (g, s)


def test_neighbor_indices_match_oracle(space_and_rng):
    sp, rng = space_and_rng
    for s in _points(sp, rng):
        assert sp.neighbor_indices(s.index) == oracle_neighbor_indices(sp, s.index)


def test_lines_through_match_oracle(space_and_rng):
    sp, rng = space_and_rng
    for s in _points(sp, rng):
        got = [(ln.points, ln.dir.entries) for ln in sp.lines_through(s)]
        want = [
            (oracle_line_members(sp, s.entries, d), d) for d in sp.direction_entries()
        ]
        assert got == want


def test_distance_layers_match_oracle(space_and_rng):
    sp, rng = space_and_rng
    for s in (sp.zero(), sp.point_at(rng.randrange(sp.size))):
        layers = list(sp.distance_layers(s))
        assert [set(layer) for layer in layers] == list(oracle_distance_layers(sp, s))
        assert all(layer == sorted(layer) for layer in layers)


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_c2q_witness_matches_primitive_power_construction(q):
    assert c2q_witness(q) == oracle_c2q_witness(q)


def test_indices_past_int64_match_oracle():
    # 2^66 points: entry place values past 2^63 must not wrap
    sp = sym_space(11, 2)
    assert sp.size > 2**63
    rng = random.Random("oracle 11 2")
    for s in [sp.point_at(sp.size - 1)] + _points(sp, rng)[:3]:
        assert sp.neighbor_indices(s.index) == oracle_neighbor_indices(sp, s.index)
        got = [ln.points for ln in sp.lines_through(s)]
        assert got == [oracle_line_members(sp, s.entries, d) for d in sp.direction_entries()]
