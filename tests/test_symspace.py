import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symldpc import field_of_size, sym_space
from symldpc.symspace import BFS_POINT_CAP, SymSpace
from symldpc.exceptions import (
    BadParametersError,
    DimensionMismatchError,
    EmptyInputError,
    NotAdjacentError,
    NotInvertibleError,
    TooLargeError,
)

from test_acceptance import _all_graph_distances


@pytest.mark.parametrize("n", [1.5, True, "2", 0])
def test_order_must_be_a_positive_integer(n):
    with pytest.raises(BadParametersError, match="n must be an integer >= 1"):
        SymSpace(n, field_of_size(2))


@pytest.mark.parametrize("n,q,expected", [(2, 2, 8), (2, 3, 27), (2, 4, 64), (3, 2, 64)])
def test_point_count(n, q, expected):
    assert sym_space(n, q).size == expected


@given(
    st.sampled_from([(1, 3), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_index_entry_round_trip(nq, data):
    sp = sym_space(*nq)
    idx = data.draw(st.integers(min_value=0, max_value=sp.size - 1))
    p = sp.point_at(idx)
    assert sp.point(p.entries).index == idx
    assert len(p.entries) == sp.dim


def test_rank_basics():
    sp = sym_space(2, 2)
    assert sp.rank(sp.zero()) == 0
    assert sp.rank(sp.diag_unit(1)) == 1
    assert sp.rank(sp.sym_unit(1, 2)) == 2  # nonzero determinant over GF(2)
    sp3 = sym_space(3, 2)
    assert sp3.rank(sp3.identity()) == 3


def test_arithmetic_distance():
    sp = sym_space(2, 2)
    z = sp.zero()
    assert sp.arithmetic_distance(z, z) == 0
    assert sp.arithmetic_distance(z, sp.diag_unit(1)) == 1
    assert sp.arithmetic_distance(z, sp.sym_unit(1, 2)) == 2
    other = sym_space(2, 4)
    with pytest.raises(DimensionMismatchError):
        sp.arithmetic_distance(z, other.zero())


def test_graph_distance_char2_offdiagonal_needs_three_steps():
    sp = sym_space(2, 2)
    z = sp.zero()
    assert sp.graph_distance(z, z) == 0
    # difference of rank 2 with zero diagonal: one more step than its rank
    assert sp.graph_distance(z, sp.sym_unit(1, 2)) == 3


def test_graph_distance_odd_characteristic_equals_rank():
    sp = sym_space(2, 3)
    z = sp.zero()
    assert sp.graph_distance(z, sp.corner(1, 0, 1)) == 2
    for idx in range(sp.size):
        p = sp.point_at(idx)
        assert sp.graph_distance(z, p) == sp.rank(p)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 4), (3, 2)])
def test_shell_size_is_qn_minus_one(n, q):
    sp = sym_space(n, q)
    assert len(sp.deleted_neighbourhood(sp.zero())) == q**n - 1


def test_shell_matches_brute_force_rank_filter():
    for n, q in [(2, 2), (2, 3)]:
        sp = sym_space(n, q)
        for idx in range(sp.size):
            s = sp.point_at(idx)
            shell = sp.deleted_neighbourhood(s)
            brute = {
                sp.point_at(j)
                for j in range(sp.size)
                if sp.rank(sp.sub(sp.point_at(j), s)) == 1
            }
            assert shell == brute


def test_rank_one_constructive_matches_brute_force():
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        sp = sym_space(n, q)
        brute = {
            sp.point_at(idx).entries
            for idx in range(1, sp.size)
            if sp.rank(sp.point_at(idx)) == 1
        }
        assert set(sp.rank_one_entries()) == brute
        assert len(sp.direction_entries()) == (q**n - 1) // (q - 1)


def test_deleted_neighbourhood_wider_radius():
    sp = sym_space(2, 3)
    # odd characteristic: every nonzero point is within graph distance 2
    assert len(sp.deleted_neighbourhood(sp.zero(), delta=2)) == sp.size - 1
    sp2 = sym_space(2, 2)
    # even characteristic: the zero-diagonal point needs three steps
    assert len(sp2.deleted_neighbourhood(sp2.zero(), delta=2)) == 6
    assert len(sp2.deleted_neighbourhood(sp2.zero(), delta=3)) == 7


def test_common_neighbourhood_examples():
    sp = sym_space(2, 4)
    z = sp.zero()
    assert len(sp.common_deleted_neighbourhood([z, sp.corner(1, 0, 1)])) == 4
    assert len(sp.common_deleted_neighbourhood([z, sp.sym_unit(1, 2)])) == 0
    assert sp.common_deleted_neighbourhood([z]) == sp.deleted_neighbourhood(z)
    with pytest.raises(EmptyInputError):
        sp.common_deleted_neighbourhood([])


def test_line_through_basics():
    sp = sym_space(2, 2)
    z, u = sp.zero(), sp.diag_unit(1)
    line = sp.line_through(z, u)
    assert line.points == (0, 1)
    assert sp.line_through(u, z) == line  # argument order must not matter
    with pytest.raises(NotAdjacentError):
        sp.line_through(z, sp.corner(1, 0, 1))


def test_line_members_reproduce_base_plus_direction():
    sp = sym_space(2, 3)
    for line in sp.lines():
        members = {
            sp.add(line.base, sp.scale(x, line.dir)).index for x in range(sp.q)
        }
        assert members == set(line.points)
        assert len(line.points) == sp.q
        assert list(line.points) == sorted(line.points)


@pytest.mark.parametrize(
    "n,q,expected", [(2, 2, 12), (2, 3, 36), (2, 4, 80), (3, 2, 224)]
)
def test_line_counts(n, q, expected):
    sp = sym_space(n, q)
    lines = sp.lines()
    assert len(lines) == expected
    assert len({ln.points for ln in lines}) == expected
    # canonical order: strictly increasing member tuples
    assert all(lines[i].points < lines[i + 1].points for i in range(len(lines) - 1))


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_lines_per_point(n, q):
    sp = sym_space(n, q)
    per_point = (q**n - 1) // (q - 1)
    counts = [0] * sp.size
    for line in sp.lines():
        for m in line.points:
            counts[m] += 1
    assert counts == [per_point] * sp.size
    assert len({ln.points for ln in sp.lines_through(sp.zero())}) == per_point


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3)])
def test_two_lines_share_at_most_one_point(n, q):
    lines = sym_space(n, q).lines()
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            assert len(set(lines[i].points) & set(lines[j].points)) <= 1


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3)])
def test_rank1_points_on_distinct_lines_through_zero_differ_by_rank2(n, q):
    sp = sym_space(n, q)
    zero_lines = sp.lines_through(sp.zero())
    for i in range(len(zero_lines)):
        for j in range(i + 1, len(zero_lines)):
            for a in zero_lines[i].points:
                for b in zero_lines[j].points:
                    if a == 0 or b == 0:
                        continue
                    pa, pb = sp.point_at(a), sp.point_at(b)
                    assert sp.rank(sp.sub(pa, pb)) == 2


def test_motion_identity_and_translation():
    sp = sym_space(2, 3)
    ident = sp.motion([[1, 0], [0, 1]], sp.zero())
    p = sp.point_at(13)
    assert sp.apply_motion(ident, p) == p
    t = sp.point_at(7)
    shift = sp.motion([[1, 0], [0, 1]], t)
    assert sp.apply_motion(shift, sp.zero()) == t


def test_motion_preserves_arithmetic_distance():
    sp = sym_space(2, 4)
    rng = random.Random(20260810)
    g = sp.random_motion(rng)
    for _ in range(100):
        a = sp.point_at(rng.randrange(sp.size))
        b = sp.point_at(rng.randrange(sp.size))
        before = sp.arithmetic_distance(a, b)
        after = sp.arithmetic_distance(sp.apply_motion(g, a), sp.apply_motion(g, b))
        assert before == after


def test_motion_maps_lines_to_lines():
    sp = sym_space(2, 3)
    rng = random.Random(7)
    g = sp.random_motion(rng)
    line_set = {ln.points for ln in sp.lines()}
    for line in sp.lines():
        image = tuple(
            sorted(sp.apply_motion(g, sp.point_at(m)).index for m in line.points)
        )
        assert image in line_set


def test_singular_motion_rejected():
    sp = sym_space(2, 2)
    with pytest.raises(NotInvertibleError):
        sp.motion([[1, 1], [1, 1]], sp.zero())


def test_alternate_detection():
    sp = sym_space(2, 2)
    assert sp.is_alternate(sp.sym_unit(1, 2))
    assert not sp.is_alternate(sp.zero())
    assert not sp.is_alternate(sp.diag_unit(1))


def test_from_matrix_round_trip():
    sp = sym_space(3, 2)
    for idx in (0, 5, 17, 63):
        p = sp.point_at(idx)
        assert sp.from_matrix(sp.matrix_of(p)) == p


def test_bfs_and_line_caps():
    from symldpc.exceptions import TooLargeError

    sp = sym_space(3, 16)  # 16^6 points, past the BFS cap
    with pytest.raises(TooLargeError):
        sp.graph_distance(sp.zero(), sp.zero())
    with pytest.raises(TooLargeError):
        sp.deleted_neighbourhood(sp.zero(), delta=2)
    sp44 = sym_space(4, 4)
    with pytest.raises(TooLargeError):
        sp44.lines()


def test_deleted_neighbourhood_shell_past_bfs_cap():
    sp = sym_space(3, 16)
    assert sp.size > BFS_POINT_CAP
    assert len(sp.deleted_neighbourhood(sp.zero(), delta=1)) == 16**3 - 1


def reference_lines(sp):
    """The filter-based enumeration that lines() replaced, kept as the oracle.

    Every (direction, point) pair builds the q members of its line, and the
    pair is kept when the point is the line's smallest member.  Returns
    (members, direction entries) in canonical order.
    """
    tbl = sp.field.add_table
    collected = []
    for d_ent in sp.direction_entries():
        mults = [sp.scale(x, sp.point(d_ent)).entries for x in range(sp.q)]
        for idx in range(sp.size):
            ent = sp.point_at(idx).entries
            members = sorted(
                sp.point([tbl[a][b] for a, b in zip(ent, me)]).index for me in mults
            )
            if members[0] == idx:
                collected.append((tuple(members), d_ent))
    collected.sort(key=lambda t: t[0])
    return collected


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (2, 8), (3, 2), (3, 3)])
def test_lines_match_filter_enumeration(n, q):
    sp = sym_space(n, q)
    got = [(ln.points, ln.dir.entries, ln.index, ln.base.index) for ln in sp.lines()]
    want = [(m, d, k, m[0]) for k, (m, d) in enumerate(reference_lines(sp))]
    assert got == want


def per_direction_lines(sp):
    """The per-line enumeration that the member array replaced, kept as the oracle.

    For each direction D and each point S whose entry at D's leading
    position is 0, the members of {S + x*D} are added up one entry at a
    time through the field tables; the member tuples are then sorted.
    """
    add, mul = sp.field.add_table, sp.field.mul_table
    place = [sp.q**k for k in range(sp.dim)]
    collected = []
    for d_ent in sp.direction_entries():
        lead = d_ent.index(1)
        for rest in itertools.product(range(sp.q), repeat=sp.dim - 1):
            base = rest[:lead] + (0,) + rest[lead:]
            collected.append(tuple(sorted(
                sum(add[a][mul[x][b]] * w for a, b, w in zip(base, d_ent, place))
                for x in range(sp.q)
            )))
    collected.sort()
    return collected


# n = 3 stops at q = 5: q = 7 has 0.96 million lines, which the oracle would
# take minutes over, and q = 8 and 9 (19.1 and 48.4 million incidences) are
# past EDGE_CAP
@pytest.mark.parametrize(
    "n,q",
    [(n, q) for n in (1, 2, 3) for q in (2, 3, 4, 5, 7, 8, 9) if n < 3 or q <= 5],
)
def test_line_array_matches_per_direction_enumeration(n, q):
    sp = SymSpace(n, field_of_size(q))
    lines = sp.line_array()
    assert lines.shape == (sp.line_count(), q)
    assert lines.tolist() == [list(m) for m in per_direction_lines(sp)]
    assert not lines.flags.writeable


def test_line_array_refuses_more_lines_than_the_cap():
    with pytest.raises(TooLargeError):
        SymSpace(3, field_of_size(9)).line_array()


def test_line_array_refuses_more_incidences_than_build_h_takes():
    # S_3(F_8) has 2.4 million lines of 8 points: 19.1 million incidences
    sp = SymSpace(3, field_of_size(8))
    with pytest.raises(TooLargeError, match="19136512 incidences, exceeding cap 16777216"):
        sp.line_array()


@pytest.mark.parametrize("n,q", [(2, 4), (3, 3)])
def test_line_rows_finds_every_line_in_any_member_order(n, q):
    sp = sym_space(n, q)
    lines = sp.line_array()
    shuffled = np.random.default_rng(7).permuted(lines, axis=1)
    assert sp.line_rows(shuffled).tolist() == list(range(len(lines)))
    # two points of a line with the rest of another are no line
    mixed = np.concatenate([lines[0, :2], lines[1, 2:]])
    with pytest.raises(BadParametersError, match="not a line"):
        sp.line_rows([mixed])
    with pytest.raises(BadParametersError, match="not a line"):
        sp.line_rows([[sp.size + k for k in range(q)]])


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_lines_through_and_line_through_agree_with_lines(n, q):
    sp = sym_space(n, q)
    lines = sp.lines()
    for idx in range(sp.size):
        s = sp.point_at(idx)
        through = sp.lines_through(s)
        assert sorted(ln.index for ln in through) == [
            ln.index for ln in lines if idx in ln.points
        ]
        for ln in through:
            assert lines[ln.index] == ln and lines[ln.index].dir == ln.dir
            other = sp.point_at(next(m for m in ln.points if m != idx))
            assert sp.line_through(s, other).index == ln.index


def test_line_index_enumerates_lines_once_on_a_fresh_space(monkeypatch):
    lines = sym_space(2, 3).lines()
    sp = SymSpace(2, field_of_size(3))
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))

    def no_lines():
        raise AssertionError("line_index built Line objects")

    sp.lines = no_lines
    for ln in lines:
        assert sp.line_index(reversed(ln.points)) == ln.index
    assert len(calls) == 1
    with pytest.raises(BadParametersError, match="not a line"):
        sp.line_index(lines[0].points[:2] + lines[1].points[2:])


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_distances_match_per_root_oracle(n, q):
    sp = sym_space(n, q)
    dists = _all_graph_distances(sp)
    pts = [sp.point_at(i) for i in range(sp.size)]
    radius = max(max(row) for row in dists)
    for i, s in enumerate(pts):
        assert [sp.graph_distance(s, t) for t in pts] == dists[i]
        for delta in range(1, radius + 2):
            want = {pts[j] for j in range(sp.size) if 0 < dists[i][j] <= delta}
            assert sp.deleted_neighbourhood(s, delta) == want
