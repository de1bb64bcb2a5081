"""Geometry of the space of n x n symmetric matrices over GF(q).

Points are symmetric matrices, stored as the n(n+1)/2 upper-triangular
entries in row-major order (s11, s12, ..., s1n, s22, ..., snn).  The
canonical point index is the mixed-radix integer over those entries with
s11 least significant, so points enumerate 0 .. q^(n(n+1)/2) - 1.

Two points are adjacent when their difference has rank 1.  A "line" is a
maximal set of pairwise-adjacent points; it is a coset {S + x*D : x in
GF(q)} of a rank-1 direction D and contains exactly q points.  Lines are
identified by their sorted member-index tuple and enumerated in
lexicographic order of that tuple, which fixes the row ordering of the
incidence matrices built on top of this module.

Point arithmetic past single points runs on one cached set of arrays:
the field's addition and multiplication tables and the place value q^k
of entry k.  `_sums` adds rows of step entries to rows of point entries
and returns the sums' indices, and `_matmul` multiplies matrices over
the field.  Line members, rank-1 neighbours, the BFS layers, ranks,
motions and the anisotropic count all go through them.

The enumeration is one (r, q) integer array, `line_array()`: per
direction D, the q members of the line through every base point whose
entry at D's leading position is 0, as one `_sums` call, then one
`np.lexsort` of the sorted rows.  `line_index` looks lines up in it, and
`lines()` builds `Line` objects from it only when asked.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .exceptions import (
    BadParametersError,
    DimensionMismatchError,
    EmptyInputError,
    NotAdjacentError,
    NotInvertibleError,
    StructureViolationError,
    TooLargeError,
    check_integer,
)
from .gf import FieldTable

# the point-graph BFS (distance_layers) refuses spaces larger than this
BFS_POINT_CAP = 1 << 22
# the line enumeration refuses instances with more incidences (lines x q) than this
EDGE_CAP = 1 << 24


@dataclass(frozen=True)
class SymPoint:
    """A symmetric matrix point: upper-triangular entries plus its index."""

    n: int
    q: int
    entries: tuple[int, ...]
    index: int


@dataclass(frozen=True)
class Line:
    """A maximal set of q pairwise-adjacent points.

    Identity is the sorted member-index tuple; `dir` is the rank-1
    difference normalized so its first nonzero upper-triangular entry is 1,
    and `index` is the position in the canonical enumeration (None for
    lines built standalone, before the space enumerated all lines).
    """

    base: SymPoint
    points: tuple[int, ...]
    dir: SymPoint = field(compare=False)
    index: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Motion:
    """A transformation X -> P^T X P + S with P invertible over GF(q)."""

    p_rows: tuple[tuple[int, ...], ...]
    shift: SymPoint


class SymSpace:
    """The point set of n x n symmetric matrices over a fixed field."""

    def __init__(self, n: int, fld: FieldTable):
        n = check_integer("n", n, 1)
        self.n = n
        self.field = fld
        self.q = fld.q
        self.dim = n * (n + 1) // 2
        self.size = self.q**self.dim
        self._coords = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        self._pos = {c: k for k, c in enumerate(self._coords)}
        self._lines: tuple[Line, ...] | None = None

    # -- points --------------------------------------------------------------

    def _index_of(self, entries: tuple[int, ...]) -> int:
        s = 0
        for e in reversed(entries):
            s = s * self.q + e
        return s

    def _entries_of(self, index: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.dim):
            out.append(index % self.q)
            index //= self.q
        return tuple(out)

    def point(self, entries) -> SymPoint:
        entries = tuple(int(e) for e in entries)
        if len(entries) != self.dim:
            raise DimensionMismatchError(
                f"expected {self.dim} upper-triangular entries, got {len(entries)}"
            )
        for e in entries:
            if not 0 <= e < self.q:
                raise BadParametersError(f"entry {e} outside [0, {self.q})")
        return SymPoint(self.n, self.q, entries, self._index_of(entries))

    def point_at(self, index: int) -> SymPoint:
        if not 0 <= index < self.size:
            raise BadParametersError(f"point index {index} outside [0, {self.size})")
        return SymPoint(self.n, self.q, self._entries_of(index), index)

    def zero(self) -> SymPoint:
        return self.point((0,) * self.dim)

    def identity(self) -> SymPoint:
        ent = [0] * self.dim
        for i in range(1, self.n + 1):
            ent[self._pos[(i, i)]] = 1
        return self.point(ent)

    def diag_unit(self, i: int) -> SymPoint:
        """The matrix with a single 1 at diagonal position (i, i), 1-based."""
        ent = [0] * self.dim
        ent[self._pos[(i, i)]] = 1
        return self.point(ent)

    def sym_unit(self, i: int, j: int) -> SymPoint:
        """The symmetric matrix with 1 at (i, j) and (j, i), i != j, 1-based."""
        if i == j:
            raise BadParametersError("sym_unit requires i != j; use diag_unit")
        ent = [0] * self.dim
        ent[self._pos[(min(i, j), max(i, j))]] = 1
        return self.point(ent)

    def corner(self, a: int, b: int, c: int) -> SymPoint:
        """The matrix with top-left 2x2 block [[a, b], [b, c]] and zeros elsewhere."""
        if self.n < 2:
            raise DimensionMismatchError("corner pattern needs n >= 2")
        ent = [0] * self.dim
        ent[self._pos[(1, 1)]] = a
        ent[self._pos[(1, 2)]] = b
        ent[self._pos[(2, 2)]] = c
        return self.point(ent)

    def from_matrix(self, rows) -> SymPoint:
        rows = [list(r) for r in rows]
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise DimensionMismatchError(f"expected a {self.n}x{self.n} matrix")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if rows[i][j] != rows[j][i]:
                    raise BadParametersError("matrix is not symmetric")
        return self.point([rows[i - 1][j - 1] for (i, j) in self._coords])

    def entry(self, s: SymPoint, i: int, j: int) -> int:
        """Entry at 1-based position (i, j) of the full symmetric matrix."""
        self._check_point(s)
        return s.entries[self._pos[(min(i, j), max(i, j))]]

    def matrix_of(self, s: SymPoint) -> list[list[int]]:
        mat = [[0] * self.n for _ in range(self.n)]
        for (i, j), e in zip(self._coords, s.entries):
            mat[i - 1][j - 1] = e
            mat[j - 1][i - 1] = e
        return mat

    def _check_point(self, s: SymPoint) -> None:
        if s.n != self.n or s.q != self.q:
            raise DimensionMismatchError(
                f"point from S_{s.n}(F_{s.q}) used in S_{self.n}(F_{self.q})"
            )

    # -- arithmetic ----------------------------------------------------------

    def add(self, s1: SymPoint, s2: SymPoint) -> SymPoint:
        self._check_point(s1)
        self._check_point(s2)
        tbl = self.field.add_table
        ent = tuple(tbl[a][b] for a, b in zip(s1.entries, s2.entries))
        return SymPoint(self.n, self.q, ent, self._index_of(ent))

    def sub(self, s1: SymPoint, s2: SymPoint) -> SymPoint:
        self._check_point(s1)
        self._check_point(s2)
        tbl = self.field.add_table
        neg = self.field.neg_table
        ent = tuple(tbl[a][neg[b]] for a, b in zip(s1.entries, s2.entries))
        return SymPoint(self.n, self.q, ent, self._index_of(ent))

    def scale(self, x: int, s: SymPoint) -> SymPoint:
        self._check_point(s)
        row = self.field.mul_table[x]
        ent = tuple(row[e] for e in s.entries)
        return SymPoint(self.n, self.q, ent, self._index_of(ent))

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(add, mul, place): the field tables as arrays and the place value q^k of entry k.

        Past 2^63 points the place values are Python ints, so indices do not wrap.
        """
        add = np.array(self.field.add_table, dtype=np.int64)
        mul = np.array(self.field.mul_table, dtype=np.int64)
        wide = self.size > np.iinfo(np.int64).max
        place = np.array([self.q**k for k in range(self.dim)], dtype=object if wide else np.int64)
        return add, mul, place

    def _sums(self, points, steps) -> np.ndarray:
        """Indices of point + step: a row per entry row of `points`, a column per one of `steps`."""
        add, _, place = self._tables
        return add[np.asarray(points)[:, None, :], np.asarray(steps)[None, :, :]] @ place

    def _matmul(self, a, b) -> np.ndarray:
        """The matrix product a b over the field."""
        add, mul, _ = self._tables
        terms = mul[np.asarray(a)[:, :, None], np.asarray(b)[None, :, :]]
        return reduce(lambda acc, t: add[acc, t], terms.transpose(1, 0, 2))

    def is_alternate(self, s: SymPoint) -> bool:
        """Nonzero with an all-zero diagonal (the characteristic-2 special case)."""
        self._check_point(s)
        if s.index == 0:
            return False
        return all(s.entries[self._pos[(i, i)]] == 0 for i in range(1, self.n + 1))

    # -- ranks and distances ---------------------------------------------------

    def _matrix_rank(self, rows) -> int:
        """Rank over the field, by Gauss-Jordan row operations on an array through the tables."""
        if not len(rows):
            return 0
        add, mul, _ = self._tables
        neg = np.array(self.field.neg_table)
        mat = np.array(rows, dtype=np.int64)
        rank = 0
        for col in range(mat.shape[1]):
            piv = np.flatnonzero(mat[rank:, col])
            if not len(piv):
                continue
            mat[[rank, rank + piv[0]]] = mat[[rank + piv[0], rank]]
            mat[rank] = mul[self.field.inv_table[mat[rank, col]], mat[rank]]
            # subtract (entry at col) * pivot row from every other row
            factor = neg[mat[:, col]]
            factor[rank] = 0
            mat = add[mat, mul[factor[:, None], mat[rank]]]
            rank += 1
            if rank == len(mat):
                break
        return rank

    def rank(self, s: SymPoint) -> int:
        self._check_point(s)
        return self._matrix_rank(self.matrix_of(s))

    def arithmetic_distance(self, s1: SymPoint, s2: SymPoint) -> int:
        return self.rank(self.sub(s1, s2))

    def neighbor_indices(self, idx: int) -> list[int]:
        """Indices of all points at arithmetic distance 1 from the given index."""
        return self._sums([self._entries_of(idx)], self.rank_one_entries())[0].tolist()

    def distance_layers(self, s: SymPoint):
        """Yield the ascending index lists of the points at graph distance 0, 1, 2, ... from s.

        This is the one BFS of the rank-1 adjacency graph; it stops after the
        last nonempty layer of s's component.  Each layer is split into
        entry rows and added to every rank-1 point through the tables, a
        block of rows at a time so the (rows, q^n - 1, dim) sum stays small.
        """
        self._check_point(s)
        if self.size > BFS_POINT_CAP:
            raise TooLargeError(f"{self.size} points exceeds BFS cap {BFS_POINT_CAP}")
        place = self._tables[2]
        steps = np.array(self.rank_one_entries())
        rows = max(1, (1 << 18) // steps.size)
        seen = np.zeros(self.size, dtype=bool)
        seen[s.index] = True
        layer = np.array([s.index])
        while len(layer):
            yield layer.tolist()
            reached = np.zeros_like(seen)
            for lo in range(0, len(layer), rows):
                reached[self._sums(layer[lo : lo + rows, None] // place % self.q, steps)] = True
            layer = np.flatnonzero(reached & ~seen)
            seen[layer] = True

    def graph_distance(self, s1: SymPoint, s2: SymPoint) -> int:
        """Shortest-path length in the rank-1 adjacency graph, by BFS."""
        self._check_point(s2)
        for d, layer in enumerate(self.distance_layers(s1)):
            if s2.index in layer:
                return d
        raise StructureViolationError("rank-1 graph is disconnected")  # unreachable

    # -- rank-1 points and lines ------------------------------------------------

    @cached_property
    def _directions(self) -> tuple[tuple[int, ...], ...]:
        # a rank-1 symmetric matrix is c * u u^T; scaling u so that its first
        # nonzero entry is 1 gives one u per scalar class, and u u^T then has
        # leading upper-triangular entry u_k^2 = 1
        mul = self.field.mul_table
        dirs = tuple(
            tuple(mul[u[i - 1]][u[j - 1]] for i, j in self._coords)
            for u in itertools.product(range(self.q), repeat=self.n)
            if next((x for x in u if x), None) == 1
        )
        if len(dirs) != (self.q**self.n - 1) // (self.q - 1):
            raise StructureViolationError(f"{len(dirs)} directions, expected (q^n - 1)/(q - 1)")
        return dirs

    @cached_property
    def _rank_one(self) -> tuple[tuple[int, ...], ...]:
        mul = self.field.mul_table
        ents = tuple(
            tuple(mul[c][e] for e in d) for c in range(1, self.q) for d in self._directions
        )
        if len(set(ents)) != self.q**self.n - 1:
            raise StructureViolationError(f"{len(set(ents))} distinct rank-1 points, expected q^n - 1")
        return ents

    def anisotropic_count(self) -> int:
        """Number of points A with A . D != 0 for every direction D.

        A . D is the field dot product of the entry vectors, so A . (u u^T)
        is a quadratic form in u and this counts the forms with no nonzero
        zero.  One pass per direction keeps the entry rows of the points
        still counted, so no array is larger than the points' entries.
        """
        place = self._tables[2]
        alive = np.arange(self.size)[:, None] // place % self.q
        for d_ent in self.direction_entries():
            alive = alive[self._matmul(alive, np.array(d_ent)[:, None])[:, 0] != 0]
        return len(alive)

    def rank_one_entries(self) -> tuple[tuple[int, ...], ...]:
        """Entry vectors of all q^n - 1 rank-1 points, c * u u^T for c != 0."""
        return self._rank_one

    def direction_entries(self) -> tuple[tuple[int, ...], ...]:
        """One rank-1 representative per scalar class, u u^T: first nonzero entry is 1."""
        return self._directions

    def deleted_neighbourhood(self, s: SymPoint, delta: int = 1) -> set[SymPoint]:
        """Points at graph distance in (0, delta] from s."""
        self._check_point(s)
        if delta < 1:
            raise BadParametersError(f"delta must be >= 1, got {delta}")
        if delta == 1:
            # the shell alone needs no BFS, so it works past the BFS cap
            return {self.point_at(nb) for nb in self.neighbor_indices(s.index)}
        layers = itertools.islice(self.distance_layers(s), 1, delta + 1)
        return {self.point_at(idx) for layer in layers for idx in layer}

    def common_deleted_neighbourhood(self, points) -> set[SymPoint]:
        """Intersection of the rank-1 shells of the given points."""
        pts = list(points)
        if not pts:
            raise EmptyInputError("need at least one point")
        common = self.deleted_neighbourhood(pts[0])
        for s in pts[1:]:
            common &= self.deleted_neighbourhood(s)
        return common

    def _normalize_direction(self, ent: tuple[int, ...]) -> tuple[int, ...]:
        lead = next(x for x in ent if x)
        if lead == 1:
            return ent
        row = self.field.mul_table[self.field.inv_table[lead]]
        return tuple(row[e] for e in ent)

    def line_through(self, s1: SymPoint, s2: SymPoint) -> Line:
        """The unique line containing two adjacent points, in canonical form."""
        self._check_point(s1)
        self._check_point(s2)
        diff = self.sub(s1, s2)
        if self.rank(diff) != 1:
            raise NotAdjacentError(
                f"points differ by rank {self.rank(diff)}, need rank 1"
            )
        d_ent = self._normalize_direction(diff.entries)
        return self._line(self._line_members(s2.entries, d_ent), d_ent)

    def _line_members(self, s_ent: tuple[int, ...], d_ent: tuple[int, ...]) -> tuple[int, ...]:
        """Sorted point indices of the line {S + x*D : x in GF(q)}."""
        return tuple(sorted(self._sums([s_ent], self._tables[1][:, d_ent])[0].tolist()))

    def _line(self, members: tuple[int, ...], d_ent: tuple[int, ...], index=None) -> Line:
        """The one place a Line is made.

        Without an index, a line takes its canonical index when the space
        has already enumerated its lines, else None.
        """
        if index is None and "_enumeration" in vars(self):
            index = int(self.line_rows([members])[0])
        return Line(
            base=self.point_at(members[0]),
            points=members,
            dir=SymPoint(self.n, self.q, d_ent, self._index_of(d_ent)),
            index=index,
        )

    def line_count(self) -> int:
        """(q^n - 1)/(q - 1) * q^((n^2 + n - 2)/2), without enumerating."""
        return (self.q**self.n - 1) // (self.q - 1) * self.q ** ((self.n**2 + self.n - 2) // 2)

    @cached_property
    def _enumeration(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(members, direction numbers, keys) of every line, in canonical order.

        A line along D meets the points whose entry at D's leading position
        k (where D has a 1) is 0 exactly once, at x = -S_k, so those
        q^(dim-1) base points enumerate the lines along D with no
        duplicates.  Point entries are added and scaled through the field
        tables as arrays.  The sorted rows are ordered by one lexsort, and
        a line's key is first member * size + second member: two points fix
        a line, so the keys ascend strictly with the rows.
        """
        r = self.line_count()
        if r * self.q > EDGE_CAP:
            raise TooLargeError(
                f"instance has r={r} lines x q={self.q} = {r * self.q} incidences, "
                f"exceeding cap {EDGE_CAP} (c={self.size} points)"
            )
        q, dim = self.q, self.dim
        _, mul, place = self._tables
        # the other dim - 1 entries of every base point, least significant first
        rest = np.arange(q ** (dim - 1), dtype=np.int64)[:, None] // place[: dim - 1] % q
        # per direction, base + x*D for every base (rows) and x (columns)
        blocks = [
            self._sums(np.insert(rest, d_ent.index(1), 0, axis=1), mul[:, d_ent])
            for d_ent in self.direction_entries()
        ]
        members = np.sort(np.concatenate(blocks), axis=1)
        dirs = np.repeat(np.arange(len(blocks)), len(rest))
        order = np.lexsort(members.T[::-1])
        members, dirs = members[order], dirs[order]
        keys = members[:, 0] * self.size + members[:, 1]
        for a in (members, dirs, keys):
            a.flags.writeable = False
        return members, dirs, keys

    def line_array(self) -> np.ndarray:
        """Sorted member indices of every line as a read-only (r, q) array; row k is line k."""
        return self._enumeration[0]

    def line_rows(self, members) -> np.ndarray:
        """Canonical indices of the lines whose members are the rows of a (k, q) array.

        A row may list its members in any order; a row that is not a line of
        this space raises BadParametersError.
        """
        lines, _, keys = self._enumeration
        want = np.asarray(members, dtype=np.int64)
        if want.ndim != 2 or want.shape[1] != self.q:
            raise BadParametersError(f"expected rows of {self.q} members, got shape {want.shape}")
        want = np.sort(want, axis=1)
        inside = ((want >= 0) & (want < self.size)).all(axis=1)
        found = np.searchsorted(keys, want[:, 0] * self.size + want[:, 1])
        found = np.minimum(found, len(keys) - 1)
        bad = ~inside | (lines[found] != want).any(axis=1)
        if bad.any():
            row = tuple(want[np.argmax(bad)].tolist())
            raise BadParametersError(f"{row} is not a line of this space")
        return found

    def lines(self) -> tuple[Line, ...]:
        """All lines exactly once, ordered lexicographically by member tuple.

        Built from `line_array()` on the first call and kept.
        """
        if self._lines is None:
            members, dirs, _ = self._enumeration
            d_ents = self.direction_entries()
            self._lines = tuple(
                self._line(tuple(row), d_ents[d], k)
                for k, (row, d) in enumerate(zip(members.tolist(), dirs.tolist()))
            )
        return self._lines

    def line_index(self, members) -> int:
        """Canonical index of the line with the given member indices."""
        key = tuple(sorted(int(m) for m in members))
        if len(key) != self.q or not 0 <= key[0] <= key[-1] < self.size:
            raise BadParametersError(f"{key} is not a line of this space")
        return int(self.line_rows([key])[0])

    def lines_through(self, s: SymPoint) -> list[Line]:
        """All (q^n - 1)/(q - 1) lines containing the given point."""
        self._check_point(s)
        return [
            self._line(self._line_members(s.entries, d_ent), d_ent)
            for d_ent in self.direction_entries()
        ]

    # -- motions -----------------------------------------------------------------

    def motion(self, p_rows, shift: SymPoint) -> Motion:
        rows = [list(r) for r in p_rows]
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise DimensionMismatchError(f"P must be {self.n}x{self.n}")
        self._check_point(shift)
        if self._matrix_rank(rows) != self.n:
            raise NotInvertibleError("P is singular over the field")
        return Motion(tuple(tuple(r) for r in rows), shift)

    def apply_motion(self, g: Motion, s: SymPoint) -> SymPoint:
        """P^T S P + shift, re-symmetrized into canonical entry form."""
        self._check_point(s)
        self._check_point(g.shift)
        if len(g.p_rows) != self.n:
            raise DimensionMismatchError("motion dimension does not match space")
        p = np.array(g.p_rows)
        out = self._matmul(p.T, self._matmul(self.matrix_of(s), p))
        return self.add(self.from_matrix(out.tolist()), g.shift)

    def random_motion(self, rng: random.Random) -> Motion:
        while True:
            rows = [[rng.randrange(self.q) for _ in range(self.n)] for _ in range(self.n)]
            if self._matrix_rank([r[:] for r in rows]) == self.n:
                break
        shift = self.point_at(rng.randrange(self.size))
        return self.motion(rows, shift)

    def __repr__(self) -> str:
        return f"SymSpace(n={self.n}, q={self.q})"
