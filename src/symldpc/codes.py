"""Code objects: the two symmetric-geometry families and random baselines.

A CodeSpec is the one description of a code: its family, its parity-check
matrix h, an id, and (n, q) for the geometry families.  Whatever h
determines (length, dimension, girth, row/column labels) is derived from
it on demand.  `make_code` wraps an incidence matrix (or its transpose).
The explicit witness constructions certify distances directly:
`ctranspose_witness` returns 2q lines whose transpose columns sum to zero,
and `c2q_witness` returns 4q points (even q only) met by every
line in 0 or 2 positions; `family_witness` says which one fits a code,
and `CodeSpec.witness` builds it once per code, on first use.
A witness seeds the `gf2` distance searches, as `certified_min_distance`
and `certified_stopping_distance` do.  `independent_row_family` selects
rows that are provably independent, which pins the rank from below.

For odd q the dimension of either geometry code is a count of characters
(`geometry_dimension`), not an elimination.  The group G = (F_q^N, +),
N = n(n+1)/2, has odd order, so F_2[G] is semisimple (Maschke).  Over an
extension K of F_2 that holds the p-th roots of unity, it splits into one
line per character chi_A(X) = psi(A . X), one for each point A, where psi
is a nontrivial additive character of F_q and A . X the dot product of
entry vectors.  The rows of H(n,q) are the translates of the indicators of
the subgroups {xD : x in F_q}, one per direction D, so the row space is
the ideal they generate: the sum of the lines of the characters that some
indicator does not kill.  Summed over {xD}, chi_A gives q, which is 1 in
K, when A . D = 0, and 0 otherwise.  Rank does not change with the field,
so rank H = q^N - #{A : A . D != 0 for every D}.  Hence dim C(n,q) is that
anisotropic count (`SymSpace.anisotropic_count`), and dim CT(n,q) is the
number of lines minus rank H.  A . (u u^T) is a quadratic form in u, so
the count is that of the anisotropic forms, and for n >= 3 it is 0: every
quadratic form in 3 or more variables has a nonzero zero
(Chevalley-Warning; Lidl and Niederreiter, *Finite Fields*, ch. 6).
`CodeSpec.dimension` counts only when h is exactly the matrix that
`make_code(family, n, q)` builds, and eliminates otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import gf2
from .exceptions import (
    BadCharacteristicError,
    BadParametersError,
    StructureViolationError,
    check_integer,
)
from .gf import factor_prime_power, field_of_size
from .incidence import SparseBitMatrix, build_h
from .incidence import girth as graph_girth
from .symspace import EDGE_CAP, SymSpace

FAMILY_SYMMETRIC = "symmetric"
FAMILY_TRANSPOSE = "symmetric_transpose"
FAMILY_GALLAGER = "gallager_random"

# how CodeSpec.dimension was found
DIMENSION_CHARACTER_COUNT = "character_count"
DIMENSION_ELIMINATION = "elimination"


@lru_cache(maxsize=None)
def sym_space(n: int, q: int) -> SymSpace:
    """Shared SymSpace instances so line enumerations are computed once."""
    return SymSpace(n, field_of_size(q))


@dataclass(eq=False)
class CodeSpec:
    """A binary linear code: its parity-check matrix h and what h cannot give."""

    family: str
    h: SparseBitMatrix
    code_id: str
    n: int | None = None
    q: int | None = None

    def __post_init__(self):
        if not isinstance(self.family, str):
            raise BadParametersError(f"family must be a string, got {self.family!r}")
        for name, value, least in (("n", self.n, 1), ("q", self.q, 2)):
            if value is not None:
                check_integer(name, value, least)

    @property
    def length(self) -> int:
        return self.h.ncols

    @cached_property
    def dimension_method(self) -> str:
        """How `dimension` is found: by character count or by elimination."""
        built = _is_built_odd_geometry(self.family, self.n, self.q, self.h)
        return DIMENSION_CHARACTER_COUNT if built else DIMENSION_ELIMINATION

    @cached_property
    def dimension(self) -> int:
        """dim of the null space of h, computed on first use.

        `geometry_dimension` counts it when q is odd and h is exactly the
        matrix that `make_code(family, n, q)` builds; any other h, including
        a permuted or altered one, is eliminated over GF(2).
        """
        if self.dimension_method == DIMENSION_CHARACTER_COUNT:
            return geometry_dimension(self.family, self.n, self.q)
        return gf2.code_dimension(self.h)

    @property
    def rate(self) -> float:
        return self.dimension / self.length

    @property
    def labels(self) -> dict[str, str] | None:
        """What the rows and columns of h stand for in the two geometry families."""
        if self.family == FAMILY_SYMMETRIC:
            return {"rows": "lines", "cols": "points"}
        if self.family == FAMILY_TRANSPOSE:
            return {"rows": "points", "cols": "lines"}
        return None

    @cached_property
    def witness(self) -> frozenset[int] | None:
        """`family_witness(self)`, built on first use and kept."""
        return family_witness(self)

    @property
    def girth(self):
        """Girth of the Tanner graph of h (computed once per matrix, on demand)."""
        return graph_girth(self.h)


def _check_family(family: str) -> None:
    if family not in (FAMILY_SYMMETRIC, FAMILY_TRANSPOSE):
        raise BadParametersError(
            f"unknown family {family!r}; expected {FAMILY_SYMMETRIC!r} or {FAMILY_TRANSPOSE!r}"
        )


def make_code(family: str, n: int, q: int) -> CodeSpec:
    """Build the symmetric-geometry code or its transpose counterpart."""
    _check_family(family)
    h = build_h(sym_space(n, q))
    if family == FAMILY_SYMMETRIC:
        return CodeSpec(family=family, h=h, code_id=f"C({n},{q})", n=n, q=q)
    return CodeSpec(family=family, h=h.transpose(), code_id=f"CT({n},{q})", n=n, q=q)


def ctranspose_witness(n: int, q: int) -> frozenset[int]:
    """2q line indices whose transpose columns sum to zero over GF(2).

    The lines fix one of the two leading diagonal entries and sweep the
    other: {corner(y, 0, x) : y} for each x, and {corner(x, 0, y) : y} for
    each x.  Every corner-diagonal point lies on exactly two of them, so
    the corresponding columns of the transpose are dependent; that is
    checked on the lines' own rows of the member array, without building
    the matrix.
    """
    space = sym_space(n, q)
    witness = set()
    for x in range(q):
        witness.add(space.line_index([space.corner(y, 0, x).index for y in range(q)]))
        witness.add(space.line_index([space.corner(x, 0, y).index for y in range(q)]))
    hits = np.bincount(space.line_array()[sorted(witness)].ravel())
    if len(witness) != 2 * q or (hits % 2).any():
        raise StructureViolationError(
            f"CT({n},{q}): the {len(witness)} witness lines are not 2q dependent columns"
        )
    return frozenset(witness)


def c2q_witness(q: int) -> frozenset[int]:
    """4q point indices met by every line in 0 or 2 positions (n = 2, q = 2^m).

    The points are the corners (a, t, c) for a in {0, 1}, t in GF(q) and
    c in {t^2, t^2 + 1}; t = 0 gives the four corner diagonals.  They are
    built as one array through the field tables, and each line is checked
    to meet them in 0 or 2 points, so the columns are dependent over GF(2).
    """
    fld = field_of_size(q)
    if fld.p != 2:
        raise BadCharacteristicError(f"construction needs characteristic 2, got {fld.p}")
    space = sym_space(2, q)
    add, mul, place = space._tables
    t = np.arange(q)
    squares = mul[t, t]
    corners = [
        np.stack([np.full(q, a), t, c], axis=1) for a in (0, 1) for c in (squares, add[squares, 1])
    ]
    pts = set((np.concatenate(corners) @ place).tolist())
    if len(pts) != 4 * q:
        raise StructureViolationError(f"c2q witness has {len(pts)} points, expected 4q")
    marked = np.zeros(space.size, dtype=bool)
    marked[list(pts)] = True
    meets = marked[space.line_array()].sum(axis=1)
    odd = np.flatnonzero((meets != 0) & (meets != 2))
    if len(odd):
        raise StructureViolationError(
            f"line {odd[0]} meets the c2q witness in {meets[odd[0]]} points, expected 0 or 2"
        )
    return frozenset(pts)


def independent_row_family(n: int, q: int) -> frozenset[int]:
    """Line indices whose rows are linearly independent over GF(2).

    For i = 1..n, take the lines that sweep the (i, i) diagonal entry of a
    point whose (i, i) entry is 0 and whose earlier diagonal entries are
    all nonzero.  The union has q^((n^2-n)/2) * (q^n - (q-1)^n) rows and
    full rank, which bounds the rank of the incidence matrix from below.
    The unit at (i, i) has index q^k for the entry's place k, so such a
    line's members are the point's index plus x * q^k, found in the
    member array by `SymSpace.line_rows`.
    """
    space = sym_space(n, q)
    space.line_array()  # refuses an oversized space before the point arrays
    index = np.arange(space.size)
    earlier_nonzero = np.ones(space.size, dtype=bool)
    selected = set()
    for i in range(1, n + 1):
        unit = space.diag_unit(i).index
        entry = index // unit % q
        base = index[(entry == 0) & earlier_nonzero]
        selected.update(space.line_rows(base[:, None] + unit * np.arange(q)).tolist())
        earlier_nonzero &= entry != 0
    expected = q ** ((n * n - n) // 2) * (q**n - (q - 1) ** n)
    if len(selected) != expected:
        raise StructureViolationError(
            f"independent row family has {len(selected)} lines, expected {expected}"
        )
    return frozenset(selected)


def _shape(n: int, q: int) -> tuple[int, int]:
    """(lines, points) of S_n(F_q): (q^n - 1)/(q - 1) * q^((n^2+n-2)/2) and q^(n(n+1)/2)."""
    return (q**n - 1) // (q - 1) * q ** ((n * n + n - 2) // 2), q ** (n * (n + 1) // 2)


def _is_built_odd_geometry(family: str, n: int | None, q: int | None, h: SparseBitMatrix) -> bool:
    """True when q is an odd prime power and h is exactly `make_code(family, n, q).h`.

    The shape and entry count are compared first, from closed forms, so an
    (n, q) that does not fit h never enumerates lines; then the rows, lines
    by points, are compared with the space's member array.
    """
    if family not in (FAMILY_SYMMETRIC, FAMILY_TRANSPOSE) or n is None or q is None or q % 2 == 0:
        return False
    lines, points = _shape(n, q)
    shape = (lines, points) if family == FAMILY_SYMMETRIC else (points, lines)
    if (h.nrows, h.ncols) != shape or h.edge_count != lines * q or lines * q > EDGE_CAP:
        return False
    try:
        factor_prime_power(q)
    except BadParametersError:
        return False
    oriented = h if family == FAMILY_SYMMETRIC else h.transpose()
    members = sym_space(n, q).line_array().ravel()
    return bool((oriented.row_weights == q).all()) and np.array_equal(oriented.cols, members)


def geometry_dimension(family: str, n: int, q: int) -> int:
    """dim C(n,q) or dim CT(n,q) for odd q, by the character count of the module docstring.

    dim C(n,q) is the anisotropic count, and dim CT(n,q) is the number of
    lines less rank H(n,q), which is q^N less that count.
    """
    _check_family(family)
    space = sym_space(n, q)
    if q % 2 == 0:
        raise BadCharacteristicError(f"the character count needs odd q, got {q}")
    anisotropic = space.anisotropic_count()
    if family == FAMILY_SYMMETRIC:
        return anisotropic
    return space.line_count() - (space.size - anisotropic)


def symmetric_dimension_bound(n: int, q: int) -> int:
    """Upper bound q^((n^2-n)/2) * (q-1)^n on the symmetric-family dimension."""
    return q ** ((n * n - n) // 2) * (q - 1) ** n


def transpose_dimension_bound(n: int, q: int) -> int:
    """Upper bound r - c + symmetric bound on the transpose-family dimension."""
    r, c = _shape(n, q)
    return r - c + symmetric_dimension_bound(n, q)


def family_witness(code: CodeSpec) -> frozenset[int] | None:
    """`ctranspose_witness` for the transpose family, `c2q_witness` for n = 2, even q, else None.

    A witness column past h, from (n, q) that do not fit h, is refused.
    """
    if code.n is None or code.q is None:
        return None
    if code.family == FAMILY_TRANSPOSE:
        witness = ctranspose_witness(code.n, code.q)
    elif code.family == FAMILY_SYMMETRIC and code.n == 2 and code.q % 2 == 0:
        witness = c2q_witness(code.q)
    else:
        return None
    if max(witness) >= code.h.ncols:
        raise StructureViolationError(
            f"{code.code_id}: witness column {max(witness)} is outside the "
            f"{code.h.ncols} columns of h"
        )
    return witness


def certified_min_distance(code: CodeSpec) -> gf2.DistanceResult | None:
    """`gf2.min_distance` seeded with a transpose-family code's witness; else None."""
    witness = code.witness if code.family == FAMILY_TRANSPOSE else None
    return None if witness is None else gf2.min_distance(code.h, seed=witness)


def certified_stopping_distance(code: CodeSpec) -> gf2.DistanceResult | None:
    """`gf2.stopping_distance` seeded with the same witness, a codeword's support; else None."""
    witness = code.witness if code.family == FAMILY_TRANSPOSE else None
    return None if witness is None else gf2.stopping_distance(code.h, seed=witness)


def gallager_random(length: int, col_wt: int, row_wt: int, seed: int) -> CodeSpec:
    """Random regular parity-check matrix from the classic band ensemble.

    The first band is the block-diagonal strip of row_wt-wide runs; each of
    the remaining col_wt - 1 bands applies a seeded random column
    permutation to it.  Bands occupy disjoint row ranges, so row and column
    weights are exact by construction.  Deterministic for a fixed seed.
    """
    length = check_integer("length", length, 1)
    col_wt = check_integer("col_wt", col_wt, 1)
    row_wt = check_integer("row_wt", row_wt, 1)
    seed = check_integer("seed", seed, 0)
    if length % row_wt != 0:
        raise BadParametersError(
            f"row weight {row_wt} must divide the length {length}"
        )
    band_rows = length // row_wt
    nrows = band_rows * col_wt
    rng = np.random.Generator(np.random.PCG64(seed))
    perms = [np.arange(length)] + [rng.permutation(length) for _ in range(col_wt - 1)]
    rows = np.sort(np.concatenate(perms).reshape(nrows, row_wt), axis=1)
    h = SparseBitMatrix.from_flat(nrows, length, rows, np.full(nrows, row_wt))
    if (h.col_weights != col_wt).any():
        raise StructureViolationError(f"band ensemble column weight is not {col_wt}")
    return CodeSpec(family=FAMILY_GALLAGER, h=h, code_id=f"G({length},{col_wt},{row_wt},s{seed})")
