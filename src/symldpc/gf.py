"""Lookup-table arithmetic for the finite fields GF(p^m).

Field elements are canonical integer indices in [0, q) with q = p^m: the
base-p encoding of the polynomial coefficient vector, constant term least
significant.  Index 0 is the additive zero and index 1 the multiplicative
identity.  Each field uses one fixed monic modulus of degree m, so element
indices are stable across runs and platforms.

Products follow one rule.  Multiplying by a fixed a is GF(p)-linear, so if
b's lowest nonzero coefficient is at x^i, then b - x^i has index b - p^i
and a*b = a*(b - x^i) + a*x^i.  Row a of the product table thus fills in
ascending b from its own earlier entries.  The products a*x^i come from the
multiply-by-x map: shift the coefficients up one place and replace the
x^m that falls out by its residue modulo the modulus.

The modulus is the first candidate x^m + g, in ascending index g, whose
quotient ring GF(p)[x]/(x^m + g) is a field.  That ring is a field exactly
when the modulus is irreducible (Lidl & Niederreiter, Finite Fields,
ch. 1), and a finite commutative ring is a field exactly when every
nonzero element has an inverse.  So the inverse search that the tables
need anyway is the irreducibility test: a candidate is dropped at the
first row of its product table that holds no 1.  The modulus chosen is
the lexicographically smallest monic irreducible of degree m (x for m = 1).

Arithmetic is fully table-driven.  Tables take O(q^2) memory, which is the
practical limit well before the hard q <= 2^16 constructor cap; every
instance this package builds geometry for has q <= 16.
"""

from __future__ import annotations

from functools import lru_cache

from .exceptions import (
    BadParametersError,
    DivideByZeroError,
    NotPrimeError,
    TooLargeError,
    check_integer,
)

FIELD_SIZE_CAP = 1 << 16


def _smallest_factor(n: int) -> int:
    """The smallest factor >= 2 of n >= 2, by trial division (n itself when n is prime)."""
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p^m, or raise BadParametersError."""
    q = check_integer("q", q, 2)
    p, m, rest = _smallest_factor(q), 0, q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise BadParametersError(f"{q} is not a prime power")
    return p, m


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _field_products(add, steps, reduce_xm, p: int, m: int):
    """(mul_table, inv_table) of GF(p)[x]/(x^m + g), or None if it is no field.

    steps lists (b, b - p^i, i) for b = 1..q-1, with i the position of b's
    lowest nonzero coefficient; reduce_xm[c] is the index of -c*g, the
    residue of c*x^m.  Rows are built in ascending a, and the first row
    without a 1 (an element with no inverse) rejects the candidate.
    """
    q = len(add)
    top = q // p  # the index of x^(m-1)
    mul: list[tuple[int, ...]] = [(0,) * q]
    inv: list[int | None] = [None]
    for a in range(1, q):
        ax = [a]  # a * x^i for i < m
        while len(ax) < m:
            e = ax[-1]
            ax.append(add[e % top * p][reduce_xm[e // top]])
        row = [0] * q
        for b, rest, i in steps:
            row[b] = add[row[rest]][ax[i]]
        if 1 not in row:
            return None
        mul.append(tuple(row))
        inv.append(row.index(1))
    return tuple(mul), tuple(inv)


class FieldTable:
    """Immutable arithmetic tables for GF(p^m).

    Attributes
    ----------
    p, m, q : characteristic, extension degree, field size q = p^m.
    modulus : coefficients of the monic irreducible modulus, low-to-high.
    add_table, mul_table : q x q tuples of tuples.
    neg_table, inv_table : q-entry tuples (inv_table[0] is None).
    primitive : canonical index of the smallest element of
        multiplicative order q - 1.
    """

    __slots__ = (
        "p",
        "m",
        "q",
        "modulus",
        "add_table",
        "mul_table",
        "neg_table",
        "inv_table",
        "primitive",
    )

    def __init__(self, p: int, m: int = 1):
        p = check_integer("p", p)
        if p < 2 or _smallest_factor(p) != p:
            raise NotPrimeError(f"characteristic {p} is not prime")
        m = check_integer("m", m, 1)
        # p >= 2, so p^m exceeds the cap once m reaches the cap's bit length
        if m >= FIELD_SIZE_CAP.bit_length() or p**m > FIELD_SIZE_CAP:
            raise TooLargeError(f"field size {p}^{m} exceeds cap {FIELD_SIZE_CAP}")
        q = p**m
        self.p = p
        self.m = m
        self.q = q

        place = [p**i for i in range(m)]
        digits = [_digits(e, p, m) for e in range(q)]

        def index(coeffs) -> int:
            return sum(c % p * w for c, w in zip(coeffs, place))

        add = tuple(
            tuple(index(x + y for x, y in zip(da, db)) for db in digits) for da in digits
        )
        self.add_table = add
        self.neg_table = tuple(index(-x for x in d) for d in digits)

        low = [0] * q  # the position of b's lowest nonzero coefficient
        for b in range(p, q):
            low[b] = 0 if b % p else low[b // p] + 1
        steps = [(b, b - place[low[b]], low[b]) for b in range(1, q)]
        for g in range(q):
            reduce_xm = [index(-c * x for x in digits[g]) for c in range(p)]
            tables = _field_products(add, steps, reduce_xm, p, m)
            if tables is not None:
                break
        else:
            raise AssertionError("no irreducible modulus found")  # unreachable
        self.modulus = (*digits[g], 1)
        self.mul_table, self.inv_table = tables

        self.primitive = self._find_primitive()

    def _find_primitive(self) -> int:
        target = self.q - 1
        for a in range(1, self.q):
            x, order = a, 1
            while x != 1:
                x = self.mul_table[x][a]
                order += 1
            if order == target:
                return a
        raise AssertionError("no primitive element")  # unreachable

    # -- element operations -------------------------------------------------

    def _check(self, a: int) -> None:
        if not 0 <= a < self.q:
            raise BadParametersError(f"element index {a} outside [0, {self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self.add_table[a][self.neg_table[b]]

    def neg(self, a: int) -> int:
        self._check(a)
        return self.neg_table[a]

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise DivideByZeroError("zero has no multiplicative inverse")
        return self.inv_table[a]

    def primitive_powers(self) -> list[int]:
        """[alpha^0, alpha^1, ..., alpha^(q-2)] for the designated primitive alpha."""
        out = [1]
        for _ in range(self.q - 2):
            out.append(self.mul_table[out[-1]][self.primitive])
        return out

    def __repr__(self) -> str:
        return f"FieldTable(p={self.p}, m={self.m})"


@lru_cache(maxsize=None)
def field_of_size(q: int) -> FieldTable:
    """Cached FieldTable for the field with q elements."""
    return FieldTable(*factor_prime_power(q))
