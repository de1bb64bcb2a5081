import numpy as np
import pytest

from symldpc import FieldTable, factor_prime_power, field_of_size
from symldpc.exceptions import (
    BadParametersError,
    DivideByZeroError,
    NotPrimeError,
    TooLargeError,
)

PRIME_POWERS_TO_16 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_16)
def test_field_axioms_exhaustive(q):
    ft = field_of_size(q)
    add, mul = ft.add_table, ft.mul_table
    for a in range(q):
        assert add[a][0] == a
        assert mul[a][1] == a
        assert mul[a][0] == 0
        assert add[a][ft.neg_table[a]] == 0
        for b in range(q):
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            for c in range(q):
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
    for a in range(1, q):
        assert mul[a][ft.inv_table[a]] == 1


def test_fixed_moduli():
    assert field_of_size(4).modulus == (1, 1, 1)
    assert field_of_size(8).modulus == (1, 1, 0, 1)
    assert field_of_size(9).modulus == (1, 0, 1)
    assert field_of_size(16).modulus == (1, 1, 0, 0, 1)
    assert field_of_size(25).modulus == (2, 0, 1)
    assert field_of_size(7).modulus == (0, 1)


def test_gf2_is_xor_and():
    ft = field_of_size(2)
    for a in (0, 1):
        for b in (0, 1):
            assert ft.add(a, b) == a ^ b
            assert ft.mul(a, b) == a & b


def test_gf4_element_identities():
    ft = field_of_size(4)
    alpha = 2  # the polynomial x
    assert ft.mul(alpha, alpha) == 3  # x^2 = x + 1 under the fixed modulus
    assert ft.add(alpha, alpha) == 0
    assert ft.inv(alpha) == 3


def test_gf3_element_identities():
    ft = field_of_size(3)
    assert ft.inv(2) == 2
    assert ft.neg(1) == 2
    assert ft.sub(0, 1) == 2


@pytest.mark.parametrize("q", PRIME_POWERS_TO_16)
def test_primitive_has_full_order(q):
    ft = field_of_size(q)
    seen = set()
    x = 1
    for _ in range(q - 1):
        seen.add(x)
        x = ft.mul(x, ft.primitive)
    assert x == 1
    assert seen == set(range(1, q))


@pytest.mark.parametrize("q", PRIME_POWERS_TO_16)
def test_multiplication_by_primitive_is_single_cycle(q):
    ft = field_of_size(q)
    x = 1
    cycle_len = 0
    while True:
        x = ft.mul(ft.primitive, x)
        cycle_len += 1
        if x == 1:
            break
    assert cycle_len == q - 1


def test_primitive_powers_smallest_fields():
    assert field_of_size(2).primitive_powers() == [1]
    assert field_of_size(4).primitive_powers() == [1, 2, 3]


def test_primitive_powers_gf8_against_bitwise_oracle():
    # independent route: 3-bit carry-less multiply reduced by x^3 + x + 1
    def mul8(a, b):
        acc = 0
        for i in range(3):
            if (b >> i) & 1:
                acc ^= a << i
        for i in (4, 3):
            if (acc >> i) & 1:
                acc ^= 0b1011 << (i - 3)
        return acc

    ft = field_of_size(8)
    expected = [1]
    for _ in range(6):
        expected.append(mul8(expected[-1], ft.primitive))
    powers = ft.primitive_powers()
    assert powers == expected
    assert sorted(powers) == list(range(1, 8))
    for a in range(8):
        for b in range(8):
            assert ft.mul(a, b) == mul8(a, b)


def test_zero_and_one_indices():
    for q in (2, 3, 4, 9):
        ft = field_of_size(q)
        assert ft.add(0, 5 % q) == 5 % q
        assert ft.mul(1, 5 % q) == 5 % q


def test_constructor_errors():
    with pytest.raises(NotPrimeError):
        FieldTable(4, 1)
    with pytest.raises(NotPrimeError):
        FieldTable(6, 1)
    with pytest.raises(TooLargeError):
        FieldTable(2, 17)
    with pytest.raises(BadParametersError):
        FieldTable(2, 0)


def test_operation_errors():
    ft = field_of_size(4)
    with pytest.raises(DivideByZeroError):
        ft.inv(0)
    with pytest.raises(BadParametersError):
        ft.add(4, 0)
    with pytest.raises(BadParametersError):
        ft.mul(0, -1)


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(125) == (5, 3)
    with pytest.raises(BadParametersError):
        factor_prime_power(6)
    with pytest.raises(BadParametersError):
        factor_prime_power(1)


@pytest.mark.parametrize(
    "p, m", [(2, 1.5), (2.0, 3), (True, 2), (2, True), ("2", 1), (2, np.float64(2))]
)
def test_constructor_parameters_must_be_integers(p, m):
    with pytest.raises(BadParametersError, match="must be an integer"):
        FieldTable(p, m)


@pytest.mark.parametrize("p, m", [(2, 17), (3, 11), (65537, 1), (2, 20000), (3, 10**5)])
def test_oversized_field_is_too_large(p, m):
    with pytest.raises(TooLargeError, match=f"field size {p}\\^{m} exceeds cap 65536"):
        FieldTable(p, m)


def test_constructor_stores_numpy_integers_as_plain_ints():
    ft = FieldTable(np.int64(2), np.int8(3))
    assert (type(ft.p), type(ft.m), type(ft.q)) == (int, int, int)
    assert ft.mul_table == field_of_size(8).mul_table


# -- the field oracle: the modulus found by dividing each candidate by every
# -- monic polynomial of at most half its degree, products summed from an
# -- x^k-power table, and inverses searched for afterwards


def _digits(value, p, width):
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num / den over GF(p); den must be monic. Low-to-high coeffs."""
    rem = list(num)
    dd = len(den) - 1
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k]
        if c == 0:
            continue
        for i in range(dd + 1):
            rem[k - dd + i] = (rem[k - dd + i] - c * den[i]) % p
    return rem[:dd]


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    m = len(coeffs) - 1
    if coeffs[0] == 0:
        return False
    for deg in range(1, m // 2 + 1):
        for enc in range(p**deg):
            den = _digits(enc, p, deg) + [1]
            if not any(_poly_rem(coeffs, den, p)):
                return False
    return True


def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p).

    Coefficients are returned low-to-high (constant term first, leading 1
    last); candidates are ordered by the base-p integer encoding of the
    non-leading coefficients.  For m = 1 the polynomial x is returned.
    """
    if m == 1:
        return (0, 1)
    for enc in range(p**m):
        coeffs = _digits(enc, p, m) + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def reference_field(p, m):
    """modulus, the four tables and primitive, each built the long way."""
    q = p**m
    modulus = smallest_irreducible(p, m)

    def _index_of(coeffs):
        s = 0
        for c in reversed(coeffs):
            s = s * p + c
        return s

    digits = [_digits(e, p, m) for e in range(q)]

    add = []
    for a in range(q):
        da = digits[a]
        row = []
        for b in range(q):
            db = digits[b]
            s = 0
            for i in range(m - 1, -1, -1):
                s = s * p + (da[i] + db[i]) % p
            row.append(s)
        add.append(tuple(row))
    neg = tuple(_index_of([(-d) % p for d in digits[a]]) for a in range(q))

    # x^k mod modulus for k up to 2(m-1), as coefficient vectors
    xpow = [[0] * m for _ in range(2 * m - 1)]
    cur = [0] * m
    cur[0] = 1
    for k in range(2 * m - 1):
        xpow[k] = list(cur)
        # multiply cur by x
        carry = cur[m - 1]
        cur = [0] + cur[:-1]
        if carry:
            for i in range(m):
                cur[i] = (cur[i] - carry * modulus[i]) % p

    mul = []
    for a in range(q):
        da = digits[a]
        row = []
        for b in range(q):
            db = digits[b]
            acc = [0] * m
            for i in range(m):
                ci = da[i]
                if ci == 0:
                    continue
                for j in range(m):
                    cj = db[j]
                    if cj == 0:
                        continue
                    pw = xpow[i + j]
                    c = ci * cj
                    for t in range(m):
                        if pw[t]:
                            acc[t] = (acc[t] + c * pw[t]) % p
            row.append(_index_of(acc))
        mul.append(tuple(row))

    inv = [None] * q
    for a in range(1, q):
        for b in range(1, q):
            if mul[a][b] == 1:
                inv[a] = b
                break

    primitive = None
    for a in range(1, q):
        x, order = a, 1
        while x != 1:
            x = mul[x][a]
            order += 1
        if order == q - 1:
            primitive = a
            break

    return {
        "modulus": modulus,
        "add_table": tuple(add),
        "neg_table": neg,
        "mul_table": tuple(mul),
        "inv_table": tuple(inv),
        "primitive": primitive,
    }


# every prime power up to 2000 as (p, m), with primality by division by every smaller number
PRIME_POWERS = {
    p**m: (p, m)
    for p in range(2, 2001)
    if all(p % d for d in range(2, p))
    for m in range(1, 11)
    if p**m <= 2000
}
PRIME_POWERS_TO_128 = sorted(q for q in PRIME_POWERS if q <= 128)


@pytest.mark.parametrize("q", PRIME_POWERS_TO_128)
def test_tables_equal_the_reference_construction(q):
    p, m = PRIME_POWERS[q]
    ft = FieldTable(p, m)
    want = reference_field(p, m)
    assert {name: getattr(ft, name) for name in want} == want


def test_factor_prime_power_against_brute_force():
    for q in range(-2, 2001):
        want = PRIME_POWERS.get(q)
        if want is None:
            with pytest.raises(BadParametersError):
                factor_prime_power(q)
        else:
            assert factor_prime_power(q) == want


@pytest.mark.parametrize("q", [8.0, 2.5, True, "4", np.float64(9.0)])
def test_field_size_must_be_an_integer(q):
    with pytest.raises(BadParametersError, match="q must be an integer >= 2"):
        factor_prime_power(q)
    with pytest.raises(BadParametersError, match="q must be an integer >= 2"):
        field_of_size(q)


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 6, 9, 91, 121])
def test_composite_characteristic_is_not_prime(p):
    with pytest.raises(NotPrimeError):
        FieldTable(p, 1)
