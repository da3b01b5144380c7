import itertools

import pytest

import field_oracles
from availcodes import FiniteField, matrix_rank, prime_power
from availcodes.fields import MAX_ORDER

AXIOM_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_prime_power_decomposition():
    assert prime_power(2) == (2, 1)
    assert prime_power(9) == (3, 2)
    assert prime_power(64) == (2, 6)
    assert prime_power(6) is None
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_rejects_bad_orders():
    with pytest.raises(ValueError):
        FiniteField(6)
    with pytest.raises(ValueError):
        FiniteField(65)
    with pytest.raises(ValueError):
        FiniteField(128)


@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_field_axioms(q):
    gf = FiniteField(q)
    elems = range(q)
    for a in elems:
        assert gf.add(a, 0) == a
        assert gf.mul(a, 1) == a
        assert gf.mul(a, 0) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1
    for a, b in itertools.product(elems, repeat=2):
        assert gf.add(a, b) == gf.add(b, a)
        assert gf.mul(a, b) == gf.mul(b, a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))


@pytest.mark.parametrize("q", [q for q in range(2, MAX_ORDER + 1) if prime_power(q)])
def test_tables_match_polynomial_arithmetic(q):
    # the tables come from modular arithmetic / the powers of x; the raw
    # polynomial rules of the oracle are the definition
    gf = FiniteField(q)
    elems = range(q)
    assert gf.add_table == tuple(tuple(field_oracles.add(q, a, b) for b in elems) for a in elems)
    assert gf.mul_table == tuple(tuple(field_oracles.mul(q, a, b) for b in elems) for a in elems)
    assert all(field_oracles.mul(q, a, gf.inv(a)) == 1 for a in range(1, q))


@pytest.mark.parametrize("q", [25, 27, 32, 49, 64])
def test_larger_orders_have_inverses(q):
    gf = FiniteField(q)
    for a in range(1, q):
        assert gf.mul(a, gf.inv(a)) == 1


def test_sub_neg():
    gf = FiniteField(9)
    for a in range(9):
        for b in range(9):
            assert gf.add(gf.sub(a, b), b) == a
        assert gf.add(a, gf.neg(a)) == 0


def test_matvec():
    gf = FiniteField(3)
    assert gf.matvec([[1, 2], [0, 1]], (2, 2)) == ((2 + 4) % 3, 2)


def test_matrix_rank():
    gf = FiniteField(5)
    assert matrix_rank(gf, [[1, 2], [2, 4]]) == 1
    assert matrix_rank(gf, [[1, 2], [2, 3]]) == 2
    assert matrix_rank(gf, [[0, 0], [0, 0]]) == 0
    gf4 = FiniteField(4)
    # in GF(4) the second row is 2 times the first (2*2 = 3, 2*3 = 1)
    assert matrix_rank(gf4, [[1, 2, 3], [2, 3, 1]]) == 1
    assert matrix_rank(gf4, [[1, 2], [0, 3]]) == 2
