import random

import pytest

from availcodes import (
    BitMatrix,
    MatrixFormatError,
    parse_matrix,
    rank,
    rank_and_nullspace,
    serialize_matrix,
)
from conftest import (
    dense_nullspace_check,
    dense_rank,
    dense_rows,
    matvec,
    support,
    zero_matrix,
)

K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def k4_incidence() -> BitMatrix:
    return BitMatrix.from_supports(K4_EDGES, 4)


def test_shape_validation():
    with pytest.raises(ValueError):
        BitMatrix(2, 2, (1,))
    with pytest.raises(ValueError):
        BitMatrix(1, 2, (4,))  # bit outside 2 columns
    with pytest.raises(ValueError):
        BitMatrix(1, 0, (0,))


def test_entry_and_weights():
    m = parse_matrix("2 3\n101\n010")
    assert m.bits[0].bit_count() == 2
    assert m.transpose().bits[1].bit_count() == 1
    assert support(m.bits[0]) == (1, 3)
    assert dense_rows(m) == [[1, 0, 1], [0, 1, 0]]


def test_transpose_roundtrip():
    m = parse_matrix("2 3\n101\n011")
    assert m.transpose().transpose() == m
    assert dense_rows(m.transpose()) == [[1, 0], [0, 1], [1, 1]]


def test_rank_identity():
    ident = BitMatrix.from_rows((0b001, 0b010, 0b100), 3)
    rk, basis = rank_and_nullspace(ident)
    assert rk == 3
    assert basis.rows == 0


def test_rank_zero_matrix():
    rk, basis = rank_and_nullspace(zero_matrix(2, 5))
    assert rk == 0
    assert basis.rows == 5
    assert dense_rank(dense_rows(basis)) == 5


def test_k4_incidence_rank_and_nullspace():
    m = k4_incidence()
    rk, basis = rank_and_nullspace(m)
    assert rk == 3 == dense_rank(dense_rows(m))
    assert basis.rows == 1
    assert basis.bits[0] == 0b1111  # the all-ones vector


def test_nullspace_is_in_kernel_random():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        m = BitMatrix.from_rows(
            [rng.getrandbits(cols) for _ in range(rows)], cols
        )
        rk, basis = rank_and_nullspace(m)
        assert rk + basis.rows == cols
        dense = dense_rows(m)
        assert rk == dense_rank(dense)
        for v in basis.bits:
            assert matvec(m, v) == 0
            assert dense_nullspace_check(dense, [(v >> j) & 1 for j in range(cols)])
        assert dense_rank(dense_rows(basis)) == basis.rows if basis.rows else True


def test_rank_equals_transpose_rank_random():
    rng = random.Random(13)
    for _ in range(30):
        rows = rng.randint(1, 64)
        cols = rng.randint(1, 64)
        m = BitMatrix.from_rows([rng.getrandbits(cols) for _ in range(rows)], cols)
        assert rank(m) == rank(m.transpose())


def test_parse_simple():
    m = parse_matrix("2 3\n101\n010")
    assert m.rows == 2 and m.cols == 3
    assert dense_rows(m) == [[1, 0, 1], [0, 1, 0]]


def test_parse_serialize_roundtrip():
    text = serialize_matrix(k4_incidence())
    assert serialize_matrix(parse_matrix(text)) == text


def test_parse_ragged_row():
    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix("2 3\n10\n010")
    assert exc.value.line == 2


def test_parse_bad_character():
    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix("1 3\n1x0")
    assert exc.value.line == 2


def test_parse_header_mismatch():
    with pytest.raises(MatrixFormatError):
        parse_matrix("3 3\n111\n111")
    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix("1 3\n111\n101")
    assert exc.value.line == 3


def test_parse_bad_header():
    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix("banana\n1")
    assert exc.value.line == 1


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_parse_rows_end_only_at_cr_and_lf(brk):
    # str.splitlines would read two rows here
    with pytest.raises(MatrixFormatError, match="only 1 present") as exc:
        parse_matrix(f"2 2\n01{brk}10")
    assert exc.value.line == 2
    with pytest.raises(MatrixFormatError, match="invalid character") as exc:
        parse_matrix(f"2 3\n0{brk}1\n010\n")
    assert exc.value.line == 2
    assert parse_matrix("2 2\r\n01\r10\n") == BitMatrix(2, 2, (2, 1))
