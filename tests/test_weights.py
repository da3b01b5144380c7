import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from availcodes import codes, weights
from availcodes import (
    AvailabilityCode,
    BitMatrix,
    EnumerationBudgetError,
    krawtchouk_column,
    krawtchouk_row,
    macwilliams_vector,
    weight_distribution,
)
from conftest import dual_weight_counts, span_weights


def krawtchouk(q, n, j, i):
    """K_j(i), read from the column K_0(i)..K_n(i)."""
    return krawtchouk_column(q, n, i)[j]


def test_krawtchouk_degree_zero():
    for q, n, i in [(2, 5, 0), (3, 7, 4), (4, 9, 9)]:
        assert krawtchouk(q, n, 0, i) == 1


def test_krawtchouk_at_zero_is_binomial():
    for n in (4, 9, 13):
        for j in range(n + 1):
            assert krawtchouk(2, n, j, 0) == math.comb(n, j)


def test_krawtchouk_binary_values():
    assert krawtchouk(2, 4, 1, 1) == 2
    for n in (5, 8):
        for i in range(n + 1):
            assert krawtchouk(2, n, 1, i) == n - 2 * i


def test_krawtchouk_rejects_bad_ranges():
    with pytest.raises(ValueError):
        weights.krawtchouk(2, 4, 5, 0)
    with pytest.raises(ValueError):
        krawtchouk_column(2, 4, -1)
    with pytest.raises(ValueError):
        krawtchouk_column(2, 4, 5)
    with pytest.raises(ValueError):
        krawtchouk_column(1, 4, 0)
    assert weights.krawtchouk(3, 7, 2, 4) == krawtchouk(3, 7, 2, 4)


def test_krawtchouk_row_is_the_transposed_columns():
    # the B-space LP reads its rows K_j(0..n) from the recurrence in the point
    for q in (2, 3, 4, 7):
        for n in range(25):
            columns = [krawtchouk_column(q, n, i) for i in range(n + 1)]
            for j in range(n + 1):
                assert krawtchouk_row(q, n, j) == [column[j] for column in columns], (q, n, j)
    with pytest.raises(ValueError):
        krawtchouk_row(2, 4, 5)
    with pytest.raises(ValueError):
        krawtchouk_row(1, 4, 0)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_krawtchouk_orthogonality(q):
    # sum_i C(n,i)(q-1)^i K_j(i) K_l(i) = delta_jl q^n C(n,j) (q-1)^j
    for n in range(1, 25):
        table = [
            [krawtchouk(q, n, j, i) for i in range(n + 1)] for j in range(n + 1)
        ]
        weights = [math.comb(n, i) * (q - 1) ** i for i in range(n + 1)]
        for j in range(n + 1):
            for l in range(j, n + 1):
                s = sum(w * table[j][i] * table[l][i] for i, w in enumerate(weights))
                expect = q**n * math.comb(n, j) * (q - 1) ** j if j == l else 0
                assert s == expect, (q, n, j, l)


def _code(rows, cols):
    return AvailabilityCode(H=BitMatrix.from_rows(rows, cols))


def test_weight_distribution_repetition():
    rep = _code([0b011, 0b110], 3)
    assert weight_distribution(rep) == (1, 0, 0, 1)


def test_weight_distribution_zero_dimensional():
    full = _code([0b01, 0b10], 2)
    assert weight_distribution(full) == (1, 0, 0)


def test_weight_distribution_k4(k4_code):
    assert weight_distribution(k4_code) == (1, 0, 0, 0, 1)


def test_weight_distribution_guard():
    wide = _code([1 << i for i in range(30)], 60)  # k = n - k = 30: both sides over
    with pytest.raises(EnumerationBudgetError):
        weight_distribution(wide)


def test_weight_distribution_guard_fires_before_any_basis(monkeypatch):
    # k needs H's echelon form; the code's basis is read off it only later
    def no_basis(*args):
        raise AssertionError("a basis was read off or walked before the guard")

    monkeypatch.setattr(codes, "_nullspace", no_basis)
    monkeypatch.setattr(weights, "_gray_weight_counts", no_basis)
    n = 4096
    wide = _code([1 << i | 1 << (n - 1 - i) for i in range(n // 2)], n)  # k = n - k = 2048
    with pytest.raises(EnumerationBudgetError, match="2048"):
        weight_distribution(wide)


def test_weight_distribution_from_the_dual_side():
    n = 4096
    start = time.perf_counter()
    A = weight_distribution(_code([(1 << n) - 1], n))  # the even-weight code, k = 4095
    assert time.perf_counter() - start < 1.0
    expected, c = [], 1  # c = C(n, w), by the ratio of consecutive binomials
    for w in range(n + 1):
        expected.append(0 if w % 2 else c)
        c = c * (n - w) // (w + 1)
    assert A == tuple(expected)


def test_macwilliams_full_space():
    assert macwilliams_vector(3, 2, (1, 3, 3, 1)) == (1, 0, 0, 0)


def test_macwilliams_repetition():
    assert macwilliams_vector(3, 2, (1, 0, 0, 1)) == (1, 0, 3, 0)


def test_macwilliams_rejects_invalid():
    with pytest.raises(ValueError):
        # valid size (2 codewords) but impossible weights: B_j goes negative
        macwilliams_vector(3, 2, (1, 0, 2, 1))


def test_macwilliams_roundtrip_random():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 12)
        m = rng.randint(1, n)
        code = _code([rng.getrandbits(n) for _ in range(m)], n)
        A = weight_distribution(code)
        assert macwilliams_vector(n, 2, macwilliams_vector(n, 2, A)) == A


def test_macwilliams_matches_direct_dual_enumeration():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 14)
        m = rng.randint(1, n)
        h = BitMatrix.from_rows([rng.getrandbits(n) for _ in range(m)], n)
        B = macwilliams_vector(n, 2, weight_distribution(AvailabilityCode(H=h)))
        assert list(B) == dual_weight_counts(h)


@st.composite
def independent_vectors(draw):
    """0-14 independent vectors of up to 20 bits: distinct leading bits."""
    n = draw(st.integers(14, 20))
    leads = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=14))
    return n, [(1 << c) | draw(st.integers(0, (1 << c) - 1)) for c in leads]


@settings(max_examples=60, deadline=None)
@given(independent_vectors())
def test_span_lists_every_word_once(drawn):
    n, vecs = drawn
    lists = list(weights._span(vecs))
    words = [w for part in lists for w in part]
    assert words[0] == 0
    assert all(1 <= len(part) <= 1024 for part in lists)
    assert len(set(words)) == len(words) == 1 << len(vecs)
    counts = [0] * (n + 1)
    for w in words:
        counts[w.bit_count()] += 1
    assert counts == span_weights(vecs, n) == weights._gray_weight_counts(vecs, n)
