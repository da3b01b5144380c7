import math
import random
import time

import pytest

from availcodes import bitmatrix, weights
from availcodes import (
    AvailabilityCode,
    BitMatrix,
    EnumerationBudgetError,
    WeightDistribution,
    krawtchouk,
    macwilliams_transform,
    macwilliams_vector,
    weight_distribution,
)
from conftest import dual_weight_counts


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
        krawtchouk(2, 4, 5, 0)
    with pytest.raises(ValueError):
        krawtchouk(2, 4, 0, -1)
    with pytest.raises(ValueError):
        krawtchouk(1, 4, 0, 0)


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
    assert weight_distribution(rep).A == (1, 0, 0, 1)


def test_weight_distribution_zero_dimensional():
    full = _code([0b01, 0b10], 2)
    assert weight_distribution(full).A == (1, 0, 0)


def test_weight_distribution_k4(k4_code):
    assert weight_distribution(k4_code).A == (1, 0, 0, 0, 1)


def test_weight_distribution_guard():
    wide = _code([1 << i for i in range(30)], 60)  # k = n - k = 30: both sides over
    with pytest.raises(EnumerationBudgetError):
        weight_distribution(wide)


def test_weight_distribution_guard_fires_before_any_basis(monkeypatch):
    def no_basis(*args):
        raise AssertionError("a basis was built before the guard")

    monkeypatch.setattr(bitmatrix, "rank_and_nullspace", no_basis)
    monkeypatch.setattr(weights, "_gray_weight_counts", no_basis)
    n = 4096
    wide = _code([1 << i | 1 << (n - 1 - i) for i in range(n // 2)], n)  # k = n - k = 2048
    with pytest.raises(EnumerationBudgetError, match="2048"):
        weight_distribution(wide)


def test_weight_distribution_from_the_dual_side():
    n = 4096
    start = time.perf_counter()
    A = weight_distribution(_code([(1 << n) - 1], n)).A  # the even-weight code, k = 4095
    assert time.perf_counter() - start < 1.0
    expected, c = [], 1  # c = C(n, w), by the ratio of consecutive binomials
    for w in range(n + 1):
        expected.append(0 if w % 2 else c)
        c = c * (n - w) // (w + 1)
    assert A == tuple(expected)


def test_distribution_validation():
    with pytest.raises(ValueError):
        WeightDistribution(3, 2, (0, 0, 0, 1))  # A_0 != 1
    with pytest.raises(ValueError):
        WeightDistribution(3, 2, (1, 0, 1, 1))  # sum not a power of 2
    with pytest.raises(ValueError):
        WeightDistribution(3, 2, (1, 0, 0, 1), (1, 0, 3, 1))  # wrong dual size


def test_macwilliams_full_space():
    full = WeightDistribution(3, 2, (1, 3, 3, 1))
    assert macwilliams_transform(full).B == (1, 0, 0, 0)


def test_macwilliams_repetition():
    dist = macwilliams_transform(WeightDistribution(3, 2, (1, 0, 0, 1)))
    assert dist.B == (1, 0, 3, 0)


def test_macwilliams_rejects_invalid():
    with pytest.raises(ValueError):
        # valid size (2 codewords) but impossible weights: B_j goes negative
        macwilliams_transform(WeightDistribution(3, 2, (1, 0, 2, 1, 0) [:4]))


def test_macwilliams_roundtrip_random():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 12)
        m = rng.randint(1, n)
        code = _code([rng.getrandbits(n) for _ in range(m)], n)
        dist = weight_distribution(code)
        full = macwilliams_transform(dist)
        back = macwilliams_vector(n, 2, full.B)
        assert back == dist.A


def test_macwilliams_matches_direct_dual_enumeration():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 14)
        m = rng.randint(1, n)
        h = BitMatrix.from_rows([rng.getrandbits(n) for _ in range(m)], n)
        dist = macwilliams_transform(weight_distribution(AvailabilityCode(H=h)))
        assert list(dist.B) == dual_weight_counts(h)
