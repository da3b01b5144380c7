import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from availcodes import (
    AvailabilityCode,
    BitMatrix,
    EnumerationBudgetError,
    FiniteField,
    build_partition_family,
    check_availability,
    check_strict_availability,
    dual_ghw_bruteforce,
    functional_code,
    greedy_cover,
    min_distance_bruteforce,
    partition_code,
    product_code,
    projective_functionals,
    rank,
)
from availcodes import verification, weights
from availcodes.constructions import SIZE_LIMIT
from availcodes.verification import gaussian_binomial
from conftest import dual_weight_counts, flagged, span_weights, stack

K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
K5_EDGES = [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]


def _code(supports, n, r=None, t=None):
    return AvailabilityCode(H=BitMatrix.from_supports(supports, n), r=r, t=t)


# -- strict check -------------------------------------------------------


def test_strict_check_k4(k4_code):
    report = check_strict_availability(k4_code.H, 1, 3)
    assert report.passed and report.balance_ok
    assert not report.row_weight_violations


def test_strict_check_identity_fails_row_weights():
    # identity rows have weight 1 != r+1 = 2, and m(r+1) = 8 != nt = 4
    identity = BitMatrix.from_rows((0b0001, 0b0010, 0b0100, 0b1000), 4)
    report = check_strict_availability(identity, 1, 1)
    assert not report.passed
    assert report.row_weight_violations == (1, 2, 3, 4)
    assert not report.balance_ok


def test_strict_check_transposed_k4(k4_code):
    report = check_strict_availability(k4_code.H.transpose(), 2, 2)
    assert report.passed


def test_strict_check_reports_intersections():
    h = BitMatrix.from_supports([(1, 2, 3), (1, 2, 4)], 4)
    report = check_strict_availability(h, 2, 2)
    assert report.intersection_violations == ((1, 2),)


# -- availability check --------------------------------------------------


def test_availability_implied_by_strict(catalog):
    for code in catalog[:6]:
        assert check_availability(code.H, code.r, code.t).passed


def test_availability_zero_column_fails():
    h = BitMatrix.from_rows([0b011, 0b011 << 0], 4)  # column 3,4 empty
    report = check_availability(h, 1, 1)
    assert not report.passed
    assert 3 in report.failing_columns and 4 in report.failing_columns


def test_availability_duplicate_rows_harmless():
    base = product_code(2, 2)
    h = stack(base.H, BitMatrix.from_rows([base.H.bits[0]], base.n))
    assert check_availability(h, 2, 2).passed


def test_availability_needs_light_rows():
    # heavy rows are ignored; only the weight-2 rows through column 1 count
    h = BitMatrix.from_supports([(1, 2), (1, 3), (1, 2, 3, 4)], 4)
    assert check_availability(h, 1, 2).column_ok[0]
    assert not check_availability(h, 1, 3).column_ok[0]


def _triangles(k):
    """Rows {1, a, b} for the three edges of each of k disjoint triangles
    on columns 2..3k+1: column 1 has 3k fresh columns, enough for
    t = k+1 rows by counting, but its rows hold no k+1 disjoint edges."""
    edges = ((0, 1), (0, 2), (1, 2))
    return [(1, 2 + 3 * c + x, 2 + 3 * c + y) for c in range(k) for x, y in edges]


def test_availability_budget_counts_candidate_steps(monkeypatch):
    # column 1's search tries 93 candidates or checks them against a grown
    # union; the counting cut answers every other column at once
    h = BitMatrix.from_supports(_triangles(3), 10)
    monkeypatch.setattr(verification, "AVAILABILITY_STEP_BUDGET", 94)
    assert check_availability(h, 2, 4).failing_columns == tuple(range(1, 11))
    monkeypatch.setattr(verification, "AVAILABILITY_STEP_BUDGET", 93)
    with pytest.raises(EnumerationBudgetError, match="reaches 93 candidate steps"):
        check_availability(h, 2, 4)


@pytest.mark.parametrize("points", (13, 15, 17, 31))
def test_apex_matrices_are_decided_by_counting(points):
    # an apex column 1 and a row {1, a, b} for each pair of the other
    # columns: t = (points+1)/2 disjoint pairs need points+1 fresh columns
    rows = list(itertools.combinations(range(2, points + 2), 2))
    h = BitMatrix.from_supports([(1, a, b) for a, b in rows], points + 1)
    steps = iter(range(1))
    assert not verification._find_orthogonal_subset(
        [r for r in h.bits if r & 1], 1, (points + 1) // 2, steps
    )
    assert next(steps, None) == 0  # no candidate was tried
    assert check_availability(h, 2, (points + 1) // 2).failing_columns == tuple(
        range(1, points + 2)
    )


def _plain_orthogonal_subset(cands, pivot_bit, t):
    """Every t-subset of the candidates in turn, without the counting cut."""
    return any(
        all(a & b == pivot_bit for a, b in itertools.combinations(subset, 2))
        for subset in itertools.combinations(cands, t)
    )


@settings(max_examples=500, deadline=None)
@given(
    st.integers(2, 14).flatmap(
        lambda n: st.tuples(
            st.lists(st.sets(st.integers(1, n - 1), max_size=3), max_size=12),
            st.integers(0, 5),
        )
    )
)
def test_counting_cut_keeps_the_search_exact(drawn):
    fresh_sets, t = drawn
    cands = [1 | sum(1 << c for c in fresh) for fresh in fresh_sets]  # rows through column 0
    assert verification._find_orthogonal_subset(cands, 1, t) == _plain_orthogonal_subset(
        cands, 1, t
    )


# -- minimum distance -----------------------------------------------------


def test_min_distance_examples(k4_code):
    assert min_distance_bruteforce(_code([(1, 2), (2, 3)], 3)) == 3
    assert min_distance_bruteforce(product_code(2, 2)) == 4
    assert min_distance_bruteforce(k4_code) == 4


def test_min_distance_zero_dimensional():
    assert min_distance_bruteforce(_code([(1,), (2,)], 2)) == math.inf


def test_min_distance_guard():
    # both sides past the walk's limit, and the information-set search's
    # next step past 2^21 words: refused before that step
    for code, shape, level in (
        (product_code(4, 3), "n=125, k=64", 5),
        (partition_code(build_partition_family(7, 2), 4), "n=64, k=41", 6),
    ):
        with pytest.raises(EnumerationBudgetError, match=f"{shape} code: level {level} "):
            min_distance_bruteforce(code)


def test_min_distance_past_the_enumeration_limit():
    # k = n - k = 30: the first information set's level 1 holds unit words
    wide = AvailabilityCode(H=BitMatrix.from_rows([1 << i for i in range(30)], 60))
    assert min_distance_bruteforce(wide) == 1
    # the product of t single-parity-check codes of length r + 1: k = r^t, d = 2^t
    for r, t in ((3, 3), (13, 2)):
        code = product_code(r, t)
        assert (code.k, min_distance_bruteforce(code)) == (r**t, 2**t)
    for g in (3, 4):
        code = partition_code(build_partition_family(3, g), 3)
        assert (code.n, code.k, min_distance_bruteforce(code)) == (4**g, 4**g // 2, 4)


def test_product_codes_have_min_distance_two_to_the_t():
    # the tensor product of t single-parity codes has d_min = 2^t.  Of the
    # 99 product codes with t >= 2 within SIZE_LIMIT the search answers the
    # 29 with r below `first_refused[t]`; the first refusal of each t
    # reports an interval that holds 2^t
    first_refused = {2: 16, 3: 4, 4: 3, 5: 3, 6: 2, 7: 2}
    shapes = [
        (r, t)
        for t in range(2, SIZE_LIMIT.bit_length())
        for r in range(1, SIZE_LIMIT)
        if (r + 1) ** t <= SIZE_LIMIT
    ]
    answered = [(r, t) for r, t in shapes if r < first_refused.get(t, SIZE_LIMIT)]
    assert (len(shapes), len(answered)) == (99, 29)
    for r, t in answered:
        assert min_distance_bruteforce(product_code(r, t)) == 2**t, (r, t)
    intervals = {}
    for t, r in first_refused.items():
        with pytest.raises(EnumerationBudgetError) as refused:
            min_distance_bruteforce(product_code(r, t))
        found = re.search(r"\(d_min is (\d+)\.\.(\d+)\)$", str(refused.value))
        intervals[r, t] = tuple(map(int, found.groups()))
        assert intervals[r, t][0] <= 2**t <= intervals[r, t][1], (r, t)
    assert intervals[4, 3] == (5, 8)  # n = 125, k = 64, d_min = 8


def test_min_distance_without_the_walk(monkeypatch):
    # the fiber code over GF(7), k = 18, from information sets alone
    def no_walk(vecs, n):
        raise AssertionError("Gray walk")

    monkeypatch.setattr(weights, "_gray_weight_counts", no_walk)
    gf = FiniteField(7)
    code = functional_code(gf, 2, 1, projective_functionals(gf, 5))
    assert (code.n, code.k, min_distance_bruteforce(code)) == (49, 18, 12)


def test_min_distance_from_the_dual_side():
    # k = 45 > 21, n - k = 19: reached through the dual's 2^19 words
    partition = partition_code(build_partition_family(7, 2), 3)
    gf = FiniteField(8)
    fiber = functional_code(gf, 2, 1, projective_functionals(gf, 3))
    for code in (partition, fiber):
        assert (code.n, code.k) == (64, 45)
        assert min_distance_bruteforce(code) == 4


# -- dual generalized Hamming weights -------------------------------------


def test_gaussian_binomial():
    assert gaussian_binomial(3, 1) == 7
    assert gaussian_binomial(3, 2) == 7
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(5, 0) == 1


def test_dual_ghw_k4(k4_code):
    # dual of the K4 code is the [4,3] even-weight code
    assert dual_ghw_bruteforce(k4_code, 1) == 2
    assert dual_ghw_bruteforce(k4_code, 2) == 3
    assert dual_ghw_bruteforce(k4_code, 3) == 4


def test_dual_ghw_level_one_is_dual_min_distance(catalog):
    for code in catalog[:5]:
        h = code.H
        counts = span_weights(list(h.bits), h.cols)
        direct = next(w for w in range(1, h.cols + 1) if counts[w])
        assert dual_ghw_bruteforce(code, 1) == direct


def test_dual_ghw_level_one_past_sixteen_dual_dimensions():
    # the dual of the fiber code over GF(8) has dimension 19 and 2^19 words
    gf = FiniteField(8)
    code = functional_code(gf, 2, 1, projective_functionals(gf, 3))
    counts = dual_weight_counts(code.H)
    assert (code.n - code.k, dual_ghw_bruteforce(code, 1)) == (19, 8)
    assert next(w for w in range(1, code.n + 1) if counts[w]) == 8


def test_dual_ghw_grid_code():
    assert dual_ghw_bruteforce(product_code(1, 2), 1) == 2


def test_dual_ghw_strictly_increasing():
    code = product_code(2, 2)
    values = [dual_ghw_bruteforce(code, i) for i in (1, 2, 3)]
    assert values[0] < values[1] < values[2]


def test_dual_ghw_budget():
    code = product_code(3, 3)  # rank 37 dual: far over budget
    with pytest.raises(EnumerationBudgetError):
        dual_ghw_bruteforce(code, 2)
    with pytest.raises(EnumerationBudgetError):
        dual_ghw_bruteforce(product_code(1, 2), 9)
    # level 1 is the dual's minimum distance: held to the search's word budget
    code = partition_code(build_partition_family(3, 5), 3)
    with pytest.raises(EnumerationBudgetError, match=r"^d_1 of the dual of the n=1024, k=512 code: .*\(d_1 is 3\.\.4\)$"):
        dual_ghw_bruteforce(code, 1)


# -- greedy cover ----------------------------------------------------------


def test_greedy_k4_trace(k4_code):
    trace = greedy_cover(k4_code, start=1)
    assert trace.sigma == (1, 2, 3)
    assert trace.g == (3, 2, 1)
    assert trace.final_bound == 1 == k4_code.k
    assert not trace.flags


def test_greedy_first_gain_is_t(catalog):
    for code in catalog:
        trace = greedy_cover(code, start=1)
        assert trace.g[0] == code.t
        assert sum(trace.g) == code.m


def test_greedy_bound_sound(catalog):
    for code in catalog:
        if code.k <= 20:
            trace = greedy_cover(code, start=1)
            assert trace.final_bound >= code.k, (code.construction, code.r, code.t)


def test_greedy_cube_code():
    cube = product_code(1, 3)
    trace = greedy_cover(cube, start=1)
    assert trace.final_bound >= cube.k


def test_greedy_stall_on_k5():
    code = _code(K5_EDGES, 5, r=1, t=4)
    assert check_strict_availability(code.H, 1, 4).passed
    trace = greedy_cover(code, start=1)
    assert flagged(trace, "stall") and not flagged(trace, "disconnected")
    assert sum(trace.g) == 10
    assert trace.final_bound == 1 == code.k


def test_greedy_disconnected_restart():
    edges = K4_EDGES + [(a + 4, b + 4) for a, b in K4_EDGES]
    code = _code(edges, 8, r=1, t=3)
    trace = greedy_cover(code, start=1)
    assert flagged(trace, "disconnected")
    assert sum(trace.g) == 12
    assert trace.final_bound == 2 == code.k  # two disjoint K4 components


def test_greedy_random_tiebreak_reproducible(k4_code):
    t1 = greedy_cover(k4_code, start=1, tiebreak="random", seed=3)
    t2 = greedy_cover(k4_code, start=1, tiebreak="random", seed=3)
    assert t1 == t2
    assert t1.final_bound >= k4_code.k


def test_greedy_input_validation(k4_code):
    with pytest.raises(ValueError):
        greedy_cover(k4_code, start=0)
    with pytest.raises(ValueError):
        greedy_cover(k4_code, tiebreak="coin")
    zero_row = AvailabilityCode(H=BitMatrix.from_rows([0b11, 0], 2))
    with pytest.raises(ValueError, match="all-zero row"):
        greedy_cover(zero_row)
