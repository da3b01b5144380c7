import itertools
import math
from fractions import Fraction

import pytest

from availcodes import (
    BoundNotApplicableError,
    dim_huang,
    dmin_m_delta,
    dmin_m_delta_max,
    dmin_shortening,
    dmin_tamo_barg,
    dmin_wang,
    ghw_profile_m_delta,
    ghw_profile_simple,
    k_opt_griesmer,
    rate_best_known,
    rate_greedy_t3,
    rate_tamo_barg,
    rate_transpose,
    rate_transpose_step,
    rate_wzl_achievable,
)
from availcodes import bounds
from availcodes.bounds import M_DELTA_SCAN_LIMIT, PROFILE_LIMIT
from availcodes.figures import _sweep_params


# -- rate bounds ---------------------------------------------------------


def test_rate_tamo_barg_values():
    assert rate_tamo_barg(5, 1).value_exact == Fraction(5, 6)
    assert rate_tamo_barg(2, 3).value_exact == Fraction(16, 35)
    assert rate_tamo_barg(3, 4).value_exact == Fraction(243, 455)


def test_rate_tamo_barg_product_size_limit():
    # r = 1 telescopes: prod (j+1)/j = t+1
    assert rate_tamo_barg(1, 8000).value_exact == Fraction(1, 8001)
    for r, t in [(1, 10**4), (1, 10**7), (10**100, 4096), (2, 10**11)]:
        with pytest.raises(ValueError, match=f"product bound at r={r}, t={t} exceeds"):
            rate_tamo_barg(r, t)


def test_rate_best_known_branches():
    assert rate_best_known(2, 2).value_exact == Fraction(1, 2)
    assert rate_best_known(3, 3).value_exact == Fraction(9, 16)
    assert rate_best_known(2, 4).value_exact == rate_tamo_barg(2, 4).value_exact
    with pytest.raises(ValueError):
        rate_best_known(2, 1)


def test_rate_greedy_t3_checkpoint():
    result = rate_greedy_t3(20, 3)
    assert result.value_exact == Fraction(11, 20)
    assert result.diagnostics == {"m": 15, "L1_prime": 4, "L2": 4, "L1": 4}


def test_rate_greedy_t3_tighter_than_product_bound():
    assert rate_greedy_t3(20, 3).value_exact < rate_tamo_barg(3, 3).value_exact


def test_rate_greedy_t3_k4_sound():
    assert rate_greedy_t3(4, 1).value_exact >= Fraction(1, 4)


def test_rate_greedy_t3_divisibility_guard():
    with pytest.raises(ValueError):
        rate_greedy_t3(20, 6)  # 7 does not divide 60


def test_rate_transpose_values():
    assert rate_transpose(4, 4).value_exact == Fraction(1093, 1820)
    assert rate_transpose(3, 4).value_exact == rate_tamo_barg(3, 4).value_exact


def test_rate_transpose_t2_specialization():
    for r in range(1, 51):
        assert rate_transpose(r, 2).value_exact == Fraction(r, r + 2)


def test_rate_transpose_tighter_for_t4():
    for r in range(3, 21):
        tr = rate_transpose(r, 4).value_exact
        tb = rate_tamo_barg(r, 4).value_exact
        assert tr <= tb
        if r >= 4:
            assert tr < tb


def test_rate_transpose_step_identities():
    assert rate_transpose_step(2, 3, Fraction(1)) == Fraction(1)
    inner = rate_tamo_barg(2, 4).value_exact  # parameters swapped: (t-1, r+1)
    assert rate_transpose_step(3, 3, inner) == rate_transpose(3, 3).value_exact
    with pytest.raises(ValueError):
        rate_transpose_step(2, 3, Fraction(3, 2))


def test_rate_transpose_step_involution():
    # (r, t) -> (t-1, r+1) is an involution, so two steps with a genuine
    # rate value in between return the starting value
    for r, t in [(2, 3), (3, 4), (5, 2)]:
        x = rate_tamo_barg(r, t).value_exact
        assert rate_transpose_step(r, t, rate_transpose_step(t - 1, r + 1, x)) == x


def test_rate_wzl_reference():
    assert rate_wzl_achievable(3, 3).value_exact == Fraction(1, 2)
    assert rate_wzl_achievable(2, 3).value_exact == Fraction(2, 5)
    for r, t in itertools.product(range(1, 12), range(1, 7)):
        line = rate_wzl_achievable(r, t).value_exact
        bound = rate_tamo_barg(r, t).value_exact
        # the achievable line meets the product bound exactly at r = 1
        # (telescoping to 1/(t+1)) and at t = 1; strictly below elsewhere
        if r >= 2 and t >= 2:
            assert line < bound
        else:
            assert line == bound


# -- dual-support profiles -------------------------------------------------


def test_profile_simple_checkpoint():
    assert ghw_profile_simple(9, 2, 2) == (3, 5, 7, 8, 9)


def test_profile_simple_length_and_anchor():
    profile = ghw_profile_simple(2, 1, 2)
    assert len(profile) == math.ceil(2 * (1 - Fraction(1, 3))) == 2
    assert profile == (2, 2)
    assert ghw_profile_simple(4, 1, 3) == (2, 3, 4)


def test_profile_simple_nondecreasing_sweep():
    for t in range(2, 7):
        for r in range(1, 21):
            for n in range(r + 1, 301, 7):
                e = ghw_profile_simple(n, r, t)
                assert all(a <= b for a, b in zip(e, e[1:])), (n, r, t)
                assert e[-1] == n


def test_profile_simple_length_limit():
    # b = ceil(n (1 - 1/3)) at r=1, t=2
    assert len(ghw_profile_simple(3 * PROFILE_LIMIT // 2, 1, 2)) == PROFILE_LIMIT
    for n in (3 * PROFILE_LIMIT // 2 + 1, 10**12):
        with pytest.raises(ValueError, match=f"exceeds limit {PROFILE_LIMIT}"):
            ghw_profile_simple(n, 1, 2)


def test_profile_m_delta_checks_before_the_recursion():
    with pytest.raises(ValueError, match=f"exceeds limit {PROFILE_LIMIT}"):
        ghw_profile_m_delta(100, 2, 10**11, 1)
    with pytest.raises(ValueError, match=r"need n >= r\+1, got n=5, r=9"):
        ghw_profile_m_delta(5, 9, 2, 1)
    assert len(ghw_profile_m_delta(10**6, 2, PROFILE_LIMIT, 3)) == PROFILE_LIMIT


def test_profile_m_delta_checkpoint():
    assert ghw_profile_m_delta(9, 2, 5, 2) == (3, 5, 7, 9, 9)


def test_profile_m_delta_base_only():
    assert ghw_profile_m_delta(9, 2, 1, 3) == (3,)


def test_profile_m_delta_delta_zero_stalls():
    e = ghw_profile_m_delta(20, 3, 10, 0)
    assert e[0] == 4
    assert all(a <= b for a, b in zip(e, e[1:]))
    assert e[-1] == 4  # no column budget, no growth


def test_profile_m_delta_nondecreasing_grid():
    for n, r in [(20, 3), (35, 4), (9, 2)]:
        for m_dim in range(1, n // 2):
            for delta in range(0, 6):
                e = ghw_profile_m_delta(n, r, m_dim, delta)
                assert all(a <= b for a, b in zip(e, e[1:]))
                assert e[-1] <= n


# -- minimum-distance bounds ------------------------------------------------


def test_dmin_tamo_barg_values():
    assert dmin_tamo_barg(17, 1, 3, 2).value_exact == 17
    assert dmin_tamo_barg(20, 10, 2, 2).value_exact == 5
    assert dmin_tamo_barg(9, 4, 2, 2).value_exact == 5
    assert dmin_tamo_barg(100, 50, 2, 10**11).value_exact == 5  # 49+24+12+6+3+1
    assert dmin_tamo_barg(10**12, 3, 1, 10**11).value_exact == 10**12 - 2 * (10**11 + 1)


def test_dmin_tamo_barg_matches_its_sum():
    for n, k, r, t in itertools.product(range(1, 40, 3), range(1, 40, 2), range(1, 6), range(1, 9)):
        if k <= n:
            terms = sum((k - 1) // r**i for i in range(t + 1))
            assert dmin_tamo_barg(n, k, r, t).value_exact == max(1, n - terms), (n, k, r, t)


def test_dmin_wang_values():
    assert dmin_wang(20, 10, 2, 2).value_exact == 5
    assert dmin_wang(9, 4, 2, 2).value_exact == 4
    assert dmin_wang(12, 1, 3, 2).value_exact == 12  # k=1 collapses to n


def test_dmin_shortening_product_code_point():
    result = dmin_shortening(9, 4, 2, 2)
    assert result.value_exact == 4
    assert result.diagnostics["S"] == [1, 2]


def test_dmin_shortening_empty_selector_falls_back():
    result = dmin_shortening(9, 1, 2, 2)
    assert result.value_exact == dmin_tamo_barg(9, 1, 2, 2).value_exact == 9


def test_dmin_shortening_never_below_one():
    assert dmin_shortening(40, 26, 1, 2).value_exact >= 1


def test_dmin_m_delta_single_entry():
    # M = 1 keeps only the base entry e_1 = r+1
    result = dmin_m_delta(12, 6, 2, 2, 1, 2)
    assert result.value_exact == dmin_tamo_barg(12 - 3, 6 + 1 - 3, 2, 2).value_exact


def test_dmin_m_delta_max_examples():
    value = dmin_m_delta_max(20, 10, 3, 3).value_exact
    tb = dmin_tamo_barg(20, 10, 3, 3).value_exact
    wang = dmin_wang(20, 10, 3, 3).value_exact
    assert value <= min(tb, wang)
    # max dominates each grid point
    assert value >= dmin_m_delta(20, 10, 3, 3, 10, 3).value_exact
    assert value >= dmin_m_delta(20, 10, 3, 3, 9, 0).value_exact


def test_dmin_m_delta_max_degenerate_grid():
    # n(1 - R') = n - k makes the M-grid a single point
    n, r, t = 9, 2, 2
    m_lo = math.ceil(n * (1 - Fraction(r, r + 2)))
    k = n - m_lo
    result = dmin_m_delta_max(n, k, r, t)
    assert result.diagnostics["argmax_M"] == m_lo


def test_dmin_m_delta_max_not_applicable():
    with pytest.raises(BoundNotApplicableError):
        dmin_m_delta_max(9, 8, 2, 2)  # n-k = 1 < ceil(n(1-R'))


def test_dmin_m_delta_max_checks_before_the_scan():
    # the dmin3_mdelta rows r = 21 and 22: M = 180..253 sums to 16021 and
    # M = 196..276 to 19116
    assert dmin_m_delta_max(2024, 1771, 21, 3).diagnostics["argmax_M"] >= 180
    with pytest.raises(ValueError, match=f"length 19116, over limit {M_DELTA_SCAN_LIMIT}"):
        dmin_m_delta_max(2300, 2024, 22, 3)
    with pytest.raises(ValueError, match="over limit"):
        dmin_m_delta_max(100000, 10000, 2, 3)
    with pytest.raises(ValueError, match=r"need n >= r\+1, got n=5, r=9"):
        dmin_m_delta_max(5, 3, 9, 2)


def test_dmin_m_delta_max_cuts_profiles_at_the_best_value(monkeypatch):
    # the dmin3_mdelta rows r = 3..11 take 33,005 steps without the cut
    # and 5,429 with it
    steps = 0
    step = bounds._m_delta_step

    def counted(*args):
        nonlocal steps
        steps += 1
        return step(*args)

    monkeypatch.setattr(bounds, "_m_delta_step", counted)
    for r in range(3, 12):
        p = _sweep_params("dmin3_mdelta", r)
        dmin_m_delta_max(p["n"], p["k"], r, p["t"])
    assert 0 < steps <= 6000


# -- dimension bounds ---------------------------------------------------------


def test_k_opt_griesmer_values():
    assert k_opt_griesmer(2, 7, 3) == 4
    assert k_opt_griesmer(2, 3, 3) == 1
    assert k_opt_griesmer(3, 11, 1) == 11
    assert k_opt_griesmer(2, 2, 3) == 0


@pytest.mark.parametrize("q", [1, 0, -2])
def test_k_opt_griesmer_needs_a_field(q):
    with pytest.raises(ValueError, match=f"need q >= 2, got {q}"):
        k_opt_griesmer(q, 10, 3)


@pytest.mark.parametrize("q", [1, 0, -2])
def test_dim_huang_needs_a_field(q):
    with pytest.raises(ValueError, match=f"need q >= 2, got {q}"):
        dim_huang(10, 3, 2, 2, q=q)


def test_dim_huang_griesmer_point():
    result = dim_huang(15, 3, 2, 2)
    assert 1 <= result.value_exact <= 15
    assert result.value_exact == 8  # frozen from the collapsed-search evaluation


def test_dim_huang_matches_vector_enumeration():
    # oracle: enumerate multiplicity vectors y in [t]^x directly instead of
    # collapsing to their sum
    def direct(n, d, r, t):
        for k_star in range(n, 0, -1):
            x_max = math.ceil((k_star - 1) / ((r - 1) * t + 1))
            ok = True
            for x in range(1, x_max + 1):
                for y in itertools.product(range(1, t + 1), repeat=x):
                    a = sum((r - 1) * v for v in y) + x
                    b = sum(r * v for v in y) + x
                    if a >= k_star or n - b < 0:
                        continue
                    if a + k_opt_griesmer(2, n - b, d) < k_star:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return k_star
        return 0

    for n, d, r, t in [(15, 3, 2, 2), (12, 4, 2, 3), (16, 4, 3, 3), (10, 5, 3, 2)]:
        assert dim_huang(n, d, r, t).value_exact == direct(n, d, r, t), (n, d, r, t)


def test_float_tracks_exact_everywhere():
    results = [
        rate_tamo_barg(7, 4),
        rate_transpose(9, 5),
        rate_greedy_t3(20, 3),
        dmin_wang(30, 12, 3, 3),
    ]
    for res in results:
        assert abs(res.value - float(res.value_exact)) <= 1e-12 * abs(res.value)


def test_dim_huang_monotone_in_distance():
    values = [int(dim_huang(20, d, 2, 2).value_exact) for d in range(1, 10)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(v <= 20 for v in values)
