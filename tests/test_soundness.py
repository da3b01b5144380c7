"""Cross-module soundness: no bound may undercut a real constructed code."""

from fractions import Fraction

from availcodes import (
    FiniteField,
    build_partition_family,
    dim_huang,
    dual_ghw_bruteforce,
    functional_code,
    ghw_profile_m_delta,
    ghw_profile_simple,
    greedy_cover,
    min_distance_bruteforce,
    partition_code,
    product_code,
    projective_functionals,
)
from conftest import applicable_distance_bounds, applicable_rate_bounds, flagged


def test_rate_bounds_dominate_measured_rates(catalog):
    # partition (1, g, 3) for g >= 4 has n/4 components and rate 1/4, over
    # the connected-graph greedy bound's 3/16 at g = 4
    disconnected = [partition_code(build_partition_family(1, g), 3) for g in (4, 5)]
    for code in disconnected:
        assert flagged(greedy_cover(code), "disconnected")
    for code in [*catalog, *disconnected]:
        measured = Fraction(code.k, code.n)
        for bound in applicable_rate_bounds(code):
            assert bound.value_exact >= measured, (
                code.construction, code.r, code.t, bound.name,
            )


def test_distance_bounds_dominate_bruteforce(catalog):
    for code in catalog:
        if not 1 <= code.k <= 20:
            continue
        d = min_distance_bruteforce(code)
        for bound in applicable_distance_bounds(code.n, code.k, code.r, code.t):
            assert int(bound.value_exact) >= d, (
                code.construction, code.r, code.t, bound.name, d,
            )


def test_distance_bounds_dominate_codes_past_the_enumeration_limit():
    # min(k, n - k) from 23 to 128: d_min from the information-set search
    codes = [product_code(r, t) for r, t in ((3, 3), (11, 2), (13, 2))]
    for r, g, t in ((3, 3, 2), (3, 3, 3), (3, 3, 4), (3, 4, 3), (6, 2, 4), (8, 2, 7)):
        codes.append(partition_code(build_partition_family(r, g), t))
    for q, t in ((7, 4), (9, 7), (13, 12)):
        gf = FiniteField(q)
        codes.append(functional_code(gf, 2, 1, projective_functionals(gf, t)))
    for code in codes:
        assert min(code.k, code.n - code.k) > 21
        d = min_distance_bruteforce(code)
        for bound in applicable_distance_bounds(code.n, code.k, code.r, code.t):
            assert int(bound.value_exact) >= d, (
                code.construction, code.n, code.k, code.r, code.t, bound.name, d,
            )


def test_huang_dimension_bound_dominates_built_codes(catalog):
    # every catalog code is binary, Huang's default field
    tight = 0
    for code in catalog:
        if not 1 <= code.k <= 20:
            continue
        bound = dim_huang(code.n, min_distance_bruteforce(code), code.r, code.t).value_exact
        assert bound >= code.k, (code.construction, code.n, code.r, code.t, bound)
        tight += bound == code.k
    assert tight > 0  # e.g. the (r, g, t) = (2, 2, 2) partition code, n = 9, k = 4


def test_dual_ghw_below_profiles(catalog):
    for code in catalog:
        if code.t < 2 or code.n - code.k > 7:
            continue
        simple = ghw_profile_simple(code.n, code.r, code.t)
        capped = ghw_profile_m_delta(code.n, code.r, code.n - code.k, code.t)
        for i in range(1, min(3, code.n - code.k) + 1):
            ghw = dual_ghw_bruteforce(code, i)
            if i <= len(simple):
                assert ghw <= simple[i - 1], (code.construction, i)
            if i <= len(capped):
                assert ghw <= capped[i - 1], (code.construction, i)


def test_dual_ghw_linear_cap(catalog):
    # d_i of the dual stays within i*r + 1 for r >= 2, t >= 2
    for code in catalog:
        if code.r < 2 or code.t < 2 or code.n - code.k > 7:
            continue
        for i in range(1, min(3, code.n - code.k) + 1):
            assert dual_ghw_bruteforce(code, i) <= i * code.r + 1, (
                code.construction, code.r, code.t, i,
            )
