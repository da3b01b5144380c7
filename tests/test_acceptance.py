"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with `pytest -s`) and
enforces the stated numeric tolerance and time budget.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from availcodes import (
    AvailabilityCode,
    BitMatrix,
    FiniteField,
    build_lp,
    build_partition_family,
    check_strict_availability,
    dmin_m_delta,
    dmin_m_delta_max,
    dmin_shortening,
    dmin_tamo_barg,
    dmin_wang,
    dual_ghw_bruteforce,
    functional_code,
    ghw_profile_m_delta,
    ghw_profile_simple,
    greedy_cover,
    lp_dimension_bound,
    macwilliams_vector,
    min_distance_bruteforce,
    partition_code,
    point_violations,
    product_code,
    projective_functionals,
    rate_best_known,
    rate_greedy_t3,
    rate_tamo_barg,
    rate_transpose,
    weight_distribution,
)
from conftest import (
    applicable_distance_bounds,
    applicable_rate_bounds,
    dual_weight_counts,
    family_partitions,
    permutation_equivalent,
)


@contextmanager
def criterion(num: int, budget_s: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {num:2d}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {num:2d}] PASS  ({elapsed:6.2f}s <= {budget_s:g}s)  {description}")
    assert elapsed <= budget_s, f"criterion {num} exceeded {budget_s}s ({elapsed:.2f}s)"


def test_criterion_01_transpose_t2_specialization():
    with criterion(1, 1.0, "transpose bound at t=2 equals r/(r+2) exactly, r=1..50"):
        for r in range(1, 51):
            assert rate_transpose(r, 2).value_exact == Fraction(r, r + 2)


def test_criterion_02_greedy_t3_tightness():
    with criterion(2, 1.0, "greedy t=3 bound at n=C(r+3,3) under both rate bounds, r=4..20"):
        assert rate_greedy_t3(20, 3).value_exact == Fraction(11, 20)
        for r in range(4, 21):
            n = (r + 1) * (r + 2) * (r + 3) // 6
            g = rate_greedy_t3(n, r).value_exact
            assert g <= rate_tamo_barg(r, 3).value_exact
            assert g <= rate_best_known(r, 3).value_exact


def test_criterion_03_transpose_t4_tightness():
    with criterion(3, 1.0, "transpose bound under product bound at t=4, r=3..20"):
        assert rate_transpose(4, 4).value_exact == Fraction(1093, 1820)
        for r in range(3, 21):
            tr = rate_transpose(r, 4).value_exact
            tb = rate_tamo_barg(r, 4).value_exact
            assert tr == tb if r == 3 else tr < tb


def test_criterion_04_shortening_dmin_tightness():
    with criterion(4, 5.0, "shortening distance bound under both references, r=3..15"):
        assert ghw_profile_simple(9, 2, 2) == (3, 5, 7, 8, 9)
        for r in range(3, 16):
            n = (r + 1) * (r + 2) * (r + 3) // 6
            k = r * (r + 1) * (r + 2) // 6
            sh = dmin_shortening(n, k, r, 3).value_exact
            assert sh <= dmin_tamo_barg(n, k, r, 3).value_exact
            assert sh <= dmin_wang(n, k, r, 3).value_exact


def test_criterion_05_m_delta_bounds():
    with criterion(5, 60.0, "(M, delta) profile checkpoint and tightness grid, r=3..10"):
        assert ghw_profile_m_delta(9, 2, 5, 2) == (3, 5, 7, 9, 9)
        for r in range(3, 11):
            n = (r + 1) * (r + 2) * (r + 3) // 6
            k = r * (r + 1) * (r + 2) // 6
            reference = min(
                dmin_tamo_barg(n, k, r, 3).value_exact,
                dmin_wang(n, k, r, 3).value_exact,
            )
            assert dmin_m_delta(n, k, r, 3, n - k, 3).value_exact <= reference
            assert dmin_m_delta_max(n, k, r, 3).value_exact <= reference


def test_criterion_06_partition_construction():
    with criterion(6, 5.0, "partition construction counts, intersections, K4 instance"):
        for g in range(1, 5):
            assert len(build_partition_family(1, g)) == 2**g - 1
        for g in range(1, 3):
            assert len(build_partition_family(2, g)) == (3**g - 1) // 2
        for r, g in [(1, 3), (2, 2)]:
            family = build_partition_family(r, g)
            ground = set(range(1, family.n + 1))
            for part in family_partitions(family):
                blocks = [set(b) for b in part]
                assert all(len(b) == r + 1 for b in blocks)
                assert set().union(*blocks) == ground
                for x, y in itertools.combinations(blocks, 2):
                    assert not x & y
            for pa, pb in itertools.combinations(family_partitions(family), 2):
                for x, y in itertools.product(pa, pb):
                    assert len(set(x) & set(y)) <= 1
            for t in range(1, min(len(family), 4) + 1):
                code = partition_code(family, t)
                assert check_strict_availability(code.H, r, t).passed
        k4 = partition_code(build_partition_family(1, 2), 3)
        assert k4.k == 1
        assert min_distance_bruteforce(k4) == 4


def test_criterion_07_functional_construction(k4_code):
    with criterion(7, 5.0, "fiber construction: K4 equivalence, q=3 strictness, transposes"):
        gf2, gf3 = FiniteField(2), FiniteField(3)
        f22 = functional_code(gf2, 2, 1, projective_functionals(gf2, 3))
        assert permutation_equivalent(f22.H, k4_code.H)
        f33 = functional_code(gf3, 2, 1, projective_functionals(gf3, 4))
        assert (f33.n, f33.r + 1, f33.t) == (9, 3, 4)
        assert check_strict_availability(f33.H, 2, 4).passed
        for code in (f22, f33, functional_code(gf3, 2, 1, projective_functionals(gf3, 3))):
            swapped = check_strict_availability(code.H.transpose(), code.t - 1, code.r + 1)
            assert swapped.passed


def test_criterion_08_greedy_algorithm(catalog, k4_code):
    with criterion(8, 5.0, "greedy trace on K4 and dimension-bound soundness, k<=20"):
        trace = greedy_cover(k4_code, start=1)
        assert trace.g == (3, 2, 1)
        assert len(trace.sigma) == 3
        assert trace.final_bound == 1 == k4_code.k
        for code in catalog:
            if code.k <= 20:
                assert greedy_cover(code, start=1).final_bound >= code.k


def test_criterion_09_macwilliams_oracle():
    with criterion(9, 30.0, "transform equals direct dual enumeration on 100 random codes"):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(1, 14)
            m = rng.randint(1, n)
            h = BitMatrix.from_rows([rng.getrandbits(n) for _ in range(m)], n)
            B = macwilliams_vector(n, 2, weight_distribution(AvailabilityCode(H=h)))
            assert list(B) == dual_weight_counts(h)


def test_criterion_10_lp_bound():
    with criterion(10, 180.0, "LP bound: real-code feasibility, improvement, float agreement"):
        instances = {
            3: [
                partition_code(build_partition_family(3, 2), 3),
                functional_code(FiniteField(4), 2, 1, projective_functionals(FiniteField(4), 3)),
            ],
            4: [
                partition_code(build_partition_family(4, 2), 3),
                functional_code(FiniteField(5), 2, 1, projective_functionals(FiniteField(5), 3)),
            ],
            5: [],  # no strict (36, k, 5, 3) instance: 6 is not a prime power
        }
        for r in (3, 4, 5):
            n = (r + 1) ** 2
            model = build_lp(2, n, r, 3)
            for code in instances[r]:
                assert check_strict_availability(code.H, r, 3).passed
                dist = weight_distribution(code)
                point = {i: dist[i] for i in model.weight_indices}
                assert point_violations(model, point) == []
            exact = lp_dimension_bound(2, n, r, 3, mode="exact")
            assert exact.value <= n * float(rate_tamo_barg(r, 3).value_exact) + 1e-9
            approx = lp_dimension_bound(2, n, r, 3, mode="float")
            assert approx.value == exact.value


def test_criterion_11_soundness_sweep(catalog):
    with criterion(11, 120.0, "no bound undercuts any constructed code (k<=20 catalog)"):
        for code in catalog:
            measured = Fraction(code.k, code.n)
            for bound in applicable_rate_bounds(code):
                assert bound.value_exact >= measured, (code.construction, bound.name)
            if not 1 <= code.k <= 20:
                continue
            d = min_distance_bruteforce(code)
            assert d >= code.t + 1
            for bound in applicable_distance_bounds(code.n, code.k, code.r, code.t):
                assert int(bound.value_exact) >= d, (code.construction, bound.name)
            if code.r >= 2 and code.t >= 2 and code.n - code.k <= 7:
                for i in range(1, min(3, code.n - code.k) + 1):
                    assert dual_ghw_bruteforce(code, i) <= i * code.r + 1
