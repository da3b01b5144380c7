import itertools

import pytest

from availcodes import (
    FiniteField,
    build_partition_family,
    check_strict_availability,
    functional_code,
    generate_mols,
    min_distance_bruteforce,
    partition_code,
    product_code,
    prime_power,
    projective_functionals,
)
from conftest import family_partitions, permutation_equivalent, support


def test_generate_mols_order_2():
    # slope 1 (symbol x at j = x - i), then the constant-column square
    assert generate_mols(2) == (
        (((0, 0), (1, 1)), ((0, 1), (1, 0))),
        (((0, 0), (1, 0)), ((0, 1), (1, 1))),
    )


def test_generate_mols_order_3_superposition():
    squares = generate_mols(3)
    assert len(squares) == 3  # two Latin squares, then the constant-column one
    grids = []  # grids[s][(i, j)]: the symbol of cell (i, j) in Latin square s
    for square in squares[:2]:
        grid = {cell: x for x, cells in enumerate(square) for cell in cells}
        assert len(grid) == 9
        grids.append(grid)
    pairs = {(grids[0][a, b], grids[1][a, b]) for a in range(3) for b in range(3)}
    assert len(pairs) == 9


PRIME_POWERS = [q for q in range(2, 65) if prime_power(q)]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_generate_mols_pairwise_orthogonal(q):
    squares = generate_mols(q)
    assert len(squares) == q  # q - 1 Latin squares, then the constant-column one
    labels = []  # labels[s][i*q + j]: the symbol of cell (i, j) in square s
    for s, square in enumerate(squares):
        assert len(square) == q
        label = [None] * (q * q)
        for x, cells in enumerate(square):
            rows, cols = zip(*cells)
            assert rows == tuple(range(q))
            # one cell per column, except in the last square: column x
            assert sorted(cols) == list(range(q)) if s < q - 1 else cols == (x,) * q
            for i, j in cells:
                label[i * q + j] = x
        assert None not in label  # the symbols cover every cell
        labels.append(label)
    # all q^2 symbol pairs occur, so each two classes share exactly one cell
    for first, second in itertools.combinations(labels, 2):
        assert len(set(zip(first, second))) == q * q


def test_generate_mols_rejects_non_prime_power():
    with pytest.raises(ValueError):
        generate_mols(6)


def test_partition_family_r1_g2_is_the_three_matchings():
    family = build_partition_family(1, 2)
    got = {frozenset(map(frozenset, part)) for part in family_partitions(family)}
    expected = {
        frozenset({frozenset({1, 2}), frozenset({3, 4})}),
        frozenset({frozenset({1, 3}), frozenset({2, 4})}),
        frozenset({frozenset({1, 4}), frozenset({2, 3})}),
    }
    assert got == expected
    assert family_partitions(family)[0] == ((1, 2), (3, 4))  # natural partition first


def test_partition_family_base_case():
    family = build_partition_family(1, 1)
    assert family_partitions(family) == (((1, 2),),)


@pytest.mark.parametrize(
    "r,g,expected",
    [(1, 1, 1), (1, 2, 3), (1, 3, 7), (1, 4, 15), (2, 1, 1), (2, 2, 4), (3, 2, 5), (3, 5, 341)],
)
def test_partition_family_counts(r, g, expected):
    f = r + 1
    assert expected == (f**g - 1) // (f - 1)
    assert len(build_partition_family(r, g)) == expected


@pytest.mark.parametrize("r,g", [(1, 3), (2, 2), (3, 2)])
def test_partition_family_intersection_properties(r, g):
    family = build_partition_family(r, g)
    ground = set(range(1, family.n + 1))
    for part in family_partitions(family):
        # (i) same-partition blocks disjoint, (iv) full cover
        union: set[int] = set()
        for block in part:
            assert len(block) == r + 1
            assert union.isdisjoint(block)
            union.update(block)
        assert union == ground
    # (ii) cross-partition intersections at most one point
    for pa, pb in itertools.combinations(family_partitions(family), 2):
        for x, y in itertools.product(pa, pb):
            assert len(set(x) & set(y)) <= 1
    # (iii) the claimed count is hit exactly
    f = r + 1
    assert len(family) == (f**g - 1) // (f - 1)


def test_partition_family_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_partition_family(5, 2)  # r+1 = 6 not a prime power
    with pytest.raises(ValueError):
        build_partition_family(1, 0)
    with pytest.raises(ValueError):
        build_partition_family(15, 4)  # 16^4 over the size cap


def test_partition_code_k4(k4_code):
    assert (k4_code.n, k4_code.m, k4_code.k) == (4, 6, 1)
    assert sorted(support(row) for row in k4_code.H.bits) == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]
    assert check_strict_availability(k4_code.H, 1, 3).passed


def test_partition_code_two_matchings():
    family = build_partition_family(1, 2)
    code = partition_code(family, 2)
    assert (code.n, code.m, code.k) == (4, 4, 1)


def test_partition_code_single_partition():
    family = build_partition_family(2, 2)
    code = partition_code(family, 1)
    assert code.k == code.n - code.n // 3


def test_partition_code_choice_and_guards():
    family = build_partition_family(1, 2)
    code = partition_code(family, 2, choice=[1, 3])
    assert code.parameters["choice"] == [1, 3]
    with pytest.raises(ValueError):
        partition_code(family, 4)
    with pytest.raises(ValueError):
        partition_code(family, 2, choice=[1, 9])
    # a repeated partition repeats its blocks, which then meet in two points
    with pytest.raises(ValueError, match="distinct"):
        partition_code(family, 3, choice=[1, 1, 2])


def test_projective_functionals():
    gf2 = FiniteField(2)
    assert projective_functionals(gf2, 3) == [((1, 0),), ((0, 1),), ((1, 1),)]
    gf3 = FiniteField(3)
    dirs = projective_functionals(gf3, 4)
    assert len(dirs) == 4
    from availcodes import matrix_rank

    for a, b in itertools.combinations(dirs, 2):
        assert matrix_rank(gf3, [a[0], b[0]]) == 2
    with pytest.raises(ValueError):
        projective_functionals(gf2, 4)


def test_functional_code_matches_k4(k4_code):
    gf = FiniteField(2)
    code = functional_code(gf, 2, 1, projective_functionals(gf, 3))
    assert (code.n, code.m, code.k) == (4, 6, 1)
    assert permutation_equivalent(code.H, k4_code.H)


def test_functional_code_q3_t4_strict():
    gf = FiniteField(3)
    code = functional_code(gf, 2, 1, projective_functionals(gf, 4))
    assert (code.n, code.r, code.t) == (9, 2, 4)
    assert check_strict_availability(code.H, 2, 4).passed


def test_functional_code_rank_guards():
    gf = FiniteField(2)
    with pytest.raises(ValueError, match="full rank"):
        functional_code(gf, 2, 1, [((0, 0),), ((0, 1),), ((1, 1),)])
    with pytest.raises(ValueError, match=r"\(1, 2\)"):
        functional_code(gf, 2, 1, [((1, 0),), ((1, 0),)])
    with pytest.raises(ValueError):
        functional_code(gf, 3, 1, [((1, 0, 0),)])  # 2*m1 < n1


@pytest.mark.parametrize(
    "r,t,k",
    [(1, 2, 1), (2, 2, 4), (1, 3, 1), (2, 3, 8), (3, 2, 9)],
)
def test_product_code_dimensions(r, t, k):
    code = product_code(r, t)
    assert code.n == (r + 1) ** t
    assert code.k == k == r**t
    assert check_strict_availability(code.H, r, t).passed


def test_product_code_examples():
    grid = product_code(1, 2)
    assert (grid.n, grid.k) == (4, 1)
    assert min_distance_bruteforce(grid) == 4
    square = product_code(2, 2)
    assert (square.n, square.k) == (9, 4)
    assert min_distance_bruteforce(square) == 4
    single = product_code(3, 1)
    assert single.k == single.n - single.n // 4


def test_product_code_size_guard():
    with pytest.raises(ValueError):
        product_code(3, 7)  # 4^7 > 4096


def test_catalog_codes_are_strict(catalog):
    for code in catalog:
        report = check_strict_availability(code.H, code.r, code.t)
        assert report.passed, (code.construction, code.parameters, code.r, code.t)


def test_catalog_transpose_duality(catalog):
    # transposing a strict (r, t) matrix yields a strict (t-1, r+1) matrix
    for code in catalog:
        rep = check_strict_availability(code.H.transpose(), code.t - 1, code.r + 1)
        assert rep.passed, (code.construction, code.r, code.t)


def test_catalog_distance_at_least_t_plus_one(catalog):
    for code in catalog:
        if 1 <= code.k <= 20:
            d = min_distance_bruteforce(code)
            assert d >= code.t + 1, (code.construction, code.r, code.t, d)
