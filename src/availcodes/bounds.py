"""Rate, minimum-distance and dimension bounds for availability codes.

All arithmetic is exact rational; floats appear only in serialized output.
Floor and ceiling follow the mathematical convention (toward -inf / +inf),
including for negative arguments.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _Record


# All three limits were measured on a 2-vCPU VM (Python 3.11).  The
# product bound's t factors (jr+1)/(jr) multiply to a fraction of at most
# t * bit_length(rt+1) bits; within 2^17 bits the Fraction loop takes at
# most about 0.35 s (r=10^6, t=4096), and t alone is no guide: r=10^100
# at t=4096 takes 11 s.  A profile holds e_1..e_b (b = M for the (M, delta)
# one); a shortening bound over b = 2^18 entries takes 0.5 s and 47 MB end
# to end (`bounds dmin --method shortening`, n=393216, r=1, t=2).  The
# (M, delta) scan builds profiles whose lengths sum to that of M over the
# admissible M; uncut, it takes 20 to 85 us per unit of that sum on every
# shape tried.  Its cut at the best value takes the dmin3_mdelta figure
# rows r = 11, 17, 20, 21 (1370, 7080, 13266 and 16021 units) from 0.04,
# 0.30, 0.67 and 0.85 s to 4, 25, 51 and 75 ms, and makes 23 of 25 random
# shapes of 8000 to 16384 units at least 30 times faster.  It does not
# lower the worst case, so the limit stays at 2^14 units: a profile with no
# shortening term is never cut, and (n, k, r, t) = (191, 8, 9, 4), whose
# best value is the unshortened bound, still takes 0.97 s for 16095 units.
PRODUCT_BITS_LIMIT = 1 << 17
PROFILE_LIMIT = 1 << 18
M_DELTA_SCAN_LIMIT = 1 << 14


class BoundNotApplicableError(ValueError):
    """The bound's parameter region is empty at the requested point."""


class BoundResult(_Record):
    """A named bound value with exact and float forms; `value` defaults to
    the float of `value_exact`."""

    __slots__ = ("name", "params", "value_exact", "kind", "value", "diagnostics")

    def __init__(
        self,
        name: str,
        params: dict,
        value_exact: Fraction | None,
        kind: str,  # rate | distance | dimension
        value: float = math.nan,
        diagnostics: dict | None = None,
    ):
        if value_exact is not None and math.isnan(value):
            value = float(value_exact)
        self.name = name
        self.params = params
        self.value_exact = value_exact
        self.kind = kind
        self.value = value
        self.diagnostics = {} if diagnostics is None else diagnostics

    def to_json(self) -> dict:
        exact = None
        if self.value_exact is not None:
            exact = f"{self.value_exact.numerator}/{self.value_exact.denominator}"
        doc = {
            "name": self.name,
            "params": dict(self.params),
            "exact": exact,
            "value": self.value,
            "kind": self.kind,
        }
        if self.diagnostics:
            doc["diagnostics"] = dict(self.diagnostics)
        return doc


def _number_text(value: Fraction | float | None) -> str:
    """A number as the `bounds lp` A-vector and the figure CSV cells print
    it: a float to 12 significant digits, an exact number as `p/q` (`p`
    when whole), None as the empty string."""
    if value is None:
        return ""
    return format(value, ".12g") if isinstance(value, float) else str(value)


def _check_locality(r: int, t: int) -> None:
    if r < 1 or t < 1:
        raise ValueError(f"need r >= 1 and t >= 1, got r={r}, t={t}")


def _check_block_length(n: int, r: int) -> None:
    if n < r + 1:
        raise ValueError(f"need n >= r+1, got n={n}, r={r}")


def _check_dimension(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")


# -- rate bounds ------------------------------------------------------


def rate_tamo_barg(r: int, t: int) -> BoundResult:
    """Product bound 1 / prod_{j=1..t} (1 + 1/(jr))."""
    _check_locality(r, t)
    if t * (r * t + 1).bit_length() > PRODUCT_BITS_LIMIT:
        raise ValueError(
            f"the product bound at r={r}, t={t} exceeds {PRODUCT_BITS_LIMIT} bits"
        )
    prod = Fraction(1)
    for j in range(1, t + 1):
        prod *= 1 + Fraction(1, j * r)
    return BoundResult("tamo_barg", {"r": r, "t": t}, 1 / prod, "rate")


def rate_best_known(r: int, t: int) -> BoundResult:
    """Piecewise selector of the tightest closed-form rate bound:
    r/(r+2) at t=2, r^2/(r+1)^2 at t=3, the product bound above t=3."""
    if t < 2:
        raise ValueError(f"selector defined for t >= 2 only, got t={t}")
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    if t == 2:
        value = Fraction(r, r + 2)
    elif t == 3:
        value = Fraction(r * r, (r + 1) ** 2)
    else:
        value = rate_tamo_barg(r, t).value_exact
    return BoundResult("best_known", {"r": r, "t": t}, value, "rate")


def rate_greedy_t3(n: int, r: int) -> BoundResult:
    """Rate bound for strict t=3 codes with a connected Tanner graph,
    via the covering-walk analysis; diagnostics carry m, L1', L2, L1."""
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    if (3 * n) % (r + 1):
        raise ValueError(f"r+1 = {r + 1} must divide 3n = {3 * n}")
    m = 3 * n // (r + 1)
    l1_prime = math.ceil(Fraction((2 * r - 1) * m, 3 * (r + 2)) - Fraction(1, r + 2) - 1)
    l2 = (m - 3 - l1_prime) // 2
    l1 = m - 3 - 2 * l2
    value = 1 - Fraction(3 * (1 + l1 + l2), (r + 1) * (3 + l1 + 2 * l2))
    return BoundResult(
        "greedy_t3",
        {"n": n, "r": r, "t": 3},
        value,
        "rate",
        diagnostics={"m": m, "L1_prime": l1_prime, "L2": l2, "L1": l1},
    )


def rate_transpose_step(r: int, t: int, inner_bound: Fraction) -> Fraction:
    """One step of the transpose recursion: 1 - t/(r+1) + t/(r+1) * inner,
    where inner bounds the rate at the swapped parameters (t-1, r+1)."""
    inner = Fraction(inner_bound)
    if not 0 <= inner <= 1:
        raise ValueError(f"inner bound must lie in [0, 1], got {inner}")
    return 1 - Fraction(t, r + 1) + Fraction(t, r + 1) * inner


def rate_transpose(r: int, t: int) -> BoundResult:
    """Transpose-trick rate bound for strict codes: one recursion step with
    the product bound at the swapped parameters (t-1, r+1)."""
    if r < 1 or t < 2:
        raise ValueError(f"need r >= 1 and t >= 2, got r={r}, t={t}")
    inner = rate_tamo_barg(t - 1, r + 1).value_exact
    value = rate_transpose_step(r, t, inner)
    return BoundResult("transpose", {"r": r, "t": t}, value, "rate")


def rate_wzl_achievable(r: int, t: int) -> BoundResult:
    """Reference achievable rate r/(r+t) used as the baseline in figures."""
    _check_locality(r, t)
    return BoundResult("wzl_achievable", {"r": r, "t": t}, Fraction(r, r + t), "rate")


# -- dual-support profiles --------------------------------------------


def ghw_profile_simple(n: int, r: int, t: int) -> tuple[int, ...]:
    """Upper bounds e_1..e_b on the support sizes of the dual's subspaces,
    by the backward recursion e_{i-1} = min(e_i, e_i - ceil(2 e_i / i) + r + 1)
    from e_b = n, with b = ceil(n (1 - best-known-rate))."""
    _check_block_length(n, r)
    b = math.ceil(n * (1 - rate_best_known(r, t).value_exact))
    if b > PROFILE_LIMIT:
        raise ValueError(f"profile length {b} exceeds limit {PROFILE_LIMIT}")
    e = [0] * (b + 1)
    e[b] = n
    for i in range(b, 1, -1):
        e[i - 1] = min(e[i], e[i] - _ceil_div(2 * e[i], i) + r + 1)
    return tuple(e[1:])


def ghw_profile_m_delta(n: int, r: int, m_dim: int, delta: int) -> tuple[int, ...]:
    """e_1..e_M by the forward recursion for a code whose local parities
    admit a full-rank generator with row weights <= r+1 and column weights
    <= delta; m_dim is that generator's rank.  e values are clamped at n and
    kept nondecreasing (a guaranteed overlap larger than a row is truncated)."""
    if m_dim < 1:
        raise ValueError(f"need M >= 1, got {m_dim}")
    if delta < 0:
        raise ValueError(f"need delta >= 0, got {delta}")
    _check_block_length(n, r)
    if m_dim > PROFILE_LIMIT:
        raise ValueError(f"profile length {m_dim} exceeds limit {PROFILE_LIMIT}")
    e = [r + 1]
    j_i = 0
    for i in range(2, m_dim + 1):
        j_i, e_i, _ = _m_delta_step(n, r, m_dim, delta, i, e[-1], j_i)
        e.append(e_i)
    return tuple(e)


def _m_delta_step(
    n: int, r: int, m_dim: int, delta: int, i: int, prev: int, j_prev: int
) -> tuple[int, int, int | float]:
    """Step i >= 2 of the (M, delta) recursion from e_{i-1} = prev and
    J_{i-1} = j_prev.  Returns (J_i, e_i, until): at the same e_{i-1} and
    J_{i-1}, J_i keeps its value for every delta' < until.  The delta term
    j1 = r+1 - floor(delta (n-prev) / (M-i+1)) never grows with delta, so a
    J_i set by another term is fixed for good, and one set by j1 alone
    changes when that floor next steps up."""
    remaining = m_dim - i + 1
    drop = (delta * (n - prev)) // remaining
    j1 = r + 1 - drop
    floor = 1 if r + 1 - j_prev >= 2 else 0
    if n - prev >= m_dim:
        floor = max(floor, _ceil_div(2 * prev - (i - 1) * (r + 2), remaining))
    j_i = max(j1, floor)
    until = math.inf
    if j1 > floor and prev < n:
        until = _ceil_div((drop + 1) * remaining, n - prev)
    return j_i, min(n, prev + r + 1 - min(j_i, r + 1)), until


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


# -- minimum-distance bounds ------------------------------------------


def dmin_tamo_barg(n: int, k: int, r: int, t: int) -> BoundResult:
    """n - sum_{i=0..t} floor((k-1)/r^i)."""
    _check_dimension(n, k)
    _check_locality(r, t)
    return BoundResult(
        "tamo_barg_dmin",
        {"n": n, "k": k, "r": r, "t": t},
        Fraction(_tamo_barg_value(n, k, r, t)),
        "distance",
    )


def _tamo_barg_value(n: int, k: int, r: int, t: int) -> int:
    """The value of dmin_tamo_barg(n, k, r, t) as an int, for 1 <= k <= n.

    The terms (k-1) // r^i vanish once r^i > k-1, so at most log_r(k) + 1
    of the t+1 terms are summed; at r = 1 all of them equal k-1."""
    if r == 1:
        return max(1, n - (t + 1) * (k - 1))
    total, power = 0, 1
    for _ in range(t + 1):
        if power > k - 1:
            break
        total += (k - 1) // power
        power *= r
    return max(1, n - total)


def dmin_wang(n: int, k: int, r: int, t: int) -> BoundResult:
    """n - k + 2 - ceil((t(k-1)+1) / (t(r-1)+1))."""
    _check_dimension(n, k)
    _check_locality(r, t)
    # a nonzero code has distance >= 1; extreme parameters push the closed form below
    value = max(1, n - k + 2 - _ceil_div(t * (k - 1) + 1, t * (r - 1) + 1))
    return BoundResult(
        "wang_dmin",
        {"n": n, "k": k, "r": r, "t": t},
        Fraction(value),
        "distance",
    )


def _shortening(n: int, k: int, r: int, t: int, e: tuple[int, ...]) -> tuple[int, list[int]]:
    """The least Tamo-Barg bound dmin_tamo_barg(n-e_i, k+i-e_i, r, t) over
    S = {i <= n-k : e_i - i < k}, and S.

    Indices are capped at n - k (shortening cannot remove more information
    than the code carries); an empty S yields the Tamo-Barg bound at the
    unshortened point.
    """
    chosen = [(i, e_i) for i, e_i in enumerate(e, start=1) if e_i - i < k and i <= n - k]
    if not chosen:
        _check_dimension(n, k)
        return _tamo_barg_value(n, k, r, t), []
    value = min(_tamo_barg_value(n - e_i, k + i - e_i, r, t) for i, e_i in chosen)
    return value, [i for i, _ in chosen]


def dmin_shortening(n: int, k: int, r: int, t: int) -> BoundResult:
    """Shortening bound along the simple profile `ghw_profile_simple(n, r, t)`."""
    value, s = _shortening(n, k, r, t, ghw_profile_simple(n, r, t))
    return BoundResult(
        "shortening_dmin[simple]",
        {"n": n, "k": k, "r": r, "t": t},
        Fraction(value),
        "distance",
        diagnostics={"S": s},
    )


def dmin_m_delta(n: int, k: int, r: int, t: int, m_dim: int, delta: int) -> BoundResult:
    """Shortening bound along the profile `ghw_profile_m_delta(n, r, M, delta)`."""
    e = ghw_profile_m_delta(n, r, m_dim, delta)
    _check_locality(r, t)
    value, s = _shortening(n, k, r, t, e)
    return BoundResult(
        "m_delta_dmin",
        {"n": n, "k": k, "r": r, "t": t, "M": m_dim, "delta": delta},
        Fraction(value),
        "distance",
        diagnostics={"S": s},
    )


def dmin_m_delta_max(n: int, k: int, r: int, t: int) -> BoundResult:
    """Parameter-free version: maximum of the (M, delta) bound over
    ceil(n(1-best_known)) <= M <= n-k and 0 <= delta <= n-k.

    Each M scans delta upward and keeps the profile between deltas.  The
    first step whose J_i changes is the first that can differ, so the scan
    jumps to the next delta at which some J_i changes and recomputes the
    profile from that step on; deltas in between repeat the last value.
    Ties keep the first point in (M, delta) order.

    A profile is cut before any step at which its running minimum of the
    shortening terms, low, is at or below the best value so far.  The cut
    is exact: low only falls, so no later step can lift the point above
    best; only a strictly greater value replaces best, so a cut point would
    not have replaced it even on a tie; and the steps kept are valid for
    every delta' below the least `until` among them, so the scan jumps to
    that delta and every delta in between is cut as well.  The scan is refused
    before any step when the sum of M over the admissible M, the total
    length of its profiles, exceeds M_DELTA_SCAN_LIMIT.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    m_lo = math.ceil(n * (1 - rate_best_known(r, t).value_exact))
    m_hi = n - k
    if m_lo > m_hi:
        raise BoundNotApplicableError(
            f"no admissible M: ceil(n(1-R)) = {m_lo} exceeds n-k = {m_hi}"
        )
    _check_block_length(n, r)
    scan = (m_lo + m_hi) * (m_hi - m_lo + 1) // 2  # the profiles' total length
    if scan > M_DELTA_SCAN_LIMIT:
        raise ValueError(
            f"the (M, delta) scan over M = {m_lo}..{m_hi} builds profiles of "
            f"total length {scan}, over limit {M_DELTA_SCAN_LIMIT}"
        )
    # Per step i: e_i, J_i, the least shortening term tamo_barg(n - e_s,
    # k + s - e_s) over the steps s <= i with e_s - s < k (every s <= M <= n-k
    # is an admissible index), and the first delta at which one of
    # J_1..J_i changes.
    first = _tamo_barg_value(n - r - 1, k - r, r, t) if r < k else math.inf
    unshortened = _tamo_barg_value(n, k, r, t)
    best, best_point = 0, None  # every value is at least 1
    for m_dim in range(m_lo, m_hi + 1):
        e, js, low, soon = [0, r + 1], [0, 0], [math.inf, first], [math.inf, math.inf]
        start = 2
        delta = 0
        while True:
            for i in range(start, m_dim + 1):
                if e[-1] == n:
                    break  # later steps stay at n and have n - i >= k: inert
                if low[-1] <= best:
                    break  # cut: the value is at most low[-1], so it cannot beat best
                j_i, e_i, until = _m_delta_step(n, r, m_dim, delta, i, e[-1], js[-1])
                e.append(e_i)
                js.append(j_i)
                soon.append(until if until < soon[-1] else soon[-1])
                term = _tamo_barg_value(n - e_i, k + i - e_i, r, t) if e_i - i < k else math.inf
                low.append(term if term < low[-1] else low[-1])
            value = low[-1] if low[-1] != math.inf else unshortened
            if value > best:
                best = value
                best_point = (m_dim, delta)
            delta = soon[-1]
            if delta > n - k:
                break
            start = next(i for i in range(2, len(soon)) if soon[i] <= delta)
            del e[start:], js[start:], low[start:], soon[start:]
    return BoundResult(
        "m_delta_max_dmin",
        {"n": n, "k": k, "r": r, "t": t},
        Fraction(best),
        "distance",
        diagnostics={"argmax_M": best_point[0], "argmax_delta": best_point[1]},
    )


# -- dimension bounds --------------------------------------------------


def k_opt_griesmer(q: int, n: int, d: int) -> int:
    """Largest k with sum_{i<k} ceil(d/q^i) <= n; 0 when d > n."""
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    if n < 0 or d < 1:
        raise ValueError(f"need n >= 0 and d >= 1, got n={n}, d={d}")
    total = 0
    k = 0
    while (term := _ceil_div(d, q**k)) >= 2:
        total += term
        if total > n:
            return k
        k += 1
    return k + (n - total)  # every later term is 1


def dim_huang(n: int, d: int, r: int, t: int, q: int = 2) -> BoundResult:
    """Field-size-dependent dimension bound with the Griesmer best-code oracle.

    The bound is the largest k* <= n such that, with D = (r-1)t + 1,
    k* <= (r-1)s + x + k_opt_griesmer(q, n - rs - x, d) for every pair
    x >= 1, x <= s <= tx, rs + x <= n with (r-1)s + x < k* and
    (x-1)D + 1 < k* (that is, x <= ceil((k*-1)/D)).  The expression depends
    on the multiplicity vector only through its sum s.  A pair thus rules
    out exactly the k* above max((x-1)D + 1, (r-1)s + x + k_opt), so the
    largest k* left is
        min(n, min over pairs of max((x-1)D + 1, (r-1)s + x + k_opt)),
    which is at least 1.  rs + x <= n with s >= x caps x at n // (r+1), and
    the scan over x stops once (x-1)D + 1 reaches the running minimum.
    """
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    if r < 1 or t < 1 or n < 1:
        raise ValueError(f"need n, r, t >= 1, got n={n}, r={r}, t={t}")
    big_d = (r - 1) * t + 1
    k_star = n
    for x in range(1, n // (r + 1) + 1):
        least = (x - 1) * big_d + 1
        if least >= k_star:
            break
        for s in range(x, min(t * x, (n - x) // r) + 1):
            k_opt = k_opt_griesmer(q, n - r * s - x, d)
            k_star = min(k_star, max(least, (r - 1) * s + x + k_opt))
    return BoundResult(
        "huang_dim", {"n": n, "d": d, "r": r, "t": t, "q": q}, Fraction(k_star), "dimension"
    )
