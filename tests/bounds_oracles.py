"""Reference oracles for the (M, delta) bounds: the profile recursion written
out step by step, the shortening bound written from its formula, and the
exhaustive grid maximum that builds one profile and one shortening bound per
grid point.

These are the direct versions the package used before `dmin_m_delta_max`
began to reuse each profile's prefix across delta.
`test_bounds_differential.py` requires the package to agree with them
exactly: the same profiles, the same value, S and argmax, the same errors.
"""

from __future__ import annotations

import math
from fractions import Fraction

from availcodes.bounds import (
    BoundNotApplicableError,
    BoundResult,
    _ceil_div,
    rate_best_known,
)


def ghw_profile_m_delta(n: int, r: int, m_dim: int, delta: int) -> tuple[int, ...]:
    if m_dim < 1:
        raise ValueError(f"need M >= 1, got {m_dim}")
    if delta < 0:
        raise ValueError(f"need delta >= 0, got {delta}")
    if n < r + 1:
        raise ValueError(f"need n >= r+1, got n={n}, r={r}")
    e = [r + 1]
    j_seq = [0]
    for i in range(2, m_dim + 1):
        prev = e[-1]
        remaining = m_dim - i + 1
        f_cap = n - prev
        j1 = r + 1 - (delta * (n - prev)) // remaining
        j2 = _ceil_div(2 * prev - (i - 1) - (i - 1) * (r + 1), remaining)
        wide = r + 1 - j_seq[-1] >= 2
        if f_cap >= m_dim:
            j_i = max(j1, j2, 1 if wide else 0)
        else:
            j_i = max(j1, 1 if wide else 0)
        j_seq.append(j_i)
        e.append(min(n, prev + r + 1 - min(j_i, r + 1)))
    return tuple(e)


def tamo_barg(n: int, k: int, r: int, t: int) -> int:
    """max(1, n - sum_{j=0..t} floor((k-1) / r^j)), term by term."""
    return max(1, n - sum((k - 1) // r**j for j in range(t + 1)))


def shortening(n: int, k: int, r: int, t: int, e: tuple[int, ...]) -> tuple[int, list[int]]:
    """The least tamo_barg(n - e_i, k + i - e_i) over S = {i <= n-k : e_i - i < k},
    and S; tamo_barg(n, k) itself, for 1 <= k <= n, when S is empty."""
    s = [i for i in range(1, len(e) + 1) if e[i - 1] - i < k and i <= n - k]
    if not s:
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        return tamo_barg(n, k, r, t), s
    return min(tamo_barg(n - e[i - 1], k + i - e[i - 1], r, t) for i in s), s


def dmin_m_delta_max(n: int, k: int, r: int, t: int) -> BoundResult:
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    m_lo = math.ceil(n * (1 - rate_best_known(r, t).value_exact))
    m_hi = n - k
    if m_lo > m_hi:
        raise BoundNotApplicableError(
            f"no admissible M: ceil(n(1-R)) = {m_lo} exceeds n-k = {m_hi}"
        )
    best = None
    best_point = None
    for m_dim in range(m_lo, m_hi + 1):
        for delta in range(0, n - k + 1):
            value = shortening(n, k, r, t, ghw_profile_m_delta(n, r, m_dim, delta))[0]
            if best is None or value > best:
                best = value
                best_point = (m_dim, delta)
    return BoundResult(
        "m_delta_max_dmin",
        {"n": n, "k": k, "r": r, "t": t},
        Fraction(best),
        "distance",
        diagnostics={"argmax_M": best_point[0], "argmax_delta": best_point[1]},
    )
