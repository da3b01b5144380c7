"""Reference oracles for the (M, delta) bounds: the profile recursion written
out step by step, and the exhaustive grid maximum that builds one profile and
one shortening bound per grid point.

These are the direct versions the package used before `dmin_m_delta_max`
began to reuse each profile's prefix across delta.
`test_bounds_differential.py` requires the package to agree with them
exactly: the same profiles, the same value and argmax, the same errors.
"""

from __future__ import annotations

import math

from availcodes.bounds import (
    BoundNotApplicableError,
    BoundResult,
    GHWBoundProfile,
    _ceil_div,
    dmin_shortening,
    rate_best_known,
)


def ghw_profile_m_delta(n: int, r: int, m_dim: int, delta: int) -> GHWBoundProfile:
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
    return GHWBoundProfile(
        n=n,
        r=r,
        variant="m_delta",
        e=tuple(e),
        params={"M": m_dim, "delta": delta},
        J=tuple(j_seq),
    )


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
            profile = ghw_profile_m_delta(n, r, m_dim, delta)
            value = dmin_shortening(n, k, r, t, profile).value_exact
            if best is None or value > best:
                best = value
                best_point = (m_dim, delta)
    return BoundResult(
        "m_delta_max_dmin",
        {"n": n, "k": k, "r": r, "t": t},
        best,
        "distance",
        diagnostics={"argmax_M": best_point[0], "argmax_delta": best_point[1]},
    )
