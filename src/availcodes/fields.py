"""Small finite fields as explicit operation tables.

Elements of GF(q) with q = p^e are labelled 0..q-1; the base-p digits of a
label are the coefficients of the polynomial representation (so 0 is the
additive and 1 the multiplicative identity).  Prime-power orders up to 64
are supported through hard-coded Conway polynomials.  A Conway polynomial
is primitive, so x (the label p) generates GF(q)*, and the multiplication
table is read off the powers of x.
"""

from __future__ import annotations

from typing import Sequence

MAX_ORDER = 64

# The Conway polynomials x^e + c_{e-1} x^{e-1} + ... + c_0 over GF(p) for
# every order p^e <= 64 with e >= 2, stored as (c_0, ..., c_{e-1}).  Each
# is primitive: its root x has order q - 1.
_IRREDUCIBLE = {
    4: (1, 1),
    8: (1, 1, 0),
    9: (2, 2),
    16: (1, 1, 0, 0),
    25: (2, 4),
    27: (1, 2, 0),
    32: (1, 0, 1, 0, 0),
    49: (3, 6),
    64: (1, 1, 0, 1, 1, 0),
}


def prime_power(q: int) -> tuple[int, int] | None:
    """Decompose q as p^e for a prime p, or None if q is not a prime power."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q and p != q:
            break
        if q % p:
            continue
        e = 0
        m = q
        while m % p == 0:
            m //= p
            e += 1
        return (p, e) if m == 1 else None
    return q, 1  # q prime


class FiniteField:
    """GF(q) for a prime power 2 <= q <= 64, with full add/mul tables."""

    def __init__(self, q: int):
        if not 2 <= q <= MAX_ORDER:  # first: prime_power trial-divides q
            raise ValueError(f"field order must be in 2..{MAX_ORDER}, got {q}")
        decomp = prime_power(q)
        if decomp is None:
            raise ValueError(f"{q} is not a prime power")
        self.q = q
        p, e = self.p, self.degree = decomp
        if e == 1:
            self.add_table = tuple(tuple((a + b) % q for b in range(q)) for a in range(q))
            self.mul_table = tuple(tuple(a * b % q for b in range(q)) for a in range(q))
            self._neg = (0, *range(q - 1, 0, -1))
            self._inv = (0, *(pow(a, -1, q) for a in range(1, q)))
            return
        if p == 2:
            self.add_table = tuple(tuple(a ^ b for b in range(q)) for a in range(q))
        else:  # digit by digit mod p
            places = [p**i for i in range(e)]
            self.add_table = tuple(
                tuple(sum((a // w + b // w) % p * w for w in places) for b in range(q))
                for a in range(q)
            )
        self._neg = tuple(row.index(0) for row in self.add_table)
        # x^0..x^(q-2): x*a shifts a's digits up one place and adds back the
        # top digit c as c*x^e = -c*(c_0 + ... + c_{e-1} x^{e-1}), i.e. fold[c]
        top = q // p
        fold = [sum(-c * ci % p * p**i for i, ci in enumerate(_IRREDUCIBLE[q])) for c in range(p)]
        powers = [1]
        for _ in range(q - 2):
            a = powers[-1]
            powers.append(self.add_table[a % top * p][fold[a // top]])
        # mul and inv through the logs: a*b = x^(log a + log b), a^-1 = x^(-log a)
        log = [0] * q
        for j, x in enumerate(powers):
            log[x] = j
        self.mul_table = ((0,) * q,) + tuple(
            (0, *(powers[(log[a] + log[b]) % (q - 1)] for b in range(1, q)))
            for a in range(1, q)
        )
        self._inv = (0, *(powers[-log[a] % (q - 1)] for a in range(1, q)))

    # -- public operations ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self._neg[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return self._inv[a]

    def __repr__(self) -> str:
        return f"FiniteField({self.q})"


def matrix_rank(field: FiniteField, rows: Sequence[Sequence[int]]) -> int:
    """Rank of a matrix over `field` by Gaussian elimination."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank_ = 0
    for col in range(ncols):
        piv = next((i for i in range(rank_, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank_], work[piv] = work[piv], work[rank_]
        scale = field.inv(work[rank_][col])
        work[rank_] = [field.mul(scale, v) for v in work[rank_]]
        for i in range(len(work)):
            if i != rank_ and work[i][col]:
                factor = work[i][col]
                work[i] = [
                    field.sub(v, field.mul(factor, w))
                    for v, w in zip(work[i], work[rank_])
                ]
        rank_ += 1
        if rank_ == len(work):
            break
    return rank_
