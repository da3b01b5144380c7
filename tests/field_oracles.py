"""Reference oracle for the field tables: GF(q) arithmetic straight from its
definition as polynomials over GF(p) modulo a polynomial on file.

A label's base-p digits are its coefficients, lowest first.  `add` adds
the digit vectors mod p; `mul` multiplies them as polynomials and reduces
the product by the degree-e polynomial of `fields._IRREDUCIBLE`.  These are
the raw rules the package once built its tables from.
`test_fields.py` requires every add, mul and inverse entry of
`FiniteField` to agree with them.
"""

from __future__ import annotations

from availcodes.fields import _IRREDUCIBLE, prime_power


def _digits(q: int, a: int) -> list[int]:
    p, e = prime_power(q)
    return [a // p**i % p for i in range(e)]


def _label(q: int, digits: list[int]) -> int:
    p, _ = prime_power(q)
    return sum(d * p**i for i, d in enumerate(digits))


def add(q: int, a: int, b: int) -> int:
    p, _ = prime_power(q)
    return _label(q, [(x + y) % p for x, y in zip(_digits(q, a), _digits(q, b))])


def mul(q: int, a: int, b: int) -> int:
    p, e = prime_power(q)
    if e == 1:
        return a * b % p
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(_digits(q, a)):
        for j, y in enumerate(_digits(q, b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    poly = _IRREDUCIBLE[q]
    for deg in range(2 * e - 2, e - 1, -1):
        c, prod[deg] = prod[deg], 0
        # x^deg = x^(deg-e) * x^e = -sum_i poly[i] x^(deg-e+i)
        for i, ci in enumerate(poly):
            prod[deg - e + i] = (prod[deg - e + i] - c * ci) % p
    return _label(q, prod[:e])
