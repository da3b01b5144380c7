"""Availability codes: a parity-check matrix with declared (n, r, t)."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .bitmatrix import BitMatrix, rank

STRICT = "strict"
GENERAL = "general"


@dataclass
class AvailabilityCode:
    """A binary code given as the nullspace of a parity-check matrix H.

    `r` (locality) and `t` (availability) are declared parameters; they may
    be None for matrices under analysis.  `kind` records whether the matrix
    is claimed to satisfy the strict row/column-regularity conditions.
    The length n is H's column count; the dimension k = n - rank(H) is
    computed once, on first use.
    """

    H: BitMatrix
    r: int | None = None
    t: int | None = None
    kind: str = GENERAL
    construction: str = ""
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (STRICT, GENERAL):
            raise ValueError(f"kind must be strict or general, got {self.kind!r}")

    @property
    def n(self) -> int:
        return self.H.cols

    @property
    def m(self) -> int:
        return self.H.rows

    @functools.cached_property
    def k(self) -> int:
        return self.n - rank(self.H)

    def sidecar(self) -> dict:
        """JSON-ready description written next to serialized matrices."""
        doc = {
            "n": self.n,
            "m": self.m,
            "r": self.r,
            "t": self.t,
            "kind": self.kind,
            "k": self.k,
            "construction": self.construction,
            "parameters": self.parameters,
        }
        if self.r is not None and self.t is not None:  # rate k/n against the r/(r+t) baseline
            rate = Fraction(self.k, self.n)
            doc["rate"] = f"{rate.numerator}/{rate.denominator}"
            doc["exceeds_reference_rate"] = rate > Fraction(self.r, self.r + self.t)
        return doc
