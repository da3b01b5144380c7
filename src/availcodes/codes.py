"""Availability codes: a parity-check matrix with declared (n, r, t)."""

from __future__ import annotations

import math

from . import _Record
from .bitmatrix import BitMatrix, _nullspace, row_space_basis

STRICT = "strict"
GENERAL = "general"


class AvailabilityCode(_Record):
    """A binary code given as the nullspace of a parity-check matrix H.

    `r` (locality) and `t` (availability) are declared parameters; they may
    be None for matrices under analysis.  `kind` records whether the matrix
    is claimed to satisfy the strict row/column-regularity conditions.
    The length n is H's column count.  H is eliminated once, on first use:
    `dual_basis` is its reduced echelon form, k = n - rank(H) is read off
    it, and `basis`, the code's own, is read off it when first asked for.
    Neither cache is compared, copied or pickled.
    """

    __slots__ = ("H", "r", "t", "kind", "construction", "parameters", "_dual_basis", "_basis")

    def __init__(
        self,
        H: BitMatrix,
        r: int | None = None,
        t: int | None = None,
        kind: str = GENERAL,
        construction: str = "",
        parameters: dict | None = None,
    ):
        if kind not in (STRICT, GENERAL):
            raise ValueError(f"kind must be strict or general, got {kind!r}")
        self.H = H
        self.r = r
        self.t = t
        self.kind = kind
        self.construction = construction
        self.parameters = {} if parameters is None else parameters
        self._dual_basis = self._basis = None

    def __reduce__(self):  # copies and pickles leave the caches out
        return type(self), (self.H, self.r, self.t, self.kind, self.construction, self.parameters)

    @property
    def n(self) -> int:
        return self.H.cols

    @property
    def m(self) -> int:
        return self.H.rows

    @property
    def dual_basis(self) -> BitMatrix:
        if self._dual_basis is None:
            self._dual_basis = row_space_basis(self.H)
        return self._dual_basis

    @property
    def basis(self) -> BitMatrix:
        if self._basis is None:
            self._basis = _nullspace(self.dual_basis)
        return self._basis

    @property
    def k(self) -> int:
        return self.n - self.dual_basis.rows

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
        if self.r is not None and self.t is not None:
            # rate k/n in lowest terms against the r/(r+t) baseline; every
            # construction has r, t >= 1, so r+t > 0 and cross-multiplying
            # keeps the comparison's direction
            g = math.gcd(self.k, self.n)
            doc["rate"] = f"{self.k // g}/{self.n // g}"
            doc["exceeds_reference_rate"] = self.k * (self.r + self.t) > self.r * self.n
        return doc
