"""Coefficient field selection: GF(p) for a prime p, or exact rationals."""

from __future__ import annotations

import re
from dataclasses import dataclass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field: GF(p) when p is set, the rationals when None.

    Primes are capped below 2**31, which bounds the trial division that
    checks primality (at most about 23,000 odd divisors) and keeps the
    accepted field tokens as they were; the rank kernels work on Python
    ints and need no cap of their own.
    """

    p: int | None = 2

    def __post_init__(self):
        if self.p is not None:
            if not isinstance(self.p, int) or not (2 <= self.p < 2 ** 31):
                raise ValueError(f"field characteristic out of range: {self.p!r}")
            if not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")

    @classmethod
    def gf(cls, p: int) -> "FieldSpec":
        return cls(p)

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(None)

    @classmethod
    def parse(cls, token: str) -> "FieldSpec":
        """Parse a CLI field token: gf2, gf3, ..., or q."""
        tok = token.strip().lower()
        if tok in ("q", "rationals", "rational", "qq"):
            return cls.rationals()
        m = re.fullmatch(r"gf(\d+)", tok)
        if not m:
            raise ValueError(f"unknown field spec: {token!r} (expected gf<p> or q)")
        return cls.gf(int(m.group(1)))

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    @property
    def token(self) -> str:
        return "q" if self.p is None else f"gf{self.p}"

    def __str__(self) -> str:
        return "Q" if self.p is None else f"GF({self.p})"


GF2 = FieldSpec.gf(2)
GF3 = FieldSpec.gf(3)
GF5 = FieldSpec.gf(5)
RATIONALS = FieldSpec.rationals()
