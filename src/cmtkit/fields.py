"""Coefficient field selection: GF(p) for a prime p, or exact rationals."""

from __future__ import annotations

from ._record import FrozenRecord


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


class FieldSpec(FrozenRecord):
    """A coefficient field: GF(p) when p is set, the rationals when None.

    Primes are capped below 2**31, which bounds the trial division that
    checks primality (at most about 23,000 odd divisors) and keeps the
    accepted field tokens as they were; the rank kernels work on Python
    ints and need no cap of their own.
    """

    __slots__ = _fields = ("p",)

    def __init__(self, p: int | None = 2):
        if p is not None:
            if not isinstance(p, int) or not (2 <= p < 2 ** 31):
                raise ValueError(f"field characteristic out of range: {p!r}")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        self._assign(p)

    # Direct, not through the field tuple: a field sits in every memo key.
    def __eq__(self, other: object) -> bool:
        return type(other) is FieldSpec and other.p == self.p

    def __hash__(self) -> int:
        return hash((self.p,))

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
        # isdecimal is what the pattern gf\d+ accepted (Unicode category Nd),
        # without compiling a regex in every cold --field request
        if not (tok.startswith("gf") and tok[2:].isdecimal()):
            raise ValueError(f"unknown field spec: {token!r} (expected gf<p> or q)")
        return cls.gf(int(tok[2:]))

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
