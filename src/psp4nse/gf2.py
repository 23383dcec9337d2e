"""Arithmetic in GF(2^f) with a deterministic choice of modulus.

Elements are f-bit masks read as polynomials over GF(2); the modulus for each
degree is the lexicographically smallest irreducible polynomial (smallest mask
with the leading x^f bit set), so every run of the package works in the same
concrete field and golden files stay stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import divisors

__all__ = [
    "FieldSpec",
    "multiplicative_order",
    "find_generator",
]


def _poly_rem(num: int, den: int) -> int:
    """Remainder of polynomial division over GF(2) (den != 0)."""
    dd = den.bit_length() - 1
    while num.bit_length() - 1 >= dd and num:
        num ^= den << (num.bit_length() - 1 - dd)
    return num


def _is_irreducible(poly: int, f: int) -> bool:
    # trial division by every polynomial of degree 1 .. f//2
    for d in range(1, f // 2 + 1):
        for cand in range(1 << d, 1 << (d + 1)):
            if _poly_rem(poly, cand) == 0:
                return False
    return True


def lexicographic_modulus(f: int) -> int:
    """Smallest irreducible degree-f polynomial over GF(2), as a bitmask."""
    if f < 1:
        raise ValueError(f"degree must be >= 1, got {f}")
    for mask in range(1 << f, 1 << (f + 1)):
        if _is_irreducible(mask, f):
            return mask
    raise AssertionError(f"no irreducible polynomial of degree {f}")


@dataclass(frozen=True)
class FieldSpec:
    """GF(2^f) with a fixed irreducible modulus (bitmask includes the x^f term)."""

    f: int
    modulus: int

    @classmethod
    def for_degree(cls, f: int) -> FieldSpec:
        return cls(f, lexicographic_modulus(f))

    @property
    def order(self) -> int:
        """Number of field elements, 2^f."""
        return 1 << self.f

    def mul(self, a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> self.f:
                a ^= self.modulus
        return r

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a = self.inv(a)
            k = -k
        r = 1
        while k:
            if k & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            k >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero in GF(2^f)")
        return self.pow(a, self.order - 2)


def multiplicative_order(spec: FieldSpec, a: int) -> int:
    """Smallest k >= 1 with a^k = 1 in the field (error on zero)."""
    if a == 0:
        raise ZeroDivisionError("zero has no multiplicative order")
    for d in divisors(spec.order - 1):
        if spec.pow(a, d) == 1:
            return d
    raise AssertionError("order not found below group order")


def find_generator(spec: FieldSpec) -> int:
    """The generator of GF(2^f)^x with the smallest bitmask (deterministic)."""
    target = spec.order - 1
    for a in range(1, spec.order):
        if multiplicative_order(spec, a) == target:
            return a
    raise AssertionError("no generator found")
