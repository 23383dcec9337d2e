"""Closed forms for PSp4(q) with q = 2^f > 2.

For even q the center of Sp4(q) is trivial, so PSp4(q) = Sp4(q) and the group
order is q^4(q^4-1)(q^2-1).  This module carries the parameterized conjugacy
class table (families A1..A42, B1..B5, C1..C4, D1..D4 in Enomoto's labeling),
the element-order spectrum, the exact same-order counts m_r, and their
serializations.  Everything is exact integer arithmetic; the fractional
coefficients in the count formulas are cleared into one division that is
asserted exact.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import gcd
from typing import NamedTuple

import numpy as np

from .arith import divisors, factorize, phi_psi, validate_q

__all__ = [
    "ClassDescriptor",
    "ClassTable",
    "NseTable",
    "CLASS_FAMILIES",
    "validate_q",
    "group_order",
    "spectrum",
    "class_table",
    "family_class_count",
    "m_of_order",
    "nse_table",
    "nse_set",
    "nse_table_json",
    "class_table_csv",
]

CLASS_FAMILIES = (
    "A1", "A2", "A31", "A32", "A41", "A42",
    "B1", "B2", "B3", "B4", "B5",
    "C1", "C2", "C3", "C4",
    "D1", "D2", "D3", "D4",
)


def group_order(q: int) -> int:
    """|PSp4(q)| = q^4 (q^4 - 1)(q^2 - 1)."""
    validate_q(q)
    return q**4 * (q**4 - 1) * (q**2 - 1)


@lru_cache(maxsize=64)
def spectrum(q: int) -> tuple[int, ...]:
    """Element orders of PSp4(q): every divisor of 4, 2(q-1), 2(q+1), q^2-1, q^2+1.

    Only q-1, q+1 and q^2+1 are factored.  They are odd and gcd(q-1, q+1) = 1,
    so the divisors of 2(q+-1) are those of q+-1 and their doubles, and those
    of q^2-1 are the products ab with a | q-1 and b | q+1.
    """
    validate_q(q)
    dm, dp = divisors(q - 1), divisors(q + 1)
    out = {1, 2, 4, *(2 * d for d in dm + dp), *(a * b for a in dm for b in dp),
           *divisors(q * q + 1)}
    return tuple(sorted(out))


@dataclass(frozen=True)
class ClassDescriptor:
    """One conjugacy class: family label, parameters, representative order, size."""

    family: str
    i: int | None
    j: int | None
    rep_order: int
    class_length: int


class ClassBlock(NamedTuple):
    """The classes of one family as columns: the parameters i and j (int64
    arrays, None where the family has no such parameter), the representative
    orders (int64 array) and the length every class of the family shares."""

    family: str
    i: np.ndarray | None
    j: np.ndarray | None
    rep_order: np.ndarray
    class_length: int


class ClassTable:
    """The conjugacy classes of PSp4(q): one ClassBlock per family, in
    CLASS_FAMILIES order.  Iterating yields the classes as ClassDescriptor
    rows, built one block at a time."""

    def __init__(self, blocks: tuple[ClassBlock, ...]):
        self.blocks = blocks

    def __len__(self) -> int:
        return sum(len(block.rep_order) for block in self.blocks)

    def __iter__(self) -> Iterator[ClassDescriptor]:
        for family, i, j, rep, length in self.blocks:
            cols = [repeat(None) if c is None else c.tolist() for c in (i, j)]
            for ci, cj, r in zip(*cols, rep.tolist()):
                yield ClassDescriptor(family, ci, cj, r, length)


# the most rows class_table builds: about q^2 of them (2^24 at q = 2^12, 2^26 at
# q = 2^13), some 130 bytes each with the CSV.  Within it q <= 2^12, so q * i % m
# in _least_in_q_orbit stays below q^3/2 <= 2^35 and every column fits int64.
_CLASS_TABLE_MAX_ROWS = 1 << 25


def _least_in_q_orbit(q: int, m: int) -> np.ndarray:
    """The least member of each orbit {+-i, +-qi} mod m of size 4, in increasing order.

    i is least in its orbit iff i < -i and i < +-qi; the strict inequalities
    also drop the i with qi = +-i.
    """
    i = np.arange(1, (m - 1) // 2 + 1, dtype=np.int64)
    qi = q * i % m
    return i[(i < qi) & (qi < m - i)]


def _pairs(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of t, ordered as itertools.combinations(t, 2) orders them."""
    rows, cols = np.triu_indices(len(t), 1)
    return t[rows], t[cols]


def class_table(q: int) -> ClassTable:
    """All conjugacy classes of PSp4(q), each orbit of parameters by its least member.

    Parameter tuples are taken modulo the identifications
    B1/B4: (i,j) ~ (+-i,+-j) ~ (+-j,+-i); B2/B5: i ~ +-i, +-qi; B3: (i,j) ~
    (+-i,+-j); C/D: i ~ -i.  With T1 = 1..(q-2)/2 and T2 = 1..q/2, the least
    members are i < j in T1 (B1) or T2 (B4), T1 x T2 (B3) and T1 or T2 (C/D),
    each family in increasing order.

    A table of more than 2^25 rows (q > 2^12) raises ValueError before
    anything is allocated.
    """
    f = validate_q(q)
    rows = sum(family_class_count(q, family) for family in CLASS_FAMILIES)
    if rows > _CLASS_TABLE_MAX_ROWS:
        raise ValueError(f"class_table builds at most 2^25 rows (q <= 2^12); "
                         f"q = 2^{f} has {rows}")
    qm, qp = q - 1, q + 1
    q2m, q2p = q * q - 1, q * q + 1
    o4 = q**4 - 1
    t1 = np.arange(1, (q - 2) // 2 + 1, dtype=np.int64)
    t2 = np.arange(1, q // 2 + 1, dtype=np.int64)
    half_len = q * q * (q * q - 1) * o4 // 2
    blocks = [
        ClassBlock(family, None, None, np.array([order], dtype=np.int64), length)
        for family, order, length in (
            ("A1", 1, 1),
            ("A2", 2, o4),
            ("A31", 2, o4),
            ("A32", 2, q2m * o4),
            ("A41", 4, half_len),
            ("A42", 4, half_len),
        )
    ]

    i, j = _pairs(t1)
    blocks.append(ClassBlock("B1", i, j, qm // np.gcd(np.gcd(i, j), qm), q**4 * qp * qp * q2p))
    i = _least_in_q_orbit(q, q2m)
    blocks.append(ClassBlock("B2", i, None, q2m // np.gcd(i, q2m), q**4 * o4))
    i, j = np.repeat(t1, len(t2)), np.tile(t2, len(t1))
    blocks.append(ClassBlock("B3", i, j, q2m // (np.gcd(i, qm) * np.gcd(j, qp)), q**4 * o4))
    i, j = _pairs(t2)
    blocks.append(ClassBlock("B4", i, j, qp // np.gcd(np.gcd(i, j), qp), q**4 * qm * qm * q2p))
    i = _least_in_q_orbit(q, q2p)
    blocks.append(ClassBlock("B5", i, None, q2p // np.gcd(i, q2p), q**4 * q2m * q2m))

    # C and D: (family, parameters, modulus m, element order = k * m / gcd(m, i), length)
    for family, params, m, k, length in (
        ("C1", t1, qm, 1, q**3 * qp * q2p),
        ("C2", t1, qm, 1, q**3 * qp * q2p),
        ("C3", t2, qp, 1, q**3 * qm * q2p),
        ("C4", t2, qp, 1, q**3 * qm * q2p),
        ("D1", t1, qm, 2, q**3 * qp * o4),
        ("D2", t1, qm, 2, q**3 * qp * o4),
        ("D3", t2, qp, 2, q**3 * qm * o4),
        ("D4", t2, qp, 2, q**3 * qm * o4),
    ):
        blocks.append(ClassBlock(family, params, None, k * m // np.gcd(params, m), length))

    return ClassTable(tuple(blocks))


def family_class_count(q: int, family: str) -> int:
    """Number of classes a family contributes, as a polynomial in q."""
    validate_q(q)
    counts = {
        "A1": 1, "A2": 1, "A31": 1, "A32": 1, "A41": 1, "A42": 1,
        "B1": (q - 2) * (q - 4) // 8,
        "B2": q * (q - 2) // 4,
        "B3": q * (q - 2) // 4,
        "B4": q * (q - 2) // 8,
        "B5": q * q // 4,
        "C1": (q - 2) // 2, "C2": (q - 2) // 2,
        "C3": q // 2, "C4": q // 2,
        "D1": (q - 2) // 2, "D2": (q - 2) // 2,
        "D3": q // 2, "D4": q // 2,
    }
    if family not in counts:
        raise KeyError(f"unknown class family {family!r}")
    return counts[family]


def _exact(num: int, den: int, context: str) -> int:
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"non-integral count in {context}: {num}/{den}")
    return quot


def _order_primes(q: int) -> tuple[int, ...]:
    """{2} u pi(q-1) u pi(q+1) u pi(q^2+1), ascending: every prime of an element order.

    Every element order divides 2(q-1)(q+1)(q^2+1).  spectrum factors the
    three odd pieces, so factorize's cache serves them here.
    """
    return tuple(sorted({2}.union(*(factorize(n).primes for n in (q - 1, q + 1, q * q + 1)))))


def m_of_order(q: int, r: int) -> int:
    """Exact number of elements of order r in PSp4(q)."""
    validate_q(q)
    if r < 1 or all(n % r for n in (4, 2 * (q - 1), 2 * (q + 1), q * q - 1, q * q + 1)):
        raise ValueError(f"{r} is not an element order of PSp4({q})")
    return _count(q, r, _order_primes(q))


def _count(q: int, r: int, primes: tuple[int, ...]) -> int:
    """m_r for an element order r of PSp4(q); primes must hold every prime of r.

    Dispatch is by the unique way r sits against q: r in {1,2,4}; odd r
    dividing q^2+1; odd r dividing q^2-1 split coprimely across q-1 and q+1
    (gcd(q-1, q+1) = 1 for even q); or r = 2r' with r' dividing q-1 or q+1.
    The fractional coefficients are cleared into one exact division.
    """
    if r == 1:
        return 1
    if r == 2:
        return (q * q + 1) * (q**4 - 1)
    if r == 4:
        return q * q * (q * q - 1) * (q**4 - 1)
    if r % 2 == 0:
        rr = r // 2
        phi = phi_psi(rr, primes)[0]
        if (q - 1) % rr == 0:
            return phi * q**3 * (q + 1) * (q**4 - 1)
        return phi * q**3 * (q - 1) * (q**4 - 1)
    phi, psi = phi_psi(r, primes)
    if (q * q + 1) % r == 0:
        return _exact(phi * q**4 * (q * q - 1) ** 2, 4, f"m_{r}, r | q^2+1")
    r_minus, r_plus = gcd(r, q - 1), gcd(r, q + 1)
    if r_plus == 1:
        # 1 - q(q+1)/2 + q(q+1)/8 psi(r), times 8
        bracket = 8 - 4 * q * (q + 1) + q * (q + 1) * psi
        return _exact(phi * q**3 * (q * q + 1) * (q + 1) * bracket, 8, f"m_{r}, r | q-1")
    if r_minus == 1:
        bracket = 8 - 4 * q * (q - 1) + q * (q - 1) * psi
        return _exact(phi * q**3 * (q * q + 1) * (q - 1) * bracket, 8, f"m_{r}, r | q+1")
    return _exact(phi * q**4 * (q**4 - 1), 2, f"m_{r}, mixed divisor of q^2-1")


@dataclass(frozen=True)
class NseTable:
    """Exact order -> count map for PSp4(q), keys ascending."""

    q: int
    order: int
    counts: dict[int, int]

    def value_set(self) -> frozenset[int]:
        return frozenset(self.counts.values())


def nse_table(q: int) -> NseTable:
    spec = spectrum(q)
    primes = _order_primes(q)
    return NseTable(q, group_order(q), {r: _count(q, r, primes) for r in spec})


def nse_set(q: int) -> frozenset[int]:
    """The set of same-order counts of PSp4(q) (the values of the nse table)."""
    return nse_table(q).value_set()


def nse_table_json(table: NseTable) -> dict:
    """JSON-ready form; all counts as decimal strings, keys ascending."""
    return {
        "q": table.q,
        "order": str(table.order),
        "counts": {str(r): str(c) for r, c in sorted(table.counts.items())},
    }


def class_table_csv(table: ClassTable) -> str:
    """CSV text: name,i,j,rep_order,class_count_index,class_length.

    Each family is one format string with its name and class length built in,
    applied to the columns of its block; an absent parameter is an empty field.
    """
    parts = ["name,i,j,rep_order,class_count_index,class_length\n"]
    for family, i, j, rep, length in table.blocks:
        fields = ["" if c is None else "%d" for c in (i, j)]
        fmt = ",".join([family, *fields, "%d,%d", str(length)]) + "\n"
        cols = [c.tolist() for c in (i, j, rep) if c is not None]
        parts.append("".join(map(fmt.__mod__, zip(*cols, range(len(rep))))))
    return "".join(parts)
