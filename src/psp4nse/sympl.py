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
from heapq import merge
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .arith import divisor_phi_psi, divisors, validate_q

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
# q = 2^13).  The CSV takes 53 bytes a row at q = 2^11, and `compute --q 2048`
# peaks at 561 MB RSS, some 130 bytes a row.  Within it q <= 2^12, so q * i % m
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


def m_of_order(q: int, r: int) -> int:
    """Exact number of elements of order r in PSp4(q)."""
    counts = nse_table(q).counts
    if r not in counts:
        raise ValueError(f"{r} is not an element order of PSp4({q})")
    return counts[r]


@dataclass(frozen=True)
class NseTable:
    """Exact order -> count map for PSp4(q), keys ascending."""

    q: int
    order: int
    counts: dict[int, int]

    def value_set(self) -> frozenset[int]:
        return frozenset(self.counts.values())


def _scaled(divs, c: int, k: int = 1):
    """(k r, phi(r) c) for the rows (r, phi(r), psi(r)) of divs, ascending in r."""
    return ((k * r, phi * c) for r, phi, _ in divs)


def _bracketed(divs, c: int, s: int):
    """(r, phi(r) c (8 - 4s + s psi(r))) for the rows of divs, ascending in r."""
    return ((r, phi * c * (8 - 4 * s + s * psi)) for r, phi, psi in divs)


def nse_table(q: int) -> NseTable:
    """The count m_r of every element order r, one ascending stream per class.

    Besides 1, 2 and 4, an order is a divisor a > 1 of q-1 or b > 1 of q+1,
    their double 2a or 2b, a product ab, or a divisor d > 1 of q^2+1.
    gcd(q-1, q+1) = 1, so phi(ab) = phi(a) phi(b).  Each class constant is
    formed once; its fractional coefficient is cleared by one exact division.
    Merging the streams orders the keys without holding a second copy of them.
    """
    order = group_order(q)
    q3, q4, o4 = q**3, q**4, q**4 - 1
    dm = divisor_phi_psi(q - 1)[1:]
    dp = divisor_phi_psi(q + 1)[1:]
    streams = [
        [(1, 1), (2, (q * q + 1) * o4), (4, q * q * (q * q - 1) * o4)],
        # 2r with r | q-+1: phi(r) q^3 (q+-1)(q^4-1)
        _scaled(dm, q3 * (q + 1) * o4, 2),
        _scaled(dp, q3 * (q - 1) * o4, 2),
    ]
    # r | q-+1: phi(r) q^3 (q^2+1)(q+-1) (1 - s/2 + s psi(r)/8) with s = q(q+-1)
    for divs, t, label in ((dm, q + 1, "r | q-1"), (dp, q - 1, "r | q+1")):
        streams.append(_bracketed(divs, _exact(q3 * (q * q + 1) * t, 8, label), q * t))
    # ab: phi(a) phi(b) q^4 (q^4-1)/2; streaming the longer list keeps the heap shallow
    c = _exact(q4 * o4, 2, "mixed divisor of q^2-1")
    outer, inner = sorted((dm, dp), key=len)
    streams += [_scaled(inner, phi * c, a) for a, phi, _ in outer]
    # r | q^2+1: phi(r) q^4 (q^2-1)^2 / 4
    c = _exact(q4 * (q * q - 1) ** 2, 4, "r | q^2+1")
    streams.append(_scaled(divisor_phi_psi(q * q + 1)[1:], c))
    return NseTable(q, order, dict(merge(*streams)))


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


_WORD_BASE = 10**4
_NUL_WORD = 2 * _WORD_BASE
# rows per buffer: each slice becomes text before the next is built, so only
# one slice of words and bytes is alive beside the text
_CSV_SLICE_ROWS = 1 << 14


@lru_cache(maxsize=1)
def _word_table() -> np.ndarray:
    """The 2 * 10^4 + 1 four-byte ASCII words the CSV is assembled from (read-only).

    Word v < 10^4 is v right-aligned after NUL bytes ("0" for 0), word
    10^4 + v is v zero-padded to 4 digits, and word 2 * 10^4 is all NUL.
    The words are uint32 views of byte rows, so their bytes keep their order.
    Built on first use: at import it raised the peak RSS of runs that never
    write a CSV by about 0.4 MB.
    """
    v = np.arange(_WORD_BASE)[:, None]
    digits = (v // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    words = np.zeros((_NUL_WORD + 1, 4), dtype=np.uint8)
    # a digit is a leading zero when v is below its place value; 0 keeps its last
    words[:_WORD_BASE] = np.where(v < np.array([1000, 100, 10, 0]), 0, digits)
    words[_WORD_BASE:_NUL_WORD] = digits
    words = words.view(np.uint32).ravel()
    words.flags.writeable = False
    return words


def _text_words(text: str) -> np.ndarray:
    """text as whole words, left-padded with NUL to a multiple of 4 bytes."""
    data = text.encode("ascii")
    return np.frombuffer(data.rjust(-(-len(data) // 4) * 4, b"\0"), dtype=np.uint32)


def _csv_column(family: str, column) -> np.ndarray:
    """column as int64 after checking the writer can print it: integers in [0, 10^8)."""
    column = np.asarray(column)
    if not np.issubdtype(column.dtype, np.integer):
        raise ValueError(f"class table column of {family} has dtype {column.dtype}, "
                         f"not an integer dtype")
    if len(column) and (column.min() < 0 or column.max() >= _WORD_BASE**2):
        raise ValueError(f"class table column of {family} holds values outside "
                         f"[0, 10^8): {column.min()}..{column.max()}")
    return column.astype(np.int64, copy=False)


def class_table_csv(table: ClassTable) -> str:
    """CSV text: name,i,j,rep_order,class_count_index,class_length.

    Rows are assembled as 4-byte words in a uint32 buffer, a slice of rows at
    a time.  Each number is its high and low word of _word_table() (divmod by
    10^4; a column that stays below 10^4 has no high word); the family name,
    the separators (an absent parameter is an empty field) and the class
    length are constant words.  Deleting the NUL padding leaves the text.  Every
    column value must lie in [0, 10^8), else ValueError names the family;
    class_table's do (i < q^2/2, rep_order <= q^2 + 1 and fewer than 2^25
    rows per block for q <= 2^12).
    """
    lookup = _word_table()
    parts = ["name,i,j,rep_order,class_count_index,class_length\n"]
    for family, i, j, rep, length in table.blocks:
        rows = len(rep)
        # a row is texts[0], columns[0], texts[1], ..., columns[-1], texts[-1]
        texts, columns = [], []
        text = family
        for column in (i, j, rep, np.arange(rows)):
            text += ","
            if column is not None:
                column = _csv_column(family, column)
                texts.append(_text_words(text))
                columns.append((column, column.max(initial=0) >= _WORD_BASE))
                text = ""
        texts.append(_text_words(f"{text},{length}\n"))
        width = sum(map(len, texts)) + sum(1 + wide for _, wide in columns)
        for start in range(0, rows, _CSV_SLICE_ROWS):
            stop = min(start + _CSV_SLICE_ROWS, rows)
            buf = np.empty((stop - start, width), dtype=np.uint32)
            k = 0
            for words, (column, wide) in zip(texts, columns):
                buf[:, k:k + len(words)] = words
                k += len(words)
                values = column[start:stop]
                if wide:
                    high, low = np.divmod(values, _WORD_BASE)
                    has_high = high > 0
                    buf[:, k] = lookup[np.where(has_high, high, _NUL_WORD)]
                    values = low + _WORD_BASE * has_high
                    k += 1
                buf[:, k] = lookup[values]
                k += 1
            buf[:, k:] = texts[-1]
            parts.append(buf.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)
