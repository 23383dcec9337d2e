"""Closed forms for PSp4(q) with q = 2^f > 2.

For even q the center of Sp4(q) is trivial, so PSp4(q) = Sp4(q) and the group
order is q^4(q^4-1)(q^2-1).  This module carries the parameterized conjugacy
class table (families A1..A42, B1..B5, C1..C4, D1..D4 in Enomoto's labeling),
and one description of the element orders in nine classes, each with its
constant and its divisor rows.  The spectrum, the keyed same-order counts m_r
(nse_table), their value set (nse_set, without the keyed map) and the
characterization's A-sets all read it.  Everything is exact integer
arithmetic; each fractional coefficient is cleared by one exact division.
"""

from __future__ import annotations

from bisect import bisect_left
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
    "group_order",
    "spectrum",
    "class_table",
    "family_class_count",
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
    """Element orders of PSp4(q), ascending: the orders of the classes in _order_classes(q).

    They are the divisors of 4, 2(q-1), 2(q+1), q^2-1 and q^2+1, and only q-1,
    q+1 and q^2+1 are factored.  The classes are disjoint, so no order repeats.
    """
    validate_q(q)
    return tuple(sorted(k * d for cls in _order_classes(q) for k, _ in cls.scales
                        for d in cls.orders))


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


def _gcd_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The divisors of m ascending (int64), and for every residue r in 0..m-1
    the index of gcd(r, m) among them.

    Each divisor d writes its index over the multiples of d, the larger
    divisors last, so every residue ends at the largest divisor of m it is a
    multiple of: gcd(r, m).
    """
    divs = divisors(m)
    index = np.empty(m, dtype=np.intp)
    for k, d in enumerate(divs):
        index[::d] = k
    return np.array(divs, dtype=np.int64), index


def _pair_orders(m: int, t: np.ndarray, divs: np.ndarray, index: np.ndarray) -> np.ndarray:
    """m / gcd(i, j, m) for the pairs i < j of t = 1..n, in _pairs order.

    gcd(i, j, m) is the gcd of the divisors gcd(i, m) and gcd(j, m), so one
    row per divisor over all of t holds every value; the pairs that start at
    i are the tail of the row of gcd(i, m) past i.
    """
    cols = index[t]
    rows = (m // np.gcd.outer(divs, divs))[:, cols]
    return np.concatenate([rows[a, k:] for k, a in enumerate(cols.tolist(), 1)])


def _orbit_orders(q: int, m: int, i: np.ndarray) -> np.ndarray:
    """m / gcd(i, m) for i = _least_in_q_orbit(q, m).

    The members that a divisor d of m divides are d times those of
    _least_in_q_orbit(q, m / d), since q d k mod m = d (q k mod m / d); each
    proper divisor, the larger last, writes m / d at their places in i.
    """
    orders = np.full(len(i), m, dtype=np.int64)
    for d in divisors(m)[1:-1]:
        orders[np.searchsorted(i, d * _least_in_q_orbit(q, m // d))] = m // d
    return orders


def class_table(q: int) -> ClassTable:
    """All conjugacy classes of PSp4(q), each orbit of parameters by its least member.

    Parameter tuples are taken modulo the identifications
    B1/B4: (i,j) ~ (+-i,+-j) ~ (+-j,+-i); B2/B5: i ~ +-i, +-qi; B3: (i,j) ~
    (+-i,+-j); C/D: i ~ -i.  With T1 = 1..(q-2)/2 and T2 = 1..q/2, the least
    members are i < j in T1 (B1) or T2 (B4), T1 x T2 (B3) and T1 or T2 (C/D),
    each family in increasing order.

    A representative's order is m / gcd(i, m) (or m / gcd(i, j, m)) for the
    family's modulus m.  No row takes its own gcd: the orders modulo q-1 and
    q+1 are read from _gcd_table of each, q^2 - 1 = (q-1)(q+1) multiplies
    the two, and B5's orders modulo q^2+1 come from its divisors.

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
    # the order of every residue modulo q-1 and modulo q+1
    (divs_m, index_m), (divs_p, index_p) = _gcd_table(qm), _gcd_table(qp)
    order_m, order_p = (qm // divs_m)[index_m], (qp // divs_p)[index_p]
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
    blocks.append(ClassBlock("B1", i, j, _pair_orders(qm, t1, divs_m, index_m), q**4 * qp * qp * q2p))
    # gcd(q-1, q+1) = 1, so the order modulo q^2-1 is the product of the two
    i = _least_in_q_orbit(q, q2m)
    blocks.append(ClassBlock("B2", i, None, order_m[i % qm] * order_p[i % qp], q**4 * o4))
    i, j = np.repeat(t1, len(t2)), np.tile(t2, len(t1))
    blocks.append(ClassBlock("B3", i, j, np.multiply.outer(order_m[t1], order_p[t2]).ravel(), q**4 * o4))
    i, j = _pairs(t2)
    blocks.append(ClassBlock("B4", i, j, _pair_orders(qp, t2, divs_p, index_p), q**4 * qm * qm * q2p))
    i = _least_in_q_orbit(q, q2p)
    blocks.append(ClassBlock("B5", i, None, _orbit_orders(q, q2p, i), q**4 * q2m * q2m))

    # C and D: (family, parameters, orders modulo m, element order = k * m / gcd(m, i), length)
    for family, params, order, k, length in (
        ("C1", t1, order_m, 1, q**3 * qp * q2p),
        ("C2", t1, order_m, 1, q**3 * qp * q2p),
        ("C3", t2, order_p, 1, q**3 * qm * q2p),
        ("C4", t2, order_p, 1, q**3 * qm * q2p),
        ("D1", t1, order_m, 2, q**3 * qp * o4),
        ("D2", t1, order_m, 2, q**3 * qp * o4),
        ("D3", t2, order_p, 2, q**3 * qm * o4),
        ("D4", t2, order_p, 2, q**3 * qm * o4),
    ):
        blocks.append(ClassBlock(family, params, None, k * order[params], length))

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


@dataclass(frozen=True)
class NseTable:
    """Exact order -> count map for PSp4(q), keys ascending."""

    q: int
    order: int
    counts: dict[int, int]

    def value_set(self) -> frozenset[int]:
        return frozenset(self.counts.values())


class _OrderClass(NamedTuple):
    """One class of element orders of PSp4(q): the orders k d, counted
    m_kd = u c w, for (k, u) in scales and d ascending in orders with weight w."""

    scales: tuple[tuple[int, int], ...]
    orders: list[int]
    weights: list[int]
    c: int

    def streams(self) -> list:
        """(order, count) pairs ascending in order, one stream per scale."""
        return [zip(map(k.__mul__, self.orders), map((u * self.c).__mul__, self.weights))
                for k, u in self.scales]

    def values(self) -> frozenset[int]:
        """The distinct counts: each distinct u c times each distinct weight."""
        weights = set(self.weights)
        return frozenset(uc * w for uc in {u * self.c for _, u in self.scales} for w in weights)

    def count_at(self, r: int) -> int:
        """m_r for an order r of a class with one scale (k, u): u c times the weight of r / k."""
        (k, u), = self.scales
        return u * self.c * self.weights[bisect_left(self.orders, r // k)]


def _order_classes(q: int) -> tuple[_OrderClass, ...]:
    """The element orders of PSp4(q) in nine classes, in the order of the A-sets A1..A9.

    Besides 1, 2 and 4, an order is a divisor r > 1 of q-1 or of q+1, its
    double 2r, a product ab of such divisors a | q-1 and b | q+1, or a divisor
    r > 1 of q^2+1.  A weight is phi(r), or phi(r) times a bracket in psi(r);
    gcd(q-1, q+1) = 1, so phi(ab) = phi(a) phi(b).  Each class constant is
    formed once; its fractional coefficient is cleared by one exact division.
    """
    q2, q3, q4, o4 = q * q, q**3, q**4, q**4 - 1
    dm, dp = divisor_phi_psi(q - 1)[1:], divisor_phi_psi(q + 1)[1:]
    (om, phim), (op, phip), (o2p, phi2p) = (
        ([d for d, _, _ in rows], [phi for _, phi, _ in rows])
        for rows in (dm, dp, divisor_phi_psi(q2 + 1)[1:]))

    def bracketed(rows, orders, t, label):
        # phi(r) q^3 (q^2+1)(q+-1) (1 - s/2 + s psi(r)/8) with s = q(q+-1)
        s = q * t
        weights = [phi * (8 - 4 * s + s * psi) for _, phi, psi in rows]
        return _OrderClass(((1, 1),), orders, weights, _exact(q3 * (q2 + 1) * t, 8, label))

    # ab: u = phi(a) over the shorter divisor list, so nse_table merges fewer streams
    (outer, phi_outer), inner = sorted(((om, phim), (op, phip)), key=lambda col: len(col[0]))
    return (
        _OrderClass(((1, 1),), [1], [1], 1),
        _OrderClass(((2, 1),), [1], [1], (q2 + 1) * o4),
        _OrderClass(((4, 1),), [1], [1], q2 * (q2 - 1) * o4),
        bracketed(dm, om, q + 1, "r | q-1"),
        bracketed(dp, op, q - 1, "r | q+1"),
        # 2r with r | q-+1: phi(r) q^3 (q+-1)(q^4-1)
        _OrderClass(((2, 1),), om, phim, q3 * (q + 1) * o4),
        _OrderClass(((2, 1),), op, phip, q3 * (q - 1) * o4),
        # ab: phi(a) phi(b) q^4 (q^4-1)/2
        _OrderClass(tuple(zip(outer, phi_outer)), *inner, _exact(q4 * o4, 2, "mixed divisor of q^2-1")),
        # r | q^2+1: phi(r) q^4 (q^2-1)^2 / 4
        _OrderClass(((1, 1),), o2p, phi2p, _exact(q4 * (q2 - 1) ** 2, 4, "r | q^2+1")),
    )


def nse_table(q: int) -> NseTable:
    """The count m_r of every element order r: the ascending streams of
    _order_classes(q), merged without holding a second copy of the keys."""
    order = group_order(q)
    return NseTable(q, order, dict(merge(*(s for cls in _order_classes(q) for s in cls.streams()))))


def nse_set(q: int) -> frozenset[int]:
    """The set of same-order counts of PSp4(q): the union of each class's
    distinct counts, with no order -> count map built."""
    validate_q(q)
    return frozenset().union(*(cls.values() for cls in _order_classes(q)))


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
