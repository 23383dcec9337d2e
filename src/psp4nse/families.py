"""Order formulas and prime-graph component data for the finite simple groups.

The characterization pipeline tests candidate simple sections against the
order q^4(q^4-1)(q^2-1) and the odd order component q^2+1.  This module holds
the standard order polynomials for the classical and exceptional families and
the odd-order-component tables for the sporadic groups and the Tits group, as
recorded in the Kondrat'ev-Williams classification of simple groups with
disconnected prime graph.  The embedded data is validated by tests: every odd
component is an odd prime power dividing its group's order and coprime to the
complementary factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

__all__ = [
    "SimpleGroupData",
    "SPORADIC_GROUPS",
    "TITS_GROUP",
    "E_GROUP_CASES",
    "psl_order",
    "psu_order",
    "psp_order",
    "pomega_plus_order",
    "pomega_minus_order",
    "order_2B2",
    "order_G2",
    "order_3D4",
    "order_2G2",
    "order_F4",
    "order_2F4",
    "order_E6",
    "order_2E6",
    "order_E7",
    "order_E8",
]


def psl_order(n: int, q: int) -> int:
    """|PSL_n(q)|."""
    v = q ** (n * (n - 1) // 2) * prod(q**i - 1 for i in range(2, n + 1))
    return v // gcd(n, q - 1)


def psu_order(n: int, q: int) -> int:
    """|PSU_n(q)|."""
    v = q ** (n * (n - 1) // 2) * prod(q**i - (-1) ** i for i in range(2, n + 1))
    return v // gcd(n, q + 1)


def psp_order(n: int, q: int) -> int:
    """|PSp_2n(q)|."""
    v = q ** (n * n) * prod(q ** (2 * i) - 1 for i in range(1, n + 1))
    return v // gcd(2, q - 1)


def pomega_plus_order(m: int, q: int) -> int:
    """|POmega+_{2m}(q)|."""
    v = q ** (m * (m - 1)) * (q**m - 1) * prod(q ** (2 * i) - 1 for i in range(1, m))
    return v // gcd(4, q**m - 1)


def pomega_minus_order(m: int, q: int) -> int:
    """|POmega-_{2m}(q)|."""
    v = q ** (m * (m - 1)) * (q**m + 1) * prod(q ** (2 * i) - 1 for i in range(1, m))
    return v // gcd(4, q**m + 1)


def order_2B2(q: int) -> int:
    return q * q * (q * q + 1) * (q - 1)


def order_G2(q: int) -> int:
    return q**6 * (q**6 - 1) * (q**2 - 1)


def order_3D4(q: int) -> int:
    return q**12 * (q**8 + q**4 + 1) * (q**6 - 1) * (q**2 - 1)


def order_2G2(q: int) -> int:
    return q**3 * (q**3 + 1) * (q - 1)


def order_F4(q: int) -> int:
    return q**24 * (q**12 - 1) * (q**8 - 1) * (q**6 - 1) * (q**2 - 1)


def order_2F4(q: int) -> int:
    return q**12 * (q**6 + 1) * (q**4 - 1) * (q**3 + 1) * (q - 1)


def order_E6(q: int) -> int:
    v = (
        q**36
        * (q**12 - 1)
        * (q**9 - 1)
        * (q**8 - 1)
        * (q**6 - 1)
        * (q**5 - 1)
        * (q**2 - 1)
    )
    return v // gcd(3, q - 1)


def order_2E6(q: int) -> int:
    v = (
        q**36
        * (q**12 - 1)
        * (q**9 + 1)
        * (q**8 - 1)
        * (q**6 - 1)
        * (q**5 + 1)
        * (q**2 - 1)
    )
    return v // gcd(3, q + 1)


def order_E7(q: int) -> int:
    v = (
        q**63
        * (q**18 - 1)
        * (q**14 - 1)
        * (q**12 - 1)
        * (q**10 - 1)
        * (q**8 - 1)
        * (q**6 - 1)
        * (q**2 - 1)
    )
    return v // gcd(2, q - 1)


def order_E8(q: int) -> int:
    return (
        q**120
        * (q**30 - 1)
        * (q**24 - 1)
        * (q**20 - 1)
        * (q**18 - 1)
        * (q**14 - 1)
        * (q**12 - 1)
        * (q**8 - 1)
        * (q**2 - 1)
    )


@dataclass(frozen=True)
class SimpleGroupData:
    """A fixed simple group: name, factored order, and its odd order components."""

    name: str
    factors: tuple[tuple[int, int], ...]
    odd_components: tuple[int, ...]

    @property
    def order(self) -> int:
        return prod(p**e for p, e in self.factors)


SPORADIC_GROUPS: tuple[SimpleGroupData, ...] = (
    SimpleGroupData("M11", ((2, 4), (3, 2), (5, 1), (11, 1)), (5, 11)),
    SimpleGroupData("M12", ((2, 6), (3, 3), (5, 1), (11, 1)), (11,)),
    SimpleGroupData("M22", ((2, 7), (3, 2), (5, 1), (7, 1), (11, 1)), (5, 7, 11)),
    SimpleGroupData("M23", ((2, 7), (3, 2), (5, 1), (7, 1), (11, 1), (23, 1)), (11, 23)),
    SimpleGroupData(
        "M24", ((2, 10), (3, 3), (5, 1), (7, 1), (11, 1), (23, 1)), (11, 23)
    ),
    SimpleGroupData("J1", ((2, 3), (3, 1), (5, 1), (7, 1), (11, 1), (19, 1)), (7, 11, 19)),
    SimpleGroupData("J2", ((2, 7), (3, 3), (5, 2), (7, 1)), (7,)),
    SimpleGroupData("J3", ((2, 7), (3, 5), (5, 1), (17, 1), (19, 1)), (17, 19)),
    SimpleGroupData(
        "J4",
        ((2, 21), (3, 3), (5, 1), (7, 1), (11, 3), (23, 1), (29, 1), (31, 1), (37, 1), (43, 1)),
        (23, 29, 31, 37, 43),
    ),
    SimpleGroupData(
        "Co1", ((2, 21), (3, 9), (5, 4), (7, 2), (11, 1), (13, 1), (23, 1)), (23,)
    ),
    SimpleGroupData("Co2", ((2, 18), (3, 6), (5, 3), (7, 1), (11, 1), (23, 1)), (11, 23)),
    SimpleGroupData("Co3", ((2, 10), (3, 7), (5, 3), (7, 1), (11, 1), (23, 1)), (23,)),
    SimpleGroupData("Fi22", ((2, 17), (3, 9), (5, 2), (7, 1), (11, 1), (13, 1)), (13,)),
    SimpleGroupData(
        "Fi23",
        ((2, 18), (3, 13), (5, 2), (7, 1), (11, 1), (13, 1), (17, 1), (23, 1)),
        (17, 23),
    ),
    SimpleGroupData(
        "Fi24'",
        ((2, 21), (3, 16), (5, 2), (7, 3), (11, 1), (13, 1), (17, 1), (23, 1), (29, 1)),
        (17, 23, 29),
    ),
    SimpleGroupData("HS", ((2, 9), (3, 2), (5, 3), (7, 1), (11, 1)), (7, 11)),
    SimpleGroupData("McL", ((2, 7), (3, 6), (5, 3), (7, 1), (11, 1)), (11,)),
    SimpleGroupData("He", ((2, 10), (3, 3), (5, 2), (7, 3), (17, 1)), (17,)),
    SimpleGroupData("Ru", ((2, 14), (3, 3), (5, 3), (7, 1), (13, 1), (29, 1)), (29,)),
    SimpleGroupData(
        "Suz", ((2, 13), (3, 7), (5, 2), (7, 1), (11, 1), (13, 1)), (11, 13)
    ),
    SimpleGroupData(
        "ON", ((2, 9), (3, 4), (5, 1), (7, 3), (11, 1), (19, 1), (31, 1)), (11, 19, 31)
    ),
    SimpleGroupData("HN", ((2, 14), (3, 6), (5, 6), (7, 1), (11, 1), (19, 1)), (19,)),
    SimpleGroupData(
        "Ly", ((2, 8), (3, 7), (5, 6), (7, 1), (11, 1), (31, 1), (37, 1), (67, 1)), (31, 37, 67)
    ),
    SimpleGroupData(
        "Th", ((2, 15), (3, 10), (5, 3), (7, 2), (13, 1), (19, 1), (31, 1)), (19, 31)
    ),
    SimpleGroupData(
        "B",
        (
            (2, 41), (3, 13), (5, 6), (7, 2), (11, 1), (13, 1), (17, 1), (19, 1),
            (23, 1), (31, 1), (47, 1),
        ),
        (31, 47),
    ),
    SimpleGroupData(
        "M",
        (
            (2, 46), (3, 20), (5, 9), (7, 6), (11, 2), (13, 3), (17, 1), (19, 1),
            (23, 1), (29, 1), (31, 1), (41, 1), (47, 1), (59, 1), (71, 1),
        ),
        (41, 59, 71),
    ),
)

TITS_GROUP = SimpleGroupData("2F4(2)'", ((2, 11), (3, 3), (5, 2), (13, 1)), (13,))

# The three fixed exceptional groups whose candidate odd-component values are a
# finite list (the base components and all products of distinct ones).
E_GROUP_CASES: tuple[tuple[str, int, tuple[int, ...]], ...] = (
    ("2E6(2)", order_2E6(2), (13, 17, 19, 13 * 17, 13 * 19, 17 * 19, 13 * 17 * 19)),
    ("E7(2)", order_E7(2), (73, 127, 73 * 127)),
    ("E7(3)", order_E7(3), (757, 1093, 757 * 1093)),
)
