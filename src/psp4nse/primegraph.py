"""Prime graph of a group spectrum, its components, and order components.

Vertices are the primes dividing the group order; two primes are adjacent
exactly when their product divides some element order.  Each connected
component picks up the full prime-power part of the order for its primes,
giving the order components whose product is the group order.  In a
divisor-closed spectrum two primes are adjacent exactly when their product
divides a maximal element order, so PSp4(q)'s graph is built from those.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import combinations
from operator import index

from .arith import _integers, factorize, is_prime, prime_divisors
from .sympl import group_order

__all__ = ["PrimeGraph", "build_graph", "prime_graph", "separation_check", "graph_json"]


@dataclass(frozen=True)
class PrimeGraph:
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]
    order_components: tuple[int, ...]

    def component_of(self, p: int) -> tuple[int, ...]:
        for comp in self.components:
            if p in comp:
                return comp
        raise KeyError(f"{p} is not a vertex")


def _primes_by_division(member: int, known: list[int]) -> list[int]:
    """The primes of a composite member: the known ones by division, the
    cofactor left factored (the member itself without a primality test)."""
    primes = [p for p in known if member % p == 0]
    rest = member
    for p in primes:
        while rest % p == 0:
            rest //= p
    if rest > 1:
        primes.extend((rest,) if rest < member and is_prime(rest) else factorize(rest).primes)
    return sorted(primes)


def build_graph(spec_orders: set[int] | frozenset[int], order: int) -> PrimeGraph:
    """Prime graph from a spectrum and the group order.

    The component containing 2 (when present) is listed first; the rest are
    ordered by smallest prime.  Order components are assembled by routing each
    prime power of the order's factorization to its prime's component.
    Members and order must be integers (TypeError otherwise).
    """
    members = sorted(_integers(spec_orders))
    order = index(order)
    if 1 not in members:
        raise ValueError("spectrum must contain 1")
    for s in members:
        if s < 1 or order % s:
            raise ValueError(f"spectrum member {s} does not divide the order {order}")
    # take the members smallest first, each with its primes as a bitmask and
    # its least prime.  As in Euler's sieve, a member s marks p s for each
    # known prime p up to its least one, so a member whose quotient by its
    # least prime is a member (every member but the primes, in a
    # divisor-closed spectrum) arrives marked with its primes, and p gains
    # the edges to the primes of s.  An unmarked member is a new prime, or,
    # only in a set that is not divisor-closed, divided by every known prime.
    # A mark is held only until the walk reaches its member.
    top = members[-1]
    member_set = set(members)
    marks = {1: (0, 0)}
    known: list[int] = []
    bits: dict[int, int] = {}
    joined: dict[int, int] = {}
    edges = set()
    for s in members:
        mark = marks.pop(s, None)
        if mark is None:
            support = [s] if is_prime(s) else _primes_by_division(s, known)
            mask = 0
            for p in support:
                if p not in bits:
                    bits[p], joined[p] = 1 << len(bits), 0
                    insort(known, p)
                mask |= bits[p]
            edges.update(combinations(support, 2))
            mark = (mask, support[0])
        mask, least = mark
        for p in known:
            t = p * s
            if p > least or t > top:
                break
            if t in member_set:
                marks[t] = (mask | bits[p], p)
                joined[p] |= mask
    # the order's exponents by division; only the cofactor left needs factoring
    fac = {}
    cofactor = order
    for p in known:
        e = 0
        while cofactor % p == 0:
            cofactor //= p
            e += 1
        fac[p] = e
    if cofactor > 1:
        fac.update(factorize(cofactor))
    vertices = tuple(sorted(fac))
    # p is the least prime of each member it marked, so it joins only larger primes
    prime_of_bit = sorted(bits, key=bits.get)
    for p, mask in joined.items():
        mask &= ~bits[p]
        while mask:
            edges.add((p, prime_of_bit[(mask & -mask).bit_length() - 1]))
            mask &= mask - 1
    # merge the vertex sets of each edge's ends; every vertex maps to its set
    comp_of = {v: {v} for v in vertices}
    for a, b in edges:
        if comp_of[a] is not comp_of[b]:
            merged = comp_of[a] | comp_of[b]
            for v in merged:
                comp_of[v] = merged
    comps = sorted({tuple(sorted(c)) for c in comp_of.values()}, key=lambda c: (2 not in c, c[0]))
    oc = []
    for comp in comps:
        part = 1
        for p in comp:
            part *= p ** fac[p]
        oc.append(part)
    return PrimeGraph(vertices, tuple(sorted(edges)), tuple(comps), tuple(oc))


def prime_graph(q: int) -> PrimeGraph:
    """The prime graph of PSp4(q) from the maximal element orders 4, 2(q-+1),
    q^2-1 and q^2+1 (Vasil'ev and Vdovin, Algebra and Logic 44, 2005).  1 is
    required by build_graph; with 2 known first, 4 is never factored."""
    return build_graph({1, 2, 4, 2 * (q - 1), 2 * (q + 1), q * q - 1, q * q + 1}, group_order(q))


def separation_check(q: int) -> bool:
    """True iff pi(q^2+1) and pi(2(q^2-1)) fall in distinct components for PSp4(q)."""
    graph = prime_graph(q)
    odd_side = {graph.component_of(p) for p in prime_divisors(q * q + 1)}
    # pi(2(q^2-1)) = {2} u pi(q-1) u pi(q+1)
    even = (2, *prime_divisors(q - 1), *prime_divisors(q + 1))
    even_side = {graph.component_of(p) for p in even}
    return not (odd_side & even_side)


def graph_json(graph: PrimeGraph) -> dict:
    """JSON-ready form with all integers as decimal strings."""
    return {
        "vertices": [str(v) for v in graph.vertices],
        "edges": [[str(a), str(b)] for a, b in graph.edges],
        "components": [[str(v) for v in comp] for comp in graph.components],
        "order_components": [str(n) for n in graph.order_components],
    }
