"""Prime graph of a group spectrum, its components, and order components.

Vertices are the primes dividing the group order; two primes are adjacent
exactly when their product divides some element order.  Each connected
component picks up the full prime-power part of the order for its primes,
giving the order components whose product is the group order.  `build_graph`
reads a divisor-closed spectrum; PSp4(q)'s graph is built from the primes of
q-1, q+1 and q^2+1 alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod
from operator import index

from .arith import _integers, is_prime, prime_divisors
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


def build_graph(spec_orders: set[int] | frozenset[int], order: int) -> PrimeGraph:
    """Prime graph from a spectrum and the group order.

    Members and order must be integers (TypeError otherwise).  ValueError
    when the order is below 1, 1 is missing, a member does not divide the
    order, a composite member lacks its quotient by its least prime (the set
    is not divisor-closed), or a prime of the order is no member (a spectrum
    holds them all, by Cauchy).
    """
    members = sorted(_integers(spec_orders))
    order = index(order)
    if order < 1:
        raise ValueError(f"the order {order} is not positive")
    if 1 not in members:
        raise ValueError("spectrum must contain 1")
    for s in members:
        if s < 1 or order % s:
            raise ValueError(f"spectrum member {s} does not divide the order {order}")
    # take the members smallest first, each with its primes as a bitmask.  The
    # primes of a member s are its least prime p and those of s // p, a smaller
    # member already walked when the set is divisor-closed, and p gains the
    # edges to the primes of s // p.  A member that no known prime divides must
    # be a new prime; a composite one has no member quotient (s // 1 is s).
    known: list[int] = []
    bits: dict[int, int] = {}
    joined: dict[int, int] = {}
    masks = {1: 0}
    for s in members[1:]:
        for p in known:
            if s % p == 0:
                break
        else:
            p = 1
            if is_prime(s):
                # members come in ascending order, so s exceeds every known prime
                p, bits[s], joined[s] = s, 1 << len(known), 0
                known.append(s)
        rest = masks.get(s // p)
        if rest is None:
            raise ValueError(f"spectrum member {s} is composite and its quotient by its "
                             "least prime is missing: the set is not divisor-closed")
        masks[s] = rest | bits[p]
        joined[p] |= rest
    # p is the least prime of each member s it joined to s // p: it joins larger primes
    edges = set()
    for p, mask in joined.items():
        mask &= ~bits[p]
        while mask:
            edges.add((p, known[(mask & -mask).bit_length() - 1]))
            mask &= mask - 1
    return _graph(order, known, edges)


def prime_graph(q: int) -> PrimeGraph:
    """The prime graph of PSp4(q), q even, as four cliques: {2} u pi(q-1),
    {2} u pi(q+1), pi(q-1) u pi(q+1) and pi(q^2+1) (Vasil'ev and Vdovin,
    Algebra and Logic 44, 2005).  Only q-1, q+1 and q^2+1 are factored."""
    order = group_order(q)
    below, above, odd = (prime_divisors(n) for n in (q - 1, q + 1, q * q + 1))
    edges = set()
    for clique in ((2, *below), (2, *above), below + above, odd):
        edges.update(combinations(sorted(clique), 2))
    return _graph(order, sorted({2, *below, *above, *odd}), edges)


def _graph(order: int, primes: list[int], edges: set[tuple[int, int]]) -> PrimeGraph:
    """The graph on the ascending primes of order, its components (2's first,
    the rest by smallest prime) and order components; ValueError when the
    primes leave a cofactor of order above 1."""
    fac = {}
    cofactor = order
    for p in primes:
        e = 0
        while cofactor % p == 0:
            cofactor //= p
            e += 1
        fac[p] = e
    if cofactor > 1:
        raise ValueError(f"the order {order} has a prime outside the spectrum "
                         f"(cofactor {cofactor})")
    # merge the vertex sets of each edge's ends; every vertex maps to its set
    comp_of = {p: {p} for p in primes}
    for a, b in edges:
        if comp_of[a] is not comp_of[b]:
            merged = comp_of[a] | comp_of[b]
            for v in merged:
                comp_of[v] = merged
    comps = sorted({tuple(sorted(c)) for c in comp_of.values()}, key=lambda c: (2 not in c, c[0]))
    oc = tuple(prod(p ** fac[p] for p in comp) for comp in comps)
    return PrimeGraph(tuple(primes), tuple(sorted(edges)), tuple(comps), oc)


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
