"""Prime graph of a group spectrum, its components, and order components.

Vertices are the primes dividing the group order; two primes are adjacent
exactly when their product divides some element order.  Each connected
component picks up the full prime-power part of the order for its primes,
giving the order components whose product is the group order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .arith import factorize, prime_divisors
from .sympl import group_order, spectrum

__all__ = ["PrimeGraph", "build_graph", "component_count", "separation_check", "graph_json"]


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


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def build_graph(spec_orders: set[int] | frozenset[int], order: int) -> PrimeGraph:
    """Prime graph from a spectrum and the group order.

    The component containing 2 (when present) is listed first; the rest are
    ordered by smallest prime.  Order components are assembled by routing each
    prime power of the order's factorization to its prime's component.
    """
    if 1 not in spec_orders:
        raise ValueError("spectrum must contain 1")
    for s in spec_orders:
        if s < 1 or order % s:
            raise ValueError(f"spectrum member {s} does not divide the order {order}")
    # every prime of a member divides the order; take the members largest
    # first and factor only what the primes found so far leave of each
    known: list[int] = []
    supports = set()
    for member in sorted(spec_orders, reverse=True):
        support = [p for p in known if member % p == 0]
        rest = member
        for p in support:
            while rest % p == 0:
                rest //= p
        if rest > 1:
            found = factorize(rest).primes
            known.extend(found)
            support.extend(found)
        supports.add(tuple(sorted(support)))
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
    edges = {edge for ps in supports for edge in combinations(ps, 2)}
    uf = _UnionFind(vertices)
    for a, b in edges:
        uf.union(a, b)
    groups: dict[int, list[int]] = {}
    for v in vertices:
        groups.setdefault(uf.find(v), []).append(v)
    comps = sorted((tuple(sorted(g)) for g in groups.values()), key=lambda c: c[0])
    comps.sort(key=lambda c: (2 not in c, c[0]))
    oc = []
    for comp in comps:
        part = 1
        for p in comp:
            part *= p ** fac[p]
        oc.append(part)
    return PrimeGraph(vertices, tuple(sorted(edges)), tuple(comps), tuple(oc))


def component_count(graph: PrimeGraph) -> int:
    return len(graph.components)


def separation_check(q: int) -> bool:
    """True iff pi(q^2+1) and pi(2(q^2-1)) fall in distinct components for PSp4(q)."""
    graph = build_graph(set(spectrum(q)), group_order(q))
    odd_side = {graph.component_of(p) for p in prime_divisors(q * q + 1)}
    even_side = {graph.component_of(p) for p in prime_divisors(2 * (q * q - 1))}
    return not (odd_side & even_side)


def graph_json(graph: PrimeGraph) -> dict:
    """JSON-ready form with all integers as decimal strings."""
    return {
        "vertices": [str(v) for v in graph.vertices],
        "edges": [[str(a), str(b)] for a, b in graph.edges],
        "components": [[str(v) for v in comp] for comp in graph.components],
        "order_components": [str(n) for n in graph.order_components],
    }
