import hashlib
import json
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psp4nse.arith import factorize, prime_divisors
from psp4nse import arith, primegraph
from psp4nse.primegraph import build_graph, graph_json, prime_graph, separation_check
from psp4nse.sympl import group_order, spectrum
from reference import component_count


def test_graph_q4():
    g = build_graph(set(spectrum(4)), group_order(4))
    assert g.components == ((2, 3, 5), (17,))
    assert g.order_components == (57600, 17)
    assert 57600 * 17 == group_order(4)


def test_graph_q8():
    g = build_graph(set(spectrum(8)), group_order(8))
    assert g.components == ((2, 3, 7), (5, 13))
    assert (5, 13) in g.edges
    assert g.order_components[0] * g.order_components[1] == group_order(8)
    assert g.order_components[1] == 65


def test_graph_q16():
    g = build_graph(set(spectrum(16)), group_order(16))
    assert g.components == ((2, 3, 5, 17), (257,))


def test_trivial_graph():
    g = build_graph({1}, 1)
    assert g.vertices == ()
    assert g.components == ()
    assert component_count(g) == 0


def test_single_vertex():
    g = build_graph({1, 2}, 4)
    assert component_count(g) == 1
    assert g.order_components == (4,)


def test_rejects_bad_spectrum():
    with pytest.raises(ValueError):
        build_graph({1, 7}, 10)
    with pytest.raises(ValueError):
        build_graph({2, 5}, 10)  # missing 1
    with pytest.raises(ValueError, match="order 0"):
        build_graph({1, 2}, 0)  # every member divides 0; dividing 2 out of 0 never ends


@pytest.mark.parametrize("spec, order, named", [
    ({1, 2, 3, 5, 30}, 30, "member 30"),  # 30's quotient 15 by its least prime is missing
    ({1, 2, 3, 6}, 30, "order 30"),  # 5 divides the order and is no member
    ({1, 2}, 6, "order 6"),
    ({1}, 2, "order 2"),
])
def test_build_graph_rejects_a_set_that_is_no_spectrum(spec, order, named):
    with pytest.raises(ValueError, match=named):
        build_graph(spec, order)


def test_two_components_all_f():
    for f in range(2, 13):
        q = 1 << f
        g = build_graph(set(spectrum(q)), group_order(q))
        assert component_count(g) == 2
        # components are {2} u pi(q^2-1) and pi(q^2+1)
        even_side = {2} | set(prime_divisors(q * q - 1))
        odd_side = set(prime_divisors(q * q + 1))
        assert set(g.components[0]) == even_side
        assert set(g.components[1]) == odd_side
        assert g.order_components[1] == q * q + 1
        assert separation_check(q)


def test_nonadjacency_across_components():
    for f in (2, 3, 4, 5):
        q = 1 << f
        g = build_graph(set(spectrum(q)), group_order(q))
        odd = set(prime_divisors(q * q + 1))
        even = set(prime_divisors(2 * (q * q - 1)))
        for a, b in g.edges:
            assert not ({a, b} & odd and {a, b} & even)


def test_graph_json():
    g = build_graph(set(spectrum(4)), group_order(4))
    obj = graph_json(g)
    assert obj["vertices"] == ["2", "3", "5", "17"]
    assert obj["order_components"] == ["57600", "17"]
    assert ["2", "3"] in obj["edges"]


@pytest.mark.parametrize("f", [*range(2, 10), 32, 40, 48])
def test_graph_matches_recorded_digest(f, goldens):
    q = 1 << f
    text = json.dumps(graph_json(build_graph(set(spectrum(q)), group_order(q))), indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == goldens[f"graph/f{f}"]


@pytest.mark.parametrize("f", range(2, 64))
def test_prime_graph_equals_the_full_spectrum_graph(f):
    # the four cliques are the graph of the whole spectrum
    q = 1 << f
    assert graph_json(prime_graph(q)) == graph_json(build_graph(set(spectrum(q)), group_order(q)))


def _graph_by_factoring_members(spec_orders, exponents):
    """The graph of the members of a set of divisors of prod(p**e) for a
    {p: e}: factor every member over those primes, union once per pair per
    member."""
    vertices = tuple(sorted(exponents))
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    edges = set()
    for member in spec_orders:
        ps = [p for p in vertices if member % p == 0]
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                edges.add((ps[i], ps[j]))
                parent[find(ps[i])] = find(ps[j])
    groups = {}
    for v in vertices:
        groups.setdefault(find(v), []).append(v)
    comps = sorted(tuple(sorted(g)) for g in groups.values())
    comps.sort(key=lambda c: (2 not in c, c[0]))
    oc = tuple(prod(p**exponents[p] for p in comp) for comp in comps)
    return vertices, tuple(sorted(edges)), tuple(comps), oc


_PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 31, 257, 641, 65537, 6700417, 4278255361)


def _divisors(exponents):
    """The divisors of prod(p**e) for a {p: e} of distinct primes, unfactored."""
    return [prod(p**k for p, k in zip(exponents, ks))
            for ks in product(*(range(e + 1) for e in exponents.values()))]


@settings(max_examples=200)
@given(
    st.lists(st.tuples(st.sampled_from(_PRIME_POOL), st.integers(1, 3)), max_size=6),
    st.data(),
)
def test_build_graph_equals_factoring_every_member(prime_powers, data):
    # the walk reads each composite member's primes from its quotient by its
    # least prime, which a divisor-closed set holds.  A set lacking such a quotient,
    # or a prime of the order, raises; any other set gets its members' graph.
    # Members are factored over the drawn primes, with no call of factorize.
    exponents = dict(prime_powers)
    primes = sorted(exponents)
    order = prod(p**e for p, e in exponents.items())
    chosen = data.draw(st.sets(st.sampled_from(_divisors(exponents)), max_size=40))
    spec = {1} | chosen
    least = {s: next(p for p in primes if s % p == 0) for s in chosen - {1}}
    if not (set(primes) <= spec and all(s // p in spec for s, p in least.items())):
        with pytest.raises(ValueError):
            build_graph(spec, order)
        return
    g = build_graph(spec, order)
    assert (g.vertices, g.edges, g.components, g.order_components) == \
        _graph_by_factoring_members(spec, exponents)


# at most 4^4 members
@settings(max_examples=100)
@given(
    st.lists(st.tuples(st.sampled_from(_PRIME_POOL), st.integers(1, 3)), max_size=4),
    st.data(),
)
def test_build_graph_equals_factoring_every_member_of_a_divisor_closed_set(prime_powers, data):
    exponents = dict(prime_powers)
    order = prod(p**e for p, e in exponents.items())
    # a spectrum holds every prime of the order (Cauchy)
    chosen = data.draw(st.sets(st.sampled_from(_divisors(exponents)), max_size=8)) | exponents.keys()
    spec = {d for d in _divisors(exponents) if any(c % d == 0 for c in chosen)} | {1}
    g = build_graph(spec, order)
    assert (g.vertices, g.edges, g.components, g.order_components) == \
        _graph_by_factoring_members(spec, exponents)


def test_build_graph_divides_no_member_of_the_spectrum_by_every_known_prime(monkeypatch):
    # in a divisor-closed spectrum each member but the primes takes its primes
    # from its quotient by its least prime, and is divided by the known primes
    # only up to that one; only the primes meet is_prime
    q = 1 << 48
    spec = set(spectrum(q))
    tested = []
    is_prime = primegraph.is_prime

    def testing(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(primegraph, "is_prime", testing)
    g = build_graph(spec, group_order(q))
    assert tested == list(g.vertices) and len(g.vertices) == 16


def test_build_graph_reads_a_set_whose_every_member_has_its_least_prime_quotient():
    # 12 reads its primes from 6 = 12 // 2: the walk cannot see that 4 is
    # missing, and the graph is still the members' graph
    assert build_graph({1, 2, 3, 6, 12}, 12) == build_graph({1, 2, 3, 4, 6, 12}, 12)


@pytest.mark.parametrize("spec, order", [({1, 6.0}, 12), ({1, 6}, 12.0), ({1, "6"}, 12),
                                         ({True, 2, 3, 6}, 12)])
def test_build_graph_rejects_non_integers(spec, order):
    # floats once came back as the vertex 3.0 and the order component 12.0,
    # and True once stood in for the member 1
    with pytest.raises(TypeError):
        build_graph(spec, order)


def test_build_graph_takes_numpy_integers_as_ints():
    g = build_graph({1, np.int64(2), np.int64(3), np.int64(6)}, np.int64(12))
    assert g == build_graph({1, 2, 3, 6}, 12)
    assert all(type(v) is int for v in (*g.vertices, *g.order_components))


def test_build_graph_factors_no_new_number_above_2_64(monkeypatch):
    # from a cold cache, prime_graph factors q-1, q+1 and q^2+1 and nothing
    # else; spectrum factors the same three, and build_graph settles each new
    # prime member with is_prime, so those primes leave the order no cofactor
    q = 1 << 40
    factorize.cache_clear()
    spectrum.cache_clear()
    missed = []

    def counting(n):
        before = factorize.cache_info().misses
        result = factorize(n)
        if factorize.cache_info().misses > before:
            missed.append(n)
        return result

    # prime_divisors reaches factorize through the arith module
    monkeypatch.setattr(arith, "factorize", counting)
    prime_graph(q)
    assert sorted(missed) == [q - 1, q + 1, q * q + 1]
    spec = set(spectrum(q))
    missed.clear()
    g = build_graph(spec, group_order(q))
    assert missed == []
    assert g.order_components == (group_order(q) // (q * q + 1), q * q + 1)
