import hashlib
import json
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psp4nse.arith import divisors, factorize, prime_divisors
from psp4nse import arith, primegraph
from psp4nse.primegraph import build_graph, graph_json, separation_check
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


def _graph_by_factoring_members(spec_orders, order):
    """The earlier build_graph: factor every member, union once per pair per member."""
    vertices = tuple(prime_divisors(order))
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    edges = set()
    for member in spec_orders:
        ps = prime_divisors(member)
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                edges.add((ps[i], ps[j]))
                parent[find(ps[i])] = find(ps[j])
    groups = {}
    for v in vertices:
        groups.setdefault(find(v), []).append(v)
    comps = sorted(tuple(sorted(g)) for g in groups.values())
    comps.sort(key=lambda c: (2 not in c, c[0]))
    fac = factorize(order)
    oc = tuple(prod(p**e for p, e in fac if p in comp) for comp in comps)
    return vertices, tuple(sorted(edges)), tuple(comps), oc


_PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 31, 257, 641, 65537, 6700417, 4278255361)


@settings(max_examples=200)
@given(
    st.lists(st.tuples(st.sampled_from(_PRIME_POOL), st.integers(1, 3)), max_size=6),
    st.data(),
)
def test_build_graph_equals_factoring_every_member(prime_powers, data):
    order = prod(p**e for p, e in dict(prime_powers).items())
    chosen = data.draw(st.sets(st.sampled_from(divisors(order)), max_size=40))
    spec = {1} | chosen
    g = build_graph(spec, order)
    assert (g.vertices, g.edges, g.components, g.order_components) == \
        _graph_by_factoring_members(spec, order)


def test_build_graph_factors_no_new_number_above_2_64(monkeypatch):
    # spectrum has factored q-1, q+1 and q^2+1; build_graph settles each new
    # prime member with is_prime, and those primes leave the order no cofactor
    q = 1 << 40
    spectrum.cache_clear()
    spec = set(spectrum(q))
    missed = []

    def counting(n):
        before = factorize.cache_info().misses
        result = factorize(n)
        if factorize.cache_info().misses > before:
            missed.append(n)
        return result

    # prime_divisors reaches factorize through the arith module
    monkeypatch.setattr(arith, "factorize", counting)
    monkeypatch.setattr(primegraph, "factorize", counting)
    g = build_graph(spec, group_order(q))
    assert [n for n in missed if n >= 2**64] == []
    assert g.order_components == (group_order(q) // (q * q + 1), q * q + 1)
