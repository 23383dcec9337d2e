import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psp4nse.arith import coprime_part, divisors
from psp4nse.gf2 import FieldSpec
from psp4nse.oracle import (
    CapacityExceeded,
    Mat4,
    PermGroupSpec,
    _keys,
    _kmul,
    _pack,
    _unpack,
    enumerate_group,
    order_histogram,
    perm_group_elements,
    perm_nse,
    sp4_generators,
    z3_times_z7_z4,
    z4_times_z7_z3,
)
from psp4nse.sympl import nse_table


def test_generator_shapes():
    gens = sp4_generators(4)
    assert len(gens) == 8
    w_b = gens[7]
    assert [w_b.entries[4 * r : 4 * r + 4] for r in range(4)] == [
        (1, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 1),
    ]
    x_2ab = gens[3]
    ident = Mat4.identity(x_2ab.spec)
    assert x_2ab[0, 3] == 1
    diff = [i for i in range(16) if x_2ab.entries[i] != ident.entries[i]]
    assert diff == [3]
    assert all(m.is_symplectic() for m in gens)


def test_generators_reject_bad_q():
    for bad in (2, 3, 5, 12):
        with pytest.raises(ValueError):
            sp4_generators(bad)


def test_h11_is_identity():
    spec = FieldSpec.for_degree(2)
    h = Mat4.from_rows(spec, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert h == Mat4.identity(spec)


def test_mat4_scalar_ops():
    spec = FieldSpec.for_degree(2)
    gens = sp4_generators(4)
    m = gens[0].mul(gens[7])
    assert m.spec == spec
    assert gens[0].transpose().transpose() == gens[0]
    ident = Mat4.identity(spec)
    assert ident.mul(ident) == ident
    assert gens[3] != ident
    assert gens[3].mul(gens[3]) == ident  # transvection in characteristic 2


def test_enumerate_trivial():
    spec = FieldSpec.for_degree(2)
    group = enumerate_group([Mat4.identity(spec)], cap=10)
    assert len(group) == 1
    hist = order_histogram(group)
    assert hist.counts == {1: 1}


def test_enumerate_small_subgroup():
    # the two torus generators alone close into a group of order (q-1)^2
    gens = sp4_generators(4)
    torus = enumerate_group([gens[4], gens[5]], cap=100)
    assert len(torus) == 9


def test_enumeration_capacity_error():
    with pytest.raises(CapacityExceeded):
        enumerate_group(sp4_generators(4), cap=10**5)


def test_enumeration_rejects_keys_over_64_bits():
    with pytest.raises(ValueError, match="64 bits"):
        enumerate_group([Mat4.identity(FieldSpec.for_degree(5))], cap=10)


def _word(q, word):
    gens = sp4_generators(q)
    m = Mat4.identity(gens[0].spec)
    for i in word:
        m = m.mul(gens[i])
    return m


_words = st.lists(st.integers(0, 7), max_size=12)


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([4, 8, 16]), pairs=st.lists(st.tuples(_words, _words), min_size=1,
                                                       max_size=4))
def test_kmul_matches_scalar_mul(q, pairs):
    a = [_word(q, left) for left, _ in pairs]
    b = [_word(q, right) for _, right in pairs]
    spec = a[0].spec
    ka, kb = _keys(spec, a), _keys(spec, b)
    want = [x.mul(y).packed() for x, y in zip(a, b)]
    assert _kmul(spec, ka, kb).tolist() == want
    assert _kmul(spec, ka, kb[0]).tolist() == [x.mul(b[0]).packed() for x in a]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), f=st.integers(2, 4))
def test_key_unpack_repack_round_trip(data, f):
    spec = FieldSpec.for_degree(f)
    keys = data.draw(st.lists(st.integers(0, (1 << (16 * f)) - 1), min_size=1, max_size=8))
    arr = np.array(keys, dtype=np.uint64)
    entries = _unpack(spec, arr)
    assert _pack(spec, entries).tolist() == keys
    assert [Mat4(spec, tuple(row.tolist())).packed() for row in entries] == keys


@settings(max_examples=200, deadline=None)
@given(index=st.integers(0, 979199), pos=st.integers(0, 15), delta=st.integers(0, 3))
def test_sp44_membership_is_symplecticity(sp44, index, pos, delta):
    # an element of the group with one entry xored by delta (0 keeps it)
    entries = _unpack(sp44.spec, sp44.keys[index : index + 1])[0].tolist()
    entries[pos] ^= delta
    m = Mat4(sp44.spec, tuple(entries))
    assert (m in sp44) == m.is_symplectic()


def test_sp44_full_enumeration(sp44):
    assert len(sp44) == 979200
    assert sp44.all_symplectic()
    gens = sp4_generators(4)
    assert all(g in sp44 for g in gens)


def test_sp44_histogram_matches_closed_form(sp44_hist):
    assert dict(sp44_hist.counts) == nse_table(4).counts
    assert sp44_hist.total() == 979200


def test_sp44_orders_divide_five_numbers(sp44_hist):
    q = 4
    five = (4, 2 * (q - 1), 2 * (q + 1), q * q - 1, q * q + 1)
    for order in sp44_hist.counts:
        assert any(n % order == 0 for n in five)


def test_sp44_frobenius_divisibility(sp44_hist):
    # n divides |G_n| for every n dividing |G|
    for n in divisors(979200):
        assert sp44_hist.power_count(n) % n == 0


def test_sp44_weisner_multiples(sp44_hist):
    # elements of order a multiple of n: zero or a multiple of the largest
    # divisor of |G| coprime to n
    go = 979200
    for n in divisors(go):
        total = sum(c for d, c in sp44_hist.counts.items() if d % n == 0)
        if total:
            assert total % coprime_part(go, n) == 0


def test_mul_is_associative_on_sample(sp44):
    rng = np.random.default_rng(3)
    idx = rng.integers(0, len(sp44), size=6)
    mats = [Mat4(sp44.spec, tuple(int(x) for x in sp44.mats[i].reshape(16))) for i in idx]
    a, b, c = mats[0], mats[1], mats[2]
    assert a.mul(b).mul(c) == a.mul(b.mul(c))
    assert a.mul(b) in sp44


# ---------------------------------------------------------------------------
# permutation engine


def test_perm_spec_validation():
    with pytest.raises(ValueError):
        PermGroupSpec(3, ((0, 0, 1),))


def test_perm_group_order84():
    g = perm_group_elements(z4_times_z7_z3())
    h = perm_group_elements(z3_times_z7_z4())
    assert len(g) == 84
    assert len(h) == 84


def test_perm_capacity():
    with pytest.raises(CapacityExceeded):
        perm_group_elements(z4_times_z7_z3(), cap=10)


def test_example84_nse_sets(hist84_g, hist84_h):
    assert hist84_g.nse() == frozenset({1, 2, 6, 12, 14, 28})
    assert hist84_h.nse() == frozenset({1, 2, 6, 12, 14, 28})


def test_example84_types_differ(hist84_g, hist84_h):
    assert hist84_g.power_count(3) == 15
    assert hist84_h.power_count(3) == 3
    assert hist84_g[28] > 0
    assert hist84_h[28] == 0
    assert hist84_h[42] > 0  # H compensates with order-42 elements


def test_example84_frobenius_divisibility(hist84_g, hist84_h):
    for hist in (hist84_g, hist84_h):
        for n in divisors(84):
            assert hist.power_count(n) % n == 0


def test_power_count_trivial():
    trivial = PermGroupSpec(1, ((0,),))
    assert perm_nse(trivial).power_count(5) == 1
    assert perm_nse(trivial).counts == {1: 1}
