import dataclasses
import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psp4nse import oracle
from psp4nse.arith import divisors
from psp4nse.gf2 import FieldSpec
from psp4nse.oracle import (
    CapacityExceeded,
    EnumeratedGroup,
    Mat4,
    PermGroupSpec,
    _J_ENTRIES,
    _element_orders,
    _identity_key,
    _keys,
    _kmul,
    _row0,
    _scaled_rows,
    _search,
    _smul,
    enumerate_group,
    order_histogram,
    perm_group_elements,
    perm_nse,
    sp4_generators,
    sp4_group,
    z3_times_z7_z4,
    z4_times_z7_z3,
)
from psp4nse.sympl import class_table, nse_table
from reference import coprime_part, euler_phi


def _unpack(spec, keys):
    """The (n, 16) row-major entries of packed keys."""
    mask = np.uint64(spec.order - 1)
    out = np.empty((len(keys), 16), dtype=np.uint8)
    for i in range(16):
        out[:, i] = (keys >> np.uint64(spec.f * (15 - i))) & mask
    return out


def _pack(spec, entries):
    """The keys of (n, 16) row-major entries; the inverse of _unpack."""
    keys = np.zeros(len(entries), dtype=np.uint64)
    for i in range(16):
        keys = (keys << np.uint64(spec.f)) | entries[:, i]
    return keys


def _mat(spec, key):
    """The Mat4 of one packed key."""
    return Mat4(spec, tuple(_unpack(spec, np.array([key], dtype=np.uint64))[0].tolist()))


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
    assert x_2ab.entries[4 * 0 + 3] == 1
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


def test_mat4_rejects_entries_outside_the_field():
    # entry 4 at q = 4 would spill into entry (0,1) of the key and alias x_a
    x_a = sp4_generators(4)[0]
    entries = list(x_a.entries)
    entries[1], entries[2] = 0, 4
    with pytest.raises(ValueError, match="entries must lie in 0..3"):
        Mat4(x_a.spec, tuple(entries))
    entries[2] = -1
    with pytest.raises(ValueError, match="entries must lie in 0..3"):
        Mat4(x_a.spec, tuple(entries))


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


@pytest.mark.parametrize("cap", [1000, 10**5])
def test_capacity_error_comes_before_the_cosets(monkeypatch, cap):
    # |H| = 3840 and |G| = 255 * 3840: cap 1000 stops the closure of the
    # stabilizer, cap 10^5 the count |orbit| * |H|; neither forms a coset
    # product, whose multipliers are the 255 orbit representatives.  Each
    # multiplier set m[:, None] has its scaled rows made once: record its size.
    counts, scaled_rows = [], oracle._scaled_rows

    def recorded(spec, b):
        if np.ndim(b) == 2:
            counts.append(len(b))
        return scaled_rows(spec, b)

    monkeypatch.setattr(oracle, "_scaled_rows", recorded)
    with pytest.raises(CapacityExceeded, match=f"cap of {cap} elements"):
        enumerate_group(sp4_generators(4), cap=cap)
    assert counts[0] == 8 and max(counts) < 255
    counts.clear()
    enumerate_group(sp4_generators(4), cap=979200)
    assert counts[0] == 8 and counts[-1] == 255


def test_enumeration_rejects_keys_over_64_bits():
    with pytest.raises(ValueError, match="64 bits"):
        enumerate_group([Mat4.identity(FieldSpec.for_degree(5))], cap=10)


@pytest.mark.parametrize("f, bad", [(2, 1 << 40), (2, 1 << 32), (3, 1 << 50), (3, 1 << 48)])
def test_enumerated_group_rejects_keys_beyond_the_key_width(f, bad):
    # cast to uint32, 2^40 + k would wrap to k and alias the identity's key
    spec = FieldSpec.for_degree(f)
    ident = Mat4.identity(spec).packed()
    bits = 16 * f
    for keys in ([ident, bad + ident], np.array([ident, bad + ident], dtype=np.uint64), [-1, ident]):
        with pytest.raises(ValueError, match=rf"must lie in 0..2\^{bits} - 1"):
            EnumeratedGroup(spec, keys)
    assert EnumeratedGroup(spec, [ident, (1 << bits) - 1]).keys.tolist() == [ident, (1 << bits) - 1]


def test_enumerated_group_rejects_keys_that_are_no_integers():
    # float keys in range once passed the range check and were truncated by the cast
    spec = FieldSpec.for_degree(2)
    for keys in (np.array([1.5, 2.7]), [1.0, 2.0], np.array([True, False])):
        with pytest.raises(TypeError, match="integers"):
            EnumeratedGroup(spec, keys)


def test_enumerated_group_takes_a_list_of_keys_below_and_from_2_63():
    # np.asarray made such a list float64: [1, 2^63 + 5] raised TypeError and
    # 2^64 - 2 rounded to 2^64 and failed the range check
    spec = FieldSpec.for_degree(4)
    for keys in ([1, 2**63 + 5], [1, 2**64 - 2], [np.uint64(1), 2**63, (1 << 64) - 1]):
        group = EnumeratedGroup(spec, keys)
        assert group.keys.dtype == np.uint64 and group.keys.tolist() == [int(k) for k in keys]
    with pytest.raises(ValueError, match=r"must lie in 0..2\^64 - 1"):
        EnumeratedGroup(spec, [1, 1 << 64])


def _word(q, word):
    gens = sp4_generators(q)
    m = Mat4.identity(gens[0].spec)
    for i in word:
        m = m.mul(gens[i])
    return m


_words = st.lists(st.integers(0, 7), max_size=12)


@settings(max_examples=60)
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


@settings(max_examples=40)
@given(q=st.sampled_from([4, 8, 16]), data=st.data())
def test_broadcast_generator_products_match_kmul_and_scalar_mul(q, data):
    # raw keys are mostly not group elements, nor invertible
    gens = sp4_generators(q)
    spec = gens[0].spec
    raw = data.draw(st.lists(st.integers(0, (1 << (16 * spec.f)) - 1), min_size=1, max_size=6))
    words = data.draw(st.lists(_words, min_size=1, max_size=3))
    mats = [Mat4(spec, tuple(row.tolist())) for row in _unpack(spec, np.array(raw, np.uint64))]
    mats += [_word(q, w) for w in words]
    keys = _keys(spec, mats)
    prods = _smul(spec, keys[None, :], _scaled_rows(spec, _keys(spec, gens)[:, None]))
    assert prods.shape == (8, len(mats))
    for row, g in zip(prods, gens):
        want = [m.mul(g).packed() for m in mats]
        assert row.tolist() == want
        assert _kmul(spec, keys, np.uint64(g.packed())).tolist() == want


@pytest.mark.parametrize("f", [2, 3, 4])
def test_scaled_rows_match_field_mul_in_every_slot(f):
    # key i holds the entry value (i + slot) mod q in each of the 16 slots, so
    # every value meets every slot
    spec = FieldSpec.for_degree(f)
    q = spec.order
    entries = (np.arange(q)[:, None] + np.arange(16)) % q
    keys = _pack(spec, entries.astype(np.uint64))
    scaled = _scaled_rows(spec, keys)
    assert scaled.shape == (4 * f, q)
    for k in range(4):
        for t in range(f):
            got = _unpack(spec, scaled[k * f + t])
            assert not got[:, :12].any()  # the row lies in the low 4f bits
            want = [[spec.mul(1 << t, e) for e in row[4 * k : 4 * k + 4]] for row in entries.tolist()]
            assert got[:, 12:].tolist() == want


class _KeyWordOnly(np.ndarray):
    """Keys whose ufuncs fail on an operand of another dtype: a stray
    np.uint64 constant beside uint32 keys would promote the whole product."""

    def __array_ufunc__(self, ufunc, method, *args, out=(), **kwargs):
        operands = [*args, *out]
        assert {np.asarray(x).dtype for x in operands} == {self.dtype}, ufunc.__name__
        plain = [x.view(np.ndarray) if isinstance(x, _KeyWordOnly) else x for x in operands]
        if out:
            kwargs["out"] = tuple(plain[len(args):])
        return getattr(ufunc, method)(*plain[: len(args)], **kwargs)


@pytest.mark.parametrize("f, word", [(1, np.uint16), (2, np.uint32), (3, np.uint64),
                                     (4, np.uint64)])
def test_keys_stay_in_the_narrowest_word_of_16f_bits(f, word):
    # S4 as permutation matrices, invertible over every field
    spec = FieldSpec.for_degree(f)
    gens = [_perm_matrix(spec, (1, 0, 2, 3)), _perm_matrix(spec, (1, 2, 3, 0))]
    group = enumerate_group(gens, cap=24)
    keys = group.keys
    assert keys.tolist() == _scalar_closure(gens, 24)
    assert keys.dtype == _keys(spec, gens).dtype == word
    assert type(_identity_key(spec)) is word
    scaled = _scaled_rows(spec, keys)
    for rows in (scaled, _scaled_rows(spec, keys[0]), _scaled_rows(spec, keys[:, None])):
        assert rows.dtype == word
    assert _kmul(spec, keys, keys).dtype == _kmul(spec, keys, keys[0]).dtype == word
    # every ufunc of the kernel sees only key words, also where out= hides a
    # promotion; _smul's shift buffer is empty_like(a), so it is checked too
    strict = _smul(spec, keys.view(_KeyWordOnly), scaled.view(_KeyWordOnly))
    assert strict.dtype == word and np.array_equal(strict, _kmul(spec, keys, keys))
    table = _smul(spec, keys[None, :].view(_KeyWordOnly),
                  _scaled_rows(spec, keys[:, None]).view(_KeyWordOnly))
    assert table.dtype == word and sorted(table[5].tolist()) == keys.tolist()


@pytest.mark.parametrize("f, word", [(1, np.uint8), (2, np.uint8), (3, np.uint16),
                                     (4, np.uint16)])
def test_orders_stay_in_the_narrowest_word_of_q4_minus_1(f, word):
    spec = FieldSpec.for_degree(f)
    gens = [_perm_matrix(spec, (1, 0, 2, 3)), _perm_matrix(spec, (1, 2, 3, 0))]
    keys = enumerate_group(gens, cap=24).keys
    orders = _element_orders(spec, keys)
    assert orders.dtype == word
    assert np.array_equal(orders, _chain_orders(spec, keys))


_SINGER_ROWS = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [3, 2, 1, 0]]


def test_sp44_and_singer_cycle_orders_fit_uint8(sp44):
    # a Singer cycle of GL4(4) has order q^4 - 1 = 255, the largest uint8
    singer = Mat4.from_rows(sp44.spec, _SINGER_ROWS)
    for keys in (sp44.keys, enumerate_group([singer], cap=255).keys):
        orders = _element_orders(sp44.spec, keys)
        assert orders.dtype == np.uint8
        # a chain per key, 2^16 keys at a time
        want = [_chain_orders(sp44.spec, keys[i : i + (1 << 16)])
                for i in range(0, len(keys), 1 << 16)]
        assert np.array_equal(orders, np.concatenate(want))
    assert orders.max() == 255


# a Singer cycle of GL4(8): the companion matrix of a primitive quartic over GF(8),
# of order 8^4 - 1 = 4095
_SINGER_ROWS_GF8 = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [3, 4, 1, 1]]


def test_orders_above_255_stay_exact_in_uint16():
    # <g^15> is cyclic of order 4095 / 15 = 273: its chains step past 255, so
    # the coprime marking runs on the wide order word
    spec = FieldSpec.for_degree(3)
    singer = Mat4.from_rows(spec, _SINGER_ROWS_GF8)
    power = Mat4.identity(spec)
    for _ in range(15):
        power = power.mul(singer)
    group = enumerate_group([power], cap=273)
    orders = _element_orders(spec, group.keys)
    assert orders.dtype == np.uint16 and int(orders.max()) == 273
    assert np.array_equal(orders, _chain_orders(spec, group.keys))
    assert order_histogram(group).counts == {d: euler_phi(d) for d in divisors(273)}


_SMALL_CAP = 400


def _scalar_closure(gens, cap):
    """Sorted keys of the closure by a Mat4.mul breadth-first search."""
    ident = Mat4.identity(gens[0].spec)
    seen, frontier = {ident}, [ident]
    while frontier:
        fresh = []
        for m in frontier:
            for g in gens:
                p = m.mul(g)
                if p not in seen:
                    seen.add(p)
                    fresh.append(p)
        if len(seen) > cap:
            raise CapacityExceeded(f"closure exceeded cap of {cap} elements")
        frontier = fresh
    return sorted(m.packed() for m in seen)


def _chain_orders(spec, keys):
    """The order of every key by its own power chain."""
    ident = np.uint64(Mat4.identity(spec).packed())
    keys = np.asarray(keys, dtype=np.uint64)
    orders = np.zeros(len(keys), dtype=np.int64)
    cur, todo = keys, np.arange(len(keys))
    for k in range(1, spec.order**4):
        done = cur == ident
        orders[todo[done]] = k
        cur, todo = cur[~done], todo[~done]
        if not len(todo):
            break
        cur = _kmul(spec, cur, keys[todo])
    else:
        raise RuntimeError("element order exceeds the bound q^4 - 1")
    return orders


def _assert_orders_match_chains(spec, keys):
    """_element_orders and order_histogram agree with a chain per key, key by key."""
    want = _chain_orders(spec, keys)
    assert np.array_equal(_element_orders(spec, keys), want)
    values, counts = np.unique(want, return_counts=True)
    hist = order_histogram(EnumeratedGroup(spec, keys))
    assert hist.counts == {int(v): int(c) for v, c in zip(values, counts)}
    return hist


@settings(max_examples=30)
@given(q=st.sampled_from([4, 8]), subset=st.sets(st.integers(0, 7), min_size=1))
def test_subgroup_closure_and_histogram_match_scalar_references(q, subset):
    gens = [sp4_generators(q)[i] for i in sorted(subset)]
    try:
        want = _scalar_closure(gens, _SMALL_CAP)
    except CapacityExceeded:
        with pytest.raises(CapacityExceeded):
            enumerate_group(gens, _SMALL_CAP)
        return
    group = enumerate_group(gens, _SMALL_CAP)
    assert group.keys.tolist() == want
    _assert_orders_match_chains(group.spec, group.keys)


def _perm_matrix(spec, perm):
    """The permutation matrix whose row r is e_perm[r]."""
    return Mat4.from_rows(spec, [[int(c == perm[r]) for c in range(4)] for r in range(4)])


def _diag(spec, d):
    return Mat4.from_rows(spec, [[d[r] if c == r else 0 for c in range(4)] for r in range(4)])


@st.composite
def _generator_sets(draw):
    """Invertible generators of subgroups of GL4(q): words in the Sp4(q)
    generators, permutation and diagonal matrices (mostly not symplectic),
    or, for a set that fixes e1, only matrices whose row 0 is e1."""
    q = draw(st.sampled_from([4, 8]))
    spec = FieldSpec.for_degree(q.bit_length() - 1)
    fix_e1 = draw(st.booleans())
    # x_b, h(1,g) and w_b have row 0 = e1
    word_gens = [1, 5, 7] if fix_e1 else range(8)
    unit = st.integers(1, q - 1)
    kinds = [
        st.lists(st.sampled_from(word_gens), min_size=1, max_size=8).map(lambda w: _word(q, w)),
        st.permutations(range(4)).filter(lambda p: not fix_e1 or p[0] == 0)
        .map(lambda p: _perm_matrix(spec, p)),
        st.tuples(st.just(1) if fix_e1 else unit, unit, unit, unit).map(lambda d: _diag(spec, d)),
    ]
    return fix_e1, draw(st.lists(st.one_of(kinds), min_size=1, max_size=4))


@st.composite
def _invertible_matrices(draw):
    """Words in the Sp4(q) generators, permutation and diagonal matrices, q = 4, 8, 16."""
    q = draw(st.sampled_from([4, 8, 16]))
    spec = FieldSpec.for_degree(q.bit_length() - 1)
    unit = st.integers(1, q - 1)
    return draw(st.one_of(
        _words.map(lambda w: _word(q, w)),
        st.permutations(range(4)).map(lambda p: _perm_matrix(spec, p)),
        st.tuples(unit, unit, unit, unit).map(lambda d: _diag(spec, d)),
    ))


@settings(max_examples=60)
@given(m=_invertible_matrices())
def test_inverse_is_two_sided(m):
    ident = Mat4.identity(m.spec)
    inv = m.inverse()
    assert m.mul(inv) == ident and inv.mul(m) == ident


@settings(max_examples=40)
@given(drawn=_generator_sets())
def test_cosets_of_the_stabilizer_match_scalar_closure(drawn):
    fix_e1, gens = drawn
    spec = gens[0].spec
    if fix_e1:
        scaled = _scaled_rows(spec, _keys(spec, gens)[:, None])
        orbit, levels = _search(spec, scaled, lambda keys: _row0(spec, keys), _SMALL_CAP)
        assert len(orbit) == 1 and sum(len(keys) for keys, _, _ in levels) == 1
    try:
        want = _scalar_closure(gens, _SMALL_CAP)
    except CapacityExceeded:
        with pytest.raises(CapacityExceeded):
            enumerate_group(gens, _SMALL_CAP)
        return
    assert enumerate_group(gens, _SMALL_CAP).keys.tolist() == want


def test_singer_cycle_reaches_the_order_bound():
    # a companion matrix of order q^4 - 1 = 255 in GL4(4): its inverse is its
    # 254th power, and it is transitive on the nonzero vectors, so the orbit
    # of e1 is the whole group
    spec = FieldSpec.for_degree(2)
    singer = Mat4.from_rows(spec, _SINGER_ROWS)
    ident = Mat4.identity(spec)
    power = singer
    for _ in range(253):
        power = power.mul(singer)
    assert power != ident and power.mul(singer) == ident
    assert singer.inverse() == power
    group = enumerate_group([singer], cap=255)
    assert len(group) == 255 and order_histogram(group)[255] == 128
    with pytest.raises(CapacityExceeded):
        enumerate_group([singer], cap=254)


_RANK_3 = [[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
_NILPOTENT = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
_FIXES_E1 = [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]  # rank 3


@pytest.mark.parametrize("q, rows", [(4, _RANK_3), (4, _NILPOTENT), (4, _FIXES_E1),
                                     (8, _FIXES_E1), (16, _FIXES_E1), (16, _NILPOTENT)])
def test_singular_generator_is_rejected(q, rows):
    gens = sp4_generators(q)
    bad = Mat4.from_rows(gens[0].spec, rows)
    assert bad.inverse() is None
    with pytest.raises(ValueError, match="generator 8 is not invertible"):
        enumerate_group([*gens, bad], cap=10**7)
    with pytest.raises(ValueError, match="generator 0 is not invertible"):
        enumerate_group([bad], cap=10**7)


def _bfs_closure(generators, cap):
    """Sorted keys of the closure by the earlier numpy enumeration: breadth-first
    over the whole group, each level deduplicated against the keys seen."""
    spec = generators[0].spec
    scaled = _scaled_rows(spec, _keys(spec, generators)[:, None])
    seen = _keys(spec, [Mat4.identity(spec)])  # sorted throughout
    frontier = seen
    while len(frontier):
        fresh_blocks = []
        for start in range(0, len(frontier), 1 << 18):
            chunk = frontier[start : start + (1 << 18)]
            prods = np.sort(_smul(spec, chunk[None, :], scaled), axis=None)
            prods = prods[np.concatenate(([True], prods[1:] != prods[:-1]))]
            pos = np.searchsorted(seen, prods)
            fresh = seen[np.minimum(pos, len(seen) - 1)] != prods
            seen = np.insert(seen, pos[fresh], prods[fresh])
            if len(seen) > cap:
                raise CapacityExceeded(f"closure exceeded cap of {cap} elements")
            fresh_blocks.append(prods[fresh])
        frontier = np.concatenate(fresh_blocks)
    return seen


def test_breadth_first_reference_equals_sp4_group(sp44):
    keys = _bfs_closure(sp4_generators(4), 2_000_000)
    assert np.array_equal(keys, sp44.keys)


@settings(max_examples=40)
@given(data=st.data())
def test_histogram_of_non_closed_subsets_matches_per_element_chain(sp44, data):
    # a random part of the cyclic subgroups of a few elements of Sp4(4), plus
    # other random elements
    ident = Mat4.identity(sp44.spec)
    index = st.integers(0, len(sp44) - 1)
    picks = data.draw(st.lists(index, min_size=1, max_size=5))
    keys = {int(sp44.keys[i]) for i in data.draw(st.lists(index, max_size=24))}
    for i in picks:
        g = _mat(sp44.spec, sp44.keys[i])
        power = g
        while True:
            if data.draw(st.booleans()):
                keys.add(power.packed())
            if power == ident:
                break
            power = power.mul(g)
    keys = np.array(sorted(keys), dtype=np.uint64)
    _assert_orders_match_chains(sp44.spec, keys)


@pytest.mark.parametrize("missing", range(9))
def test_torus_missing_one_element_gets_per_element_histogram(missing):
    gens = sp4_generators(4)
    torus = enumerate_group([gens[4], gens[5]], cap=100)
    keys = np.delete(torus.keys, missing)
    hist = _assert_orders_match_chains(torus.spec, keys)
    has_identity = Mat4.identity(torus.spec).packed() in keys.tolist()
    assert hist.counts == ({1: 1, 3: 7} if has_identity else {3: 8})


@pytest.mark.parametrize("rows", [_RANK_3, _NILPOTENT])
def test_singular_matrix_hits_order_bound(rows):
    spec = FieldSpec.for_degree(2)
    mats = [Mat4.identity(spec), *sp4_generators(4), Mat4.from_rows(spec, rows)]
    keys = np.array(sorted({m.packed() for m in mats}), dtype=np.uint64)
    with pytest.raises(RuntimeError, match="element order exceeds bound 255"):
        order_histogram(EnumeratedGroup(spec, keys))


def test_singular_key_among_sp44_fails_at_q4_minus_1_products(sp44):
    # a chain stops at q^4 - 1 = 255, the largest order in GL4(4); bounded by
    # the key count, 979,202, the nilpotent key's chain ran for 51 s
    nilpotent = Mat4.from_rows(sp44.spec, _NILPOTENT).packed()
    keys = np.insert(sp44.keys, np.searchsorted(sp44.keys, nilpotent), nilpotent)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="element order exceeds bound 255"):
        order_histogram(EnumeratedGroup(sp44.spec, keys))
    assert time.perf_counter() - start < 2


def test_lone_key_of_order_3_gets_its_histogram():
    # the torus element h(g, 1) of Sp4(4) has order q - 1 = 3; bounded by the
    # key count, its chain stopped at 2
    h = sp4_generators(4)[4]
    keys = np.array([h.packed()], dtype=np.uint64)
    assert order_histogram(EnumeratedGroup(h.spec, keys)).counts == {3: 1}


def test_enumerated_cosets_are_taken_over_checked_and_read_only(monkeypatch):
    # enumerate_group hands its sorted cosets to EnumeratedGroup without a
    # copy; they pass the same range and order checks as a caller's keys
    handed = []

    def recorded(spec, keys):
        handed.append(keys)
        return EnumeratedGroup(spec, keys)

    monkeypatch.setattr(oracle, "EnumeratedGroup", recorded)
    spec = FieldSpec.for_degree(3)  # 48-bit keys in uint64: a key can lie out of range
    gens = [_perm_matrix(spec, (1, 0, 2, 3)), _perm_matrix(spec, (1, 2, 3, 0))]
    group = enumerate_group(gens, cap=24)
    (cosets,) = handed
    assert type(group.keys) is np.ndarray and np.shares_memory(group.keys, cosets)
    assert not cosets.flags.writeable and not group.keys.flags.writeable
    unsorted, wide = cosets.copy(), cosets.copy()  # copies keep the handed-over type
    unsorted[[0, 1]] = unsorted[[1, 0]]
    wide[-1] = 1 << 48
    for bad, message in ((unsorted, "strictly increasing"), (wide, r"must lie in 0..2\^48 - 1")):
        assert type(bad) is type(cosets)
        for keys in (bad, np.array(bad)):  # taken over, and a caller's plain array
            with pytest.raises(ValueError, match=message):
                EnumeratedGroup(spec, keys)


def test_enumerated_group_is_immutable():
    gens = sp4_generators(4)
    source = enumerate_group([gens[4], gens[5]], cap=100).keys.copy()
    group = EnumeratedGroup(gens[0].spec, source)
    source[0] ^= np.uint64(1)  # the group holds its own copy
    assert group.keys[0] != source[0]
    with pytest.raises(ValueError):
        group.keys[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        group.keys = source
    with pytest.raises(ValueError, match="strictly increasing"):
        EnumeratedGroup(group.spec, group.keys[::-1])


def test_sp44_key_and_order_digests(sp44):
    # recorded on uint64 keys and int64 orders: the narrower words hold the same values
    assert hashlib.sha256(sp44.keys.astype(np.uint64).tobytes()).hexdigest() == \
        "73613800065e58a5f7fe7e0d4fc4d112c4813e0cb1fa8aec9204a00e55822f3f"
    orders = _element_orders(sp44.spec, sp44.keys)
    assert hashlib.sha256(orders.astype(np.int64).tobytes()).hexdigest() == \
        "d0c9c6fb92bfac257f809ee4440913d4543446750e30ba2674ed99324a3fbf12"


_HISTOGRAM_PEAK_GROWTH = """
import resource
from psp4nse.oracle import order_histogram, sp4_group
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
group = sp4_group(4)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
order_histogram(group)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


# ru_maxrss survives exec: a child starts from the peak of the process that
# spawned it, so a bare interpreter spawns the child, not the suite
_LAUNCHER = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def test_sp44_enumeration_and_histogram_peak_memory():
    # the peak grew by 27.6 MiB on uint64 keys with a sorted copy of the cosets
    # and int64 orders, by 19.4 MiB (10.4 MiB of it enumerating) on uint32
    # keys, int32 orders and a copy of the cosets, and by 9.6-11.3 MiB (6.1-6.7 MiB) since
    src = Path(oracle.__file__).resolve().parents[1]
    argv = [sys.executable, "-c", _LAUNCHER, sys.executable, "-c", _HISTOGRAM_PEAK_GROWTH]
    run = subprocess.run(argv, capture_output=True, env={**os.environ, "PYTHONPATH": str(src)},
                         timeout=120, check=True)
    enumerated, total = map(int, run.stdout.split())  # ru_maxrss is in KiB
    assert enumerated < 8 * 1024
    assert total < 12 * 1024


def test_sp44_enumeration_and_orders_traced_peaks(sp44):
    # tracemalloc counts the arrays the code allocates, not the heap they land
    # in: enumerating peaked at 8.5 MiB (a product of every coset at once, its
    # term buffer and the group's copy of the cosets) and the orders at
    # 11.6 MiB (int32 orders, and two batches' temporaries alive at once)
    # before they fell to 4.8 and 4.3 MiB
    gens = sp4_generators(4)
    tracemalloc.start()
    try:
        enumerate_group(gens, cap=len(sp44))
        enumerated = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _element_orders(sp44.spec, sp44.keys)
        ordered = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert enumerated < 5.5 * 2**20
    assert ordered < 4.75 * 2**20


def test_histogram_is_computed_anew_for_every_call():
    # an edit to one call's histogram once came back from every later call
    h = order_histogram(sp4_group(4))
    h.counts[2] = 0
    assert order_histogram(sp4_group(4)).counts[2] == 4335


def test_sp44_orders_of_a_sample_match_their_own_chains(sp44):
    # at most 17 products per sampled key
    rng = np.random.default_rng(2024)
    index = np.sort(rng.choice(len(sp44), size=4096, replace=False))
    orders = _element_orders(sp44.spec, sp44.keys)
    assert np.array_equal(orders[index], _chain_orders(sp44.spec, sp44.keys[index]))


def test_sp44_histogram_work_counts(sp44, sp44_hist, monkeypatch):
    # chains that look up every power, not only the generators of <g>, took
    # 1,932,004 products and 2,182,720 sorted lookups; looking up every power
    # that two chains of one batch both mark took 858,510.  The chains call the
    # product kernel _smul directly, so the products are counted there.  The
    # counts are exact: how the chains are compacted and filtered moves time, not work.
    rows, needles = [0], [0]
    smul, searchsorted = oracle._smul, np.searchsorted

    def counted_smul(spec, a, scaled):
        rows[0] += len(a)
        return smul(spec, a, scaled)

    def counted_searchsorted(a, v, *args, **kwargs):
        needles[0] += np.size(v)
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(oracle, "_smul", counted_smul)
    monkeypatch.setattr(np, "searchsorted", counted_searchsorted)
    hist = order_histogram(EnumeratedGroup(sp44.spec, sp44.keys))
    assert hist.counts == sp44_hist.counts
    assert needles[0] == 768_294
    assert rows[0] == 1_924_841


@settings(max_examples=60)
@given(data=st.data(), f=st.integers(2, 4))
def test_key_unpack_repack_round_trip(data, f):
    spec = FieldSpec.for_degree(f)
    keys = data.draw(st.lists(st.integers(0, (1 << (16 * f)) - 1), min_size=1, max_size=8))
    arr = np.array(keys, dtype=np.uint64)
    entries = _unpack(spec, arr)
    assert _pack(spec, entries).tolist() == keys
    assert [Mat4(spec, tuple(row.tolist())).packed() for row in entries] == keys


@settings(max_examples=200)
@given(index=st.integers(0, 979199), pos=st.integers(0, 15), delta=st.integers(0, 3))
def test_sp44_membership_is_symplecticity(sp44, index, pos, delta):
    # an element of the group with one entry xored by delta (0 keeps it)
    entries = _unpack(sp44.spec, sp44.keys[index : index + 1])[0].tolist()
    entries[pos] ^= delta
    m = Mat4(sp44.spec, tuple(entries))
    assert (m in sp44) == m.is_symplectic()


def _all_symplectic(group):
    """Vectorized check that every element preserves the alternating form."""
    mats = _unpack(group.spec, group.keys).reshape(-1, 4, 4)
    at = _pack(group.spec, mats.transpose(0, 2, 1).reshape(-1, 16))
    ja = _pack(group.spec, mats[:, ::-1, :].reshape(-1, 16))  # J reverses rows
    j = Mat4(group.spec, _J_ENTRIES).packed()
    return bool((_kmul(group.spec, at, ja) == np.uint64(j)).all())


def test_sp44_full_enumeration(sp44):
    assert len(sp44) == 979200
    assert _all_symplectic(sp44)
    gens = sp4_generators(4)
    assert all(g in sp44 for g in gens)


def _conjugation_permutations(group, gens):
    """P[j][x] = the position of gens[j]^-1 * keys[x] * gens[j] among the keys."""
    spec, keys = group.spec, group.keys
    right = _scaled_rows(spec, _keys(spec, gens)[:, None])
    inverses = _keys(spec, [g.inverse() for g in gens])[:, None]
    perms = []
    # the left products g^-1 * x need the scaled rows of the keys: 8 MB a chunk
    for chunk in np.split(keys, range(1 << 17, len(keys), 1 << 17)):
        conj = _smul(spec, _smul(spec, inverses, _scaled_rows(spec, chunk)), right)
        pos = np.searchsorted(keys, conj)
        assert np.array_equal(keys[np.minimum(pos, len(keys) - 1)], conj)
        perms.append(pos.astype(np.int32))
    return list(np.concatenate(perms, axis=1))


def _orbit_labels(perms, n):
    """The least position in each position's orbit under the permutations."""
    label = np.arange(n, dtype=np.int32)
    while True:
        new = label.copy()
        for p in perms:
            np.minimum(new, label[p], out=new)
        new = new[new]  # pointer jumping: the label's own label is no larger
        if np.array_equal(new, label):
            return label
        label = new


def test_sp44_conjugacy_classes_match_the_class_table(sp44):
    # the classes by brute force: orbits of the group acting on itself by
    # conjugation with its 8 generators
    labels = _orbit_labels(_conjugation_permutations(sp44, sp4_generators(4)), len(sp44))
    orders = _element_orders(sp44.spec, sp44.keys)
    reps, sizes = np.unique(labels, return_counts=True)
    assert np.array_equal(orders, orders[labels])  # conjugates have one order
    found = Counter(zip(sizes.tolist(), orders[reps].tolist()))
    table = class_table(4)
    assert len(reps) == len(table) == 27
    assert found == Counter((row.class_length, row.rep_order) for row in table)


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
    mats = [_mat(sp44.spec, sp44.keys[i]) for i in idx]
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


def test_perm_capacity(monkeypatch):
    monkeypatch.setattr(oracle, "_PERM_MAX", 10)
    with pytest.raises(CapacityExceeded, match="cap of 10 elements"):
        perm_group_elements(z4_times_z7_z3())


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
