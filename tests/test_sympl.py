import csv
import hashlib
import io
import json
from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psp4nse import sympl
from psp4nse.arith import divisors, factorize
from psp4nse.sympl import (
    CLASS_FAMILIES,
    class_table,
    class_table_csv,
    family_class_count,
    group_order,
    nse_set,
    nse_table,
    nse_table_json,
    spectrum,
)
import reference
from reference import euler_phi, spectrum_by_moduli

NSE4 = {1: 1, 2: 4335, 3: 10880, 4: 61200, 5: 52224, 6: 163200, 10: 195840, 15: 261120, 17: 230400}
# hand-evaluated from the count formulas; the partition identity cross-checks the sum
NSE8 = {
    1: 1,
    2: 266175,
    3: 465920,
    4: 16511040,
    5: 16257024,
    6: 29352960,
    7: 66493440,
    9: 79672320,
    13: 48771072,
    14: 113218560,
    18: 88058880,
    21: 100638720,
    63: 301916160,
    65: 195084288,
}


def test_group_order():
    assert group_order(4) == 979200
    assert group_order(8) == 1056706560
    for bad in (2, 3, 6, 1024 + 1):
        with pytest.raises(ValueError):
            group_order(bad)


def test_spectrum():
    assert spectrum(4) == (1, 2, 3, 4, 5, 6, 10, 15, 17)
    assert spectrum(8) == (1, 2, 3, 4, 5, 6, 7, 9, 13, 14, 18, 21, 63, 65)
    for f in range(2, 10):
        assert 1 in spectrum(1 << f)


def test_spectrum_equals_divisors_of_the_order_moduli():
    # spectrum factors only q-1, q+1 and q^2+1; the reference factors all five moduli
    for f in range(2, 49):
        assert spectrum(1 << f) == spectrum_by_moduli(1 << f)


def test_m_of_order_q4():
    counts = nse_table(4).counts
    for r, expected in NSE4.items():
        assert counts[r] == expected
    for bad in (7, 0, -3):
        assert bad not in counts


def test_nse_table_q4_and_q8():
    assert nse_table(4).counts == NSE4
    assert nse_table(8).counts == NSE8
    assert len(nse_set(4)) == 9
    assert len(nse_set(8)) == 14


def test_partition_identity_all_f():
    for f in range(2, 17):
        q = 1 << f
        assert sum(nse_table(q).counts.values()) == group_order(q)


@pytest.mark.parametrize("f", [*range(2, 13), 32])
def test_m_of_order_equals_nse_table(f):
    # each count of the table against the per-order reference
    q = 1 << f
    table = nse_table(q)
    primes = reference.order_primes(q)
    assert all(c == reference.m_of_order(q, r, primes) for r, c in table.counts.items())


def test_nse_table_equals_per_order_reference():
    # the class walk against the former per-order dispatcher, key by key and in order
    for f in range(2, 49):
        q = 1 << f
        assert list(nse_table(q).counts.items()) == list(reference.nse_counts(q).items())


def test_nse_table_leaves_few_factorize_entries():
    # the divisors of q-1, q+1 and q^2+1 carry phi and psi with them, so these
    # three are the only numbers factored, not each of the 6,927 orders at f = 48
    factorize.cache_clear()
    spectrum.cache_clear()
    nse_table(1 << 48)
    assert factorize.cache_info().currsize == 3


def test_nse_table_keys_are_spectrum():
    for q in (4, 8, 16, 32):
        table = nse_table(q)
        assert tuple(table.counts) == spectrum(q)
        assert table.counts[1] == 1


def test_counts_divisible_by_phi():
    for q in (4, 8, 16, 32):
        for r, c in nse_table(q).counts.items():
            assert c % euler_phi(r) == 0


def test_divisor_sum_divisibility():
    # r divides the number of solutions of x^r = 1 (sum of counts over divisors)
    for q in (4, 8, 16):
        counts = nse_table(q).counts
        for r in spectrum(q):
            assert sum(counts[j] for j in divisors(r)) % r == 0


@lru_cache(maxsize=None)
def _frobenius_inputs(f):
    """The nse table of PSp4(2^f) and the prime powers of 4(q^2-1) and of q^2+1."""
    q = 1 << f
    return nse_table(q).counts, factorize(4 * (q * q - 1)).pairs + factorize(q * q + 1).pairs


@settings(max_examples=100)
@given(f=st.integers(2, 48), data=st.data())
def test_frobenius_divisibility_at_large_f(f, data):
    # n = r * s with r | 4(q^2-1) and s | q^2+1 divides |G|, so the solutions of
    # x^n = 1, the counts of the orders dividing n, are a multiple of n (Frobenius)
    counts, pairs = _frobenius_inputs(f)
    for _ in range(4):
        n = prod(p ** data.draw(st.integers(0, e)) for p, e in pairs)
        assert sum(c for r, c in counts.items() if n % r == 0) % n == 0


def test_class_table_q4():
    rows = class_table(4)
    assert sum(r.class_length for r in rows) == 979200
    b5 = [r for r in rows if r.family == "B5"]
    assert len(b5) == 4 and all(r.class_length == 57600 for r in b5)
    assert [r for r in rows if r.family == "B1"] == []


def _regroup_rows(table) -> dict[int, int]:
    by_order: dict[int, int] = {}
    for r in table:
        by_order[r.rep_order] = by_order.get(r.rep_order, 0) + r.class_length
    return by_order


def _regroup_blocks(table) -> dict[int, int]:
    by_order: Counter[int] = Counter()
    for block in table.blocks:
        orders, counts = np.unique(block.rep_order, return_counts=True)
        for r, c in zip(orders.tolist(), counts.tolist()):
            by_order[r] += c * block.class_length
    return dict(by_order)


CLASS_TABLE_QS = [4, 8, 16, 32, 64, 128, 256]


@pytest.mark.parametrize("q", CLASS_TABLE_QS)
def test_class_table_matches_counts(q):
    table = class_table(q)
    counts = nse_table(q).counts
    assert _regroup_blocks(table) == counts
    if q <= 32:
        assert _regroup_rows(table) == counts


@pytest.mark.parametrize("q", CLASS_TABLE_QS)
def test_family_counts_match_polynomials(q):
    table = class_table(q)
    assert tuple(block.family for block in table.blocks) == CLASS_FAMILIES
    for block in table.blocks:
        assert len(block.rep_order) == family_class_count(q, block.family)
    if q <= 32:
        for family in CLASS_FAMILIES:
            assert sum(1 for r in table if r.family == family) == family_class_count(q, family)


@pytest.mark.parametrize("q", CLASS_TABLE_QS)
def test_class_invariants(q):
    order = group_order(q)
    spec = set(spectrum(q))
    table = class_table(q)
    for block in table.blocks:
        assert set(np.unique(block.rep_order).tolist()) <= spec
        assert order % block.class_length == 0
    if q <= 32:
        for r in table:
            assert r.rep_order in spec
            assert order % r.class_length == 0


def _reference_class_rows(q):
    """The class table row by row, as (family, i, j, rep_order, class_length)
    tuples: the loop form the columnar blocks replaced."""
    qm, qp = q - 1, q + 1
    q2m, q2p = q * q - 1, q * q + 1
    o4 = q**4 - 1
    t1, t2 = range(1, (q - 2) // 2 + 1), range(1, q // 2 + 1)

    def least_in_q_orbit(m):
        return [i for i in range(1, (m - 1) // 2 + 1) if i < q * i % m < m - i]

    half_len = q * q * (q * q - 1) * o4 // 2
    rows = [("A1", None, None, 1, 1), ("A2", None, None, 2, o4), ("A31", None, None, 2, o4),
            ("A32", None, None, 2, (q * q - 1) * o4),
            ("A41", None, None, 4, half_len), ("A42", None, None, 4, half_len)]
    rows += [("B1", i, j, qm // gcd(qm, i, j), q**4 * qp * qp * q2p) for i, j in combinations(t1, 2)]
    rows += [("B2", i, None, q2m // gcd(q2m, i), q**4 * o4) for i in least_in_q_orbit(q2m)]
    rows += [("B3", i, j, q2m // (gcd(qm, i) * gcd(qp, j)), q**4 * o4) for i in t1 for j in t2]
    rows += [("B4", i, j, qp // gcd(qp, i, j), q**4 * qm * qm * q2p) for i, j in combinations(t2, 2)]
    rows += [("B5", i, None, q2p // gcd(q2p, i), q**4 * q2m * q2m) for i in least_in_q_orbit(q2p)]
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
        rows += [(family, i, None, k * m // gcd(m, i), length) for i in params]
    return rows


def _reference_csv(rows):
    """CSV of reference rows through csv.writer, indexing classes within each family."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "i", "j", "rep_order", "class_count_index", "class_length"])
    index_within: dict[str, int] = {}
    for family, i, j, rep_order, class_length in rows:
        k = index_within.get(family, 0)
        index_within[family] = k + 1
        writer.writerow([family, "" if i is None else i, "" if j is None else j,
                         rep_order, k, str(class_length)])
    return buf.getvalue()


@settings(max_examples=20)
@given(f=st.integers(2, 8))
def test_columnar_class_table_equals_row_reference(f):
    q = 1 << f
    table = class_table(q)
    expected = _reference_class_rows(q)
    rows = list(table)
    assert [(r.family, r.i, r.j, r.rep_order, r.class_length) for r in rows] == expected
    assert all(type(v) is int for r in rows for v in (r.i, r.j, r.rep_order) if v is not None)
    # line lists, not two 4 MB strings: pytest's diff of long texts takes minutes
    assert class_table_csv(table).splitlines(True) == _reference_csv(expected).splitlines(True)
    assert len(table) == len(rows) == sum(family_class_count(q, fam) for fam in CLASS_FAMILIES)


def test_class_table_rejects_q_beyond_int64(monkeypatch):
    # the row budget stops the table after q = 2^12, where q * i % m in
    # _least_in_q_orbit stays below q^3/2 = 2^35, so every column fits int64
    def rows(q):
        return sum(family_class_count(q, family) for family in CLASS_FAMILIES)

    budget = sympl._CLASS_TABLE_MAX_ROWS
    assert rows(1 << 12) == 16_785_411 <= budget < rows(1 << 13)
    assert (1 << 12) ** 3 // 2 == 2**35
    # the same budget keeps class_table_csv exact, whose columns must lie below
    # 10^8: for q <= 2^12, i < q^2/2, rep_order <= q^2 + 1 and a block, hence
    # its class_count_index, has fewer than 2^25 rows
    q = 1 << 12
    assert max(q * q // 2, q * q + 1, budget) == 2**25 < 10**8
    for f in range(2, 10):
        q = 1 << f
        for _, i, j, rep, _ in class_table(q).blocks:
            assert all(c.max(initial=0) < q * q // 2 for c in (i, j) if c is not None)
            assert rep.max(initial=0) <= q * q + 1 and len(rep) < budget

    # without numpy any array the table allocates fails with an AttributeError
    monkeypatch.setattr(sympl, "np", None)
    for f in (13, 16, 21, 22):
        with pytest.raises(ValueError, match=f"2\\^25 rows .*q = 2\\^{f} has {rows(1 << f)}$"):
            class_table(1 << f)


def test_nse_table_json():
    obj = nse_table_json(nse_table(4))
    assert obj["q"] == 4
    assert obj["order"] == "979200"
    assert obj["counts"]["17"] == "230400"
    # round-trips through JSON text with key order preserved
    text = json.dumps(obj)
    back = json.loads(text)
    assert {int(k): int(v) for k, v in back["counts"].items()} == NSE4


def test_class_table_csv():
    text = class_table_csv(class_table(4))
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 27
    total = sum(int(r["class_length"]) for r in rows)
    assert total == 979200
    b5_rows = [r for r in rows if r["name"] == "B5"]
    assert [r["class_count_index"] for r in b5_rows] == ["0", "1", "2", "3"]
    a1 = rows[0]
    assert a1["name"] == "A1" and a1["i"] == "" and a1["rep_order"] == "1"


# values whose words differ: 1 and 4 digits, below, at and above 10^4, the largest
CSV_EDGE_VALUES = [0, 9, 9999, 10**4, 10**4 + 1, 10**8 - 1]


@st.composite
def _hand_built_blocks(draw):
    """A ClassBlock of 0-300 rows with or without i and j, in an integer dtype
    that holds [0, 10^8); each column is drawn below a bound on either side of
    10^4, so the writer meets columns with and without a high word."""
    rows = draw(st.integers(0, 300))
    dtype = draw(st.sampled_from([np.int64, np.int32, np.uint32, np.uint64]))
    # drawing 300 values one by one makes an example cost 50 ms; a seeded
    # generator fills the column instead
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def column():
        bound = draw(st.sampled_from([10, 10**4, 10**4 + 2, 10**8]))
        return rng.integers(0, bound, rows).astype(dtype)

    i, j = (column() if draw(st.booleans()) else None for _ in range(2))
    return sympl.ClassBlock(draw(st.sampled_from(CLASS_FAMILIES)), i, j, column(),
                            draw(st.integers(0, 2**256)))


@settings(max_examples=200)
@given(blocks=st.lists(_hand_built_blocks(), max_size=5), family=st.sampled_from(CLASS_FAMILIES))
def test_class_table_csv_equals_reference_on_hand_built_tables(blocks, family):
    edge = np.array(CSV_EDGE_VALUES, dtype=np.int64)
    blocks.append(sympl.ClassBlock(family, edge, edge[::-1].copy(), edge, 2**256))
    table = sympl.ClassTable(tuple(blocks))
    expected = reference.class_table_csv(table)
    assert class_table_csv(table).splitlines(True) == expected.splitlines(True)


@pytest.mark.parametrize("bad", [-1, 10**8])
@pytest.mark.parametrize("column", ["i", "j", "rep_order"])
def test_class_table_csv_rejects_values_it_cannot_print(bad, column):
    values = np.array([5, bad, 7], dtype=np.int64)
    cols = {"i": np.arange(3), "j": np.arange(3), "rep_order": np.arange(3), column: values}
    table = sympl.ClassTable((sympl.ClassBlock("B3", cols["i"], cols["j"], cols["rep_order"], 1),))
    with pytest.raises(ValueError, match=r"^class table column of B3 holds values outside"):
        class_table_csv(table)


@pytest.mark.parametrize("values", [np.array([1.0, 2.0]), np.array([True, False]),
                                    np.array([1, 2], dtype=object)])
def test_class_table_csv_rejects_non_integer_columns(values):
    table = sympl.ClassTable((sympl.ClassBlock("C1", values, None, np.array([1, 3]), 1),))
    with pytest.raises(ValueError, match=r"^class table column of C1 has dtype .* not an integer"):
        class_table_csv(table)


def test_class_table_csv_equals_reference_beyond_the_goldens():
    # the recorded classes/f* digests stop at f = 9; f = 10 has 1,050,627 rows
    table = class_table(1 << 10)
    assert len(table) == 1_050_627
    assert _digest(class_table_csv(table)) == _digest(reference.class_table_csv(table))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _dumps(obj) -> str:
    """JSON text exactly as the compute command writes its files."""
    return json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("f", range(2, 10))
def test_class_table_matches_recorded_digest(f, goldens):
    text = class_table_csv(class_table(1 << f))
    assert _digest(text) == goldens[f"classes/f{f}"]


@pytest.mark.parametrize("f", range(2, 10))
def test_spectrum_matches_recorded_digest(f, goldens):
    q = 1 << f
    obj = {"q": q, "order": str(group_order(q)), "spectrum": [str(r) for r in spectrum(q)]}
    assert _digest(_dumps(obj)) == goldens[f"spectrum/f{f}"]


@pytest.mark.parametrize("f", [*range(2, 27), 32, 40, 48])
def test_nse_table_matches_recorded_digest(f, goldens):
    assert _digest(_dumps(nse_table_json(nse_table(1 << f)))) == goldens[f"nse/f{f}"]
