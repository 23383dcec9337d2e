import csv
import hashlib
import io
import json

import pytest

from psp4nse.arith import divisors, euler_phi, factorize
from psp4nse.sympl import (
    CLASS_FAMILIES,
    class_table,
    class_table_csv,
    family_class_count,
    group_order,
    m_of_order,
    nse_set,
    nse_table,
    nse_table_json,
    spectrum,
)

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


def test_m_of_order_q4():
    for r, expected in NSE4.items():
        assert m_of_order(4, r) == expected
    for bad in (7, 0, -3):
        with pytest.raises(ValueError):
            m_of_order(4, bad)


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
    # m_of_order reads the primes of r, nse_table those of q^2-1 and q^2+1
    q = 1 << f
    table = nse_table(q)
    assert all(m_of_order(q, r) == c for r, c in table.counts.items())


def test_nse_table_leaves_few_factorize_entries():
    # phi and psi come from the primes of q^2-1 and q^2+1, not from
    # factoring each of the 6,927 orders at f = 48
    factorize.cache_clear()
    spectrum.cache_clear()
    nse_table(1 << 48)
    assert factorize.cache_info().currsize <= 12


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


def test_class_table_q4():
    rows = class_table(4)
    assert sum(r.class_length for r in rows) == 979200
    b5 = [r for r in rows if r.family == "B5"]
    assert len(b5) == 4 and all(r.class_length == 57600 for r in b5)
    assert [r for r in rows if r.family == "B1"] == []


@pytest.mark.parametrize("q", [4, 8, 16, 32])
def test_class_table_matches_counts(q):
    rows = class_table(q)
    by_order: dict[int, int] = {}
    for r in rows:
        by_order[r.rep_order] = by_order.get(r.rep_order, 0) + r.class_length
    assert by_order == nse_table(q).counts


@pytest.mark.parametrize("q", [4, 8, 16, 32])
def test_family_counts_match_polynomials(q):
    rows = class_table(q)
    for family in CLASS_FAMILIES:
        assert sum(1 for r in rows if r.family == family) == family_class_count(q, family)


@pytest.mark.parametrize("q", [4, 8, 16, 32])
def test_class_invariants(q):
    order = group_order(q)
    spec = set(spectrum(q))
    for r in class_table(q):
        assert r.rep_order in spec
        assert order % r.class_length == 0


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
