"""Acceptance suite: each criterion runs at its stated tolerance (exact) and
prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

from math import isqrt

from psp4nse.arith import divisors, divisibility_predicates, search_catalan
from psp4nse.characterize import (
    CONFIRMING,
    NEEDS_MANUAL_LEMMA,
    OUTCOME_ISOMORPHIC,
    characterize,
)
from psp4nse.primegraph import build_graph
from psp4nse.sympl import (
    CLASS_FAMILIES,
    class_table,
    family_class_count,
    group_order,
    nse_set,
    nse_table,
    spectrum,
)
from reference import component_count, coprime_part

NSE4 = {1: 1, 2: 4335, 3: 10880, 4: 61200, 5: 52224, 6: 163200, 10: 195840, 15: 261120, 17: 230400}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_oracle_equality(sp44, sp44_hist):
    ok_size = len(sp44) == 979200
    ok_hist = dict(sp44_hist.counts) == NSE4 == nse_table(4).counts
    ok_sum = sp44_hist.total() == 979200
    _report(1, ok_size and ok_hist and ok_sum,
            f"Sp4(4) enumerated {len(sp44)} elements; histogram equals the closed forms key-by-key")


def test_criterion_2_partition_identity():
    ok = True
    for f in range(2, 17):
        counts = nse_table(1 << f).counts
        ok &= tuple(counts) == spectrum(1 << f)
        ok &= sum(counts.values()) == group_order(1 << f)
    _report(2, ok, "the nse table has one count per spectrum order, and the counts sum to"
                   " q^4(q^4-1)(q^2-1), for all f in 2..16")


def test_criterion_3_table_vs_formula():
    ok = True
    for q in (4, 8, 16, 32):
        rows = class_table(q)
        by_order: dict[int, int] = {}
        for r in rows:
            by_order[r.rep_order] = by_order.get(r.rep_order, 0) + r.class_length
        ok &= by_order == nse_table(q).counts
        ok &= all(
            sum(1 for r in rows if r.family == fname) == family_class_count(q, fname)
            for fname in CLASS_FAMILIES
        )
    _report(3, ok, "class-table grouping reproduces every count; family sizes match the polynomials (q = 4, 8, 16, 32)")


def test_criterion_4_spectrum_and_graph():
    ok = spectrum(4) == (1, 2, 3, 4, 5, 6, 10, 15, 17)
    g4 = build_graph(set(spectrum(4)), group_order(4))
    ok &= g4.components == ((2, 3, 5), (17,))
    ok &= g4.order_components == (57600, 17)
    ok &= all(
        component_count(build_graph(set(spectrum(1 << f)), group_order(1 << f))) == 2
        for f in range(2, 13)
    )
    _report(4, ok, "spectrum(4), components {2,3,5} | {17}, order components 57600 | 17, two components through f = 12")


def test_criterion_5_end_to_end_characterization():
    ok = True
    details = []
    for q in (4, 8):
        verdict = characterize(group_order(q), nse_set(q))
        ok &= verdict.outcome == OUTCOME_ISOMORPHIC and verdict.q == q
        nml = verdict.trace.by_status(NEEDS_MANUAL_LEMMA)
        if q == 4:
            ok &= not nml
        confirming = {e.case for e in verdict.trace.by_status(CONFIRMING)}
        ok &= confirming == {"PSL2(q^2)", "PSp4(q)"}
        flips = 0
        table = nse_table(q)
        for r in table.counts:
            counts = dict(table.counts)
            counts[r] += 1
            if characterize(group_order(q), set(counts.values())).outcome != OUTCOME_ISOMORPHIC:
                flips += 1
        ok &= flips == len(table.counts)
        details.append(f"q={q} isomorphic, {len(nml)} unresolved, {flips}/{len(table.counts)} perturbations flip")
    _report(5, ok, "; ".join(details))


def test_criterion_6_order84_pair(hist84_g, hist84_h):
    ok = hist84_g.nse() == frozenset({1, 2, 6, 12, 14, 28})
    ok &= hist84_h.nse() == frozenset({1, 2, 6, 12, 14, 28})
    ok &= hist84_g.power_count(3) == 15
    ok &= hist84_h.power_count(3) == 3
    ok &= hist84_g[28] > 0 and hist84_h[28] == 0
    _report(6, ok, "both order-84 groups give nse {1,2,6,12,14,28}; |G_3| = 15 vs |H_3| = 3; order-28 elements only in one")


def test_criterion_7_number_theory_suite(sp44_hist, hist84_g, hist84_h):
    # search_catalan vs an independent brute double loop (own sieve; an even
    # prime power must be a 2-power, which covers every odd base q exactly)
    def brute(bound):
        sieve = bytearray([1]) * bound
        sieve[0] = sieve[1] = 0
        for p in range(2, isqrt(bound) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(range(p * p, bound, p)))

        def prime_power(v):
            if v % 2 == 0:
                return (2, v.bit_length() - 1) if v & (v - 1) == 0 else None
            for p in range(3, isqrt(v) + 1, 2):
                if v % p == 0:
                    k = 0
                    while v % p == 0:
                        v //= p
                        k += 1
                    return (p, k) if v == 1 else None
            return (v, 1)

        sols = set()
        for q in range(2, bound):
            if not sieve[q]:
                continue
            power, n = q, 1
            while power + 1 <= bound:
                pk = prime_power(power + 1)
                if pk is not None:
                    sols.add((pk[0], q, pk[1], n))
                power *= q
                n += 1
        return sols

    got = {(s.p, s.q, s.m, s.n) for s in search_catalan(10**6)}
    ok = got == brute(10**6)

    for f in range(2, 11):
        rep = divisibility_predicates(1 << f)
        ok &= not rep["i"].divides
        ok &= rep["ii"].divides == (f == 2)
        ok &= not rep["iii"].divides
        ok &= rep["iv"].divides == (f == 2)
        ok &= not rep["v"].divides

    for n in divisors(979200):
        ok &= sp44_hist.power_count(n) % n == 0
    for hist in (hist84_g, hist84_h):
        for n in divisors(84):
            ok &= hist.power_count(n) % n == 0

    go = 979200
    for n in divisors(go):
        total = sum(c for d, c in sp44_hist.counts.items() if d % n == 0)
        if total:
            ok &= total % coprime_part(go, n) == 0

    _report(7, ok, "catalan search matches brute force; divisibility predicates match; |G_n| and multiple-order divisibility hold")
