import hashlib
import json
import sys
from bisect import bisect_right
from itertools import combinations, compress
from math import isqrt, lcm, prod
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from psp4nse import arith
from psp4nse import families as fam
from psp4nse.arith import cyclotomic_eval, is_prime_power, prime_divisors
from psp4nse.characterize import (
    CONFIRMING,
    ELIMINATED,
    FAMILIES,
    NEEDS_MANUAL_LEMMA,
    OUTCOME_HYPOTHESES_NOT_MET,
    OUTCOME_ISOMORPHIC,
    OUTCOME_NOT_APPLICABLE,
    build_A_sets,
    characterize,
    eliminate_family,
    frobenius_exclusion,
    match_order,
    prime_count_membership,
    verdict_json,
)
from psp4nse.families import (
    E_GROUP_CASES,
    SPORADIC_GROUPS,
    TITS_GROUP,
    order_2E6,
    order_3D4,
    order_E6,
    order_E7,
    order_E8,
    order_F4,
    order_G2,
)
from psp4nse.primegraph import build_graph, separation_check
from psp4nse.sympl import _order_classes, group_order, nse_set, nse_table, spectrum


def test_build_a_sets_q4():
    a = build_A_sets(4)
    assert a.a1 == {1}
    assert a.a2 == {4335}
    assert a.a3 == {61200}
    assert a.a4 == {10880}
    assert a.a5 == {52224}
    assert a.a9 == {230400}
    assert frozenset().union(*a) == nse_set(4)


def test_build_a_sets_q8():
    a = build_A_sets(8)
    assert a.a4 == {66493440}  # single divisor r = 7 of q-1
    assert len(a.a4) == 1
    assert a.a9 == {16257024, 48771072, 195084288}
    assert frozenset().union(*a) == nse_set(8)


def test_build_a_sets_is_cached_per_q():
    build_A_sets.cache_clear()
    a = build_A_sets(64)
    assert build_A_sets(64) is a
    assert build_A_sets(128) is not a
    info = build_A_sets.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (1, 2, 64)
    with pytest.raises(ValueError):
        build_A_sets(6)


def test_only_q_minus_1_q_plus_1_and_q2_plus_1_are_factored(monkeypatch):
    # at f = 61, q^2-1 = 3 * (2^61-1) * 768614336404564651 has two prime factors
    # near 2^60, which rho does not split in minutes; q-1 and q+1 apart are easy
    q = 1 << 61
    pieces = (q - 1, q + 1, q * q + 1)
    real = arith.factorize

    def guarded(n):
        if all(piece % n for piece in pieces):
            raise AssertionError(f"factorize({n}) divides none of q-1, q+1, q^2+1")
        return real(n)

    # every package module that binds the name, arith always; the package
    # re-exports the function characterize under its module's name
    modules = [mod for name, mod in sys.modules.items()
               if name.startswith("psp4nse.") and getattr(mod, "factorize", None) is real]
    assert arith in modules
    for mod in modules:
        monkeypatch.setattr(mod, "factorize", guarded)
    real.cache_clear()
    spectrum.cache_clear()
    build_A_sets.cache_clear()
    table = nse_table(q)
    build_A_sets(q)
    assert separation_check(q)
    assert table.counts[q * q - 1] > 0
    graph = build_graph(set(spectrum(q)), group_order(q))
    assert graph.order_components[-1] == q * q + 1


@pytest.mark.parametrize("f", [*range(2, 49), 61])
def test_a_sets_equal_the_clause_by_clause_reference(f):
    # the A-sets read the order classes that nse_table and nse_set read; the
    # reference restates each clause's formula, so this is the cross-check
    q = 1 << f
    assert tuple(build_A_sets(q)) == reference.a_sets(q)


@pytest.mark.parametrize("f", range(2, 49))
def test_description_reads_equal_the_keyed_table(f):
    q = 1 << f
    table = nse_table(q)
    assert nse_set(q) == table.value_set()
    for cls in _order_classes(q):
        if len(cls.scales) == 1:
            k = cls.scales[0][0]
            assert all(cls.count_at(k * d) == table.counts[k * d] for d in cls.orders)


@pytest.mark.parametrize("f", [32, 40, 48])
def test_prime_count_checks_read_the_keyed_counts(f):
    # the verdict goldens pin these values for f <= 26
    q = 1 << f
    counts = nse_table(q).counts
    checks = characterize(group_order(q), nse_set(q)).trace.prime_count_checks
    primes = {2, *prime_divisors(q - 1), *prime_divisors(q + 1), *prime_divisors(q * q + 1)}
    assert sorted(c.r for c in checks) == sorted(primes)
    assert all(c.value == counts[c.r] and c.ok for c in checks)


def test_characterize_never_builds_the_keyed_table(monkeypatch, goldens):
    def refuse(q):
        raise AssertionError(f"nse_table({q}) called")

    # every package module that binds the name, sympl always
    modules = [mod for name, mod in sys.modules.items()
               if name.startswith("psp4nse") and getattr(mod, "nse_table", None) is nse_table]
    assert sys.modules["psp4nse.sympl"] in modules
    for mod in modules:
        monkeypatch.setattr(mod, "nse_table", refuse)
    build_A_sets.cache_clear()
    for f in range(2, 27):
        q = 1 << f
        text = json.dumps(verdict_json(characterize(group_order(q), nse_set(q))), indent=2) + "\n"
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == goldens[f"verdict/f{f}"]
    verdict = characterize(979200, {1, 2, 3})
    assert (verdict.outcome, verdict.reason) == (
        OUTCOME_HYPOTHESES_NOT_MET,
        "nse set differs from nse(PSp4(4)): missing [4335, 10880, 52224], unexpected [2, 3]",
    )


@pytest.mark.parametrize("f", [2, 10])
def test_characterize_builds_the_order_classes_once(monkeypatch, f):
    # one description serves the nse comparison, the A-sets and the prime
    # counts; at f = 2, q^2+1 = 17 is prime and the PSL2(q') case reads the A-sets
    mod = sys.modules["psp4nse.characterize"]
    built, real = [], mod._order_classes
    monkeypatch.setattr(mod, "_order_classes", lambda q: built.append(q) or real(q))
    build_A_sets.cache_clear()
    q = 1 << f
    assert characterize(group_order(q), nse_set(q)).outcome == OUTCOME_ISOMORPHIC
    assert built == [q]


@pytest.mark.parametrize("q", [4, 8, 16, 32])
def test_a_sets_partition_nse(q):
    a = build_A_sets(q)
    assert frozenset().union(*a) == nse_set(q)
    assert len(a.a2) == 1 and len(a.a3) == 1
    # indexed construction reproduces the count formulas value-for-value
    table = nse_table(q)
    assert table.counts[2] in a.a2
    assert table.counts[4] in a.a3


def test_match_order():
    assert match_order(979200) == 4
    assert match_order(979201) is None
    assert match_order(1056706560) == 8
    assert match_order(group_order(1 << 12)) == 1 << 12
    assert match_order(84) is None
    for f in range(2, 65):
        n = group_order(1 << f)
        assert match_order(n) == 1 << f
        # same 2-part as some |PSp4(2^e)| but a different odd part
        assert match_order(3 * n) is None and match_order(16 * n) is None
    with pytest.raises(ValueError):
        match_order(0)
    with pytest.raises(ValueError):
        match_order(-979200)


def _match_order_by_scan(n):
    # the loop match_order replaced: walk f upward until |PSp4(2^f)| reaches n
    f = 2
    while True:
        v = group_order(1 << f)
        if v >= n:
            return 1 << f if v == n else None
        f += 1


@settings(max_examples=400)
@given(
    st.one_of(
        st.tuples(st.integers(2, 64), st.integers(-(1 << 16), 1 << 16)).map(
            lambda fd: group_order(1 << fd[0]) + fd[1]
        ),
        st.integers(1, 1 << 40),
    )
)
def test_match_order_equals_scan(n):
    assert match_order(n) == _match_order_by_scan(n)


def test_prime_count_membership():
    assert prime_count_membership(4, 2, 4335)
    assert prime_count_membership(4, 17, 230400)
    assert not prime_count_membership(4, 17, 4335)
    assert prime_count_membership(4, 5, 52224)
    assert prime_count_membership(4, 3, 10880)
    with pytest.raises(ValueError):
        prime_count_membership(4, 7, 1)  # 7 divides neither q^2-1 nor q^2+1
    with pytest.raises(ValueError):
        prime_count_membership(4, 15, 1)  # not prime


@pytest.mark.parametrize("q", [4, 8, 16])
def test_frobenius_exclusion(q):
    excluded, checks = frobenius_exclusion(q)
    assert excluded
    assert all(not c.divides for c in checks)
    if q == 4:
        assert checks[0].remainder == 3  # 57599 mod 17


def test_eliminate_alternating_q4():
    entries = eliminate_family(4, "Alternating")
    by_case = {e.case: e for e in entries}
    assert all(e.status == ELIMINATED for e in entries)
    # q^2+1 = 17 is prime, killed through q^4 - 9 = 247
    assert "247" in by_case["q^2+1 = p"].witness
    # q^2+3 = 19 is prime but does not divide |G|
    assert "19" in by_case["q^2+1 = p-2"].witness


def test_eliminate_sporadic_q4():
    entries = eliminate_family(4, "Sporadic")
    assert len(entries) == len(SPORADIC_GROUPS)
    assert all(e.status == ELIMINATED for e in entries)
    # the groups with 17 as an odd component survive membership and die by order
    matched = {e.case for e in entries if "does not divide" in e.witness}
    assert {"J3", "He", "Fi23", "Fi24'"} <= matched


def test_eliminate_tits():
    for q in (4, 8):
        (entry,) = eliminate_family(q, "Tits")
        assert entry.status == ELIMINATED


def test_eliminate_exceptional_2e6_membership():
    # q=4 hits the 17 in the 2E6(2) component list; order divisibility kills it
    entries = eliminate_family(4, "Exceptional")
    e = next(x for x in entries if x.case == "2E6(2)")
    assert e.status == ELIMINATED
    assert "does not divide" in e.witness


def test_eliminate_exceptional_suzuki_q8():
    # q'^2+1 = 65 hits at q' = q = 8; the Sylow count argument kills it
    entries = eliminate_family(8, "Exceptional")
    e = next(x for x in entries if x.case == "2B2(q')")
    assert e.status == ELIMINATED
    assert "q'=8" in e.witness


def test_eliminate_psl_q4():
    entries = eliminate_family(4, "PSL")
    by_case = {e.case: e for e in entries}
    psl217 = by_case["PSL2(q'), q' = q^2+1"]
    assert psl217.status == ELIMINATED
    assert "min(A4 u A5) = 10880 > 400" in psl217.witness
    confirming = [e for e in entries if e.status == CONFIRMING]
    assert [e.case for e in confirming] == ["PSL2(q^2)"]


def test_eliminate_psp_q4():
    entries = eliminate_family(4, "PSp")
    confirming = [e for e in entries if e.status == CONFIRMING]
    assert [e.case for e in confirming] == ["PSp4(q)"]
    assert "H = 1" in confirming[0].witness
    assert all(e.status in (ELIMINATED, CONFIRMING) for e in entries)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("q", [4, 8])
def test_every_family_resolves(q, family):
    entries = eliminate_family(q, family)
    assert entries
    assert all(e.status != NEEDS_MANUAL_LEMMA for e in entries)
    assert all(e.witness for e in entries)
    assert all(e.anchor for e in entries)


def test_eliminate_family_rejects_unknown():
    with pytest.raises(ValueError):
        eliminate_family(4, "Dihedral")


@pytest.mark.parametrize("q", [4, 8, 16, 32])
def test_characterize_positive(q):
    verdict = characterize(group_order(q), nse_set(q))
    assert verdict.outcome == OUTCOME_ISOMORPHIC
    assert verdict.q == q
    trace = verdict.trace
    assert {e.family for e in trace.entries} == set(FAMILIES)
    assert not trace.by_status(NEEDS_MANUAL_LEMMA)
    assert {e.case for e in trace.by_status(CONFIRMING)} == {"PSL2(q^2)", "PSp4(q)"}
    assert trace.separation
    assert trace.frobenius_excluded
    assert all(c.ok for c in trace.prime_count_checks)


def test_characterize_not_applicable():
    verdict = characterize(84, {1, 2, 6, 12, 14, 28})
    assert verdict.outcome == OUTCOME_NOT_APPLICABLE
    assert verdict.trace is None


def test_characterize_wrong_nse():
    wrong = (nse_set(4) - {4335}) | {4336}
    verdict = characterize(979200, wrong)
    assert verdict.outcome == OUTCOME_HYPOTHESES_NOT_MET


@pytest.mark.parametrize("order, extra", [(979200, 2.5), (979200, 2.0), (979200.0, 1), (84.0, 1)])
def test_characterize_rejects_non_integers(order, extra):
    # a float among the counts once came back as "unexpected [2.5]"
    with pytest.raises(TypeError):
        characterize(order, nse_set(4) | {extra})


def test_characterize_takes_numpy_integers_as_ints():
    verdict = characterize(np.int64(979200), {np.int64(v) for v in nse_set(4)})
    assert verdict.outcome == OUTCOME_ISOMORPHIC and type(verdict.order) is int


@pytest.mark.parametrize("q", [4, 8])
def test_perturbation_soundness(q):
    table = nse_table(q)
    for r in table.counts:
        for delta in (1, -1):
            counts = dict(table.counts)
            counts[r] += delta
            verdict = characterize(group_order(q), set(counts.values()))
            assert verdict.outcome != OUTCOME_ISOMORPHIC, (r, delta)


@settings(max_examples=30)
@given(f=st.integers(9, 40), data=st.data())
def test_perturbed_count_is_not_isomorphic(f, data):
    # one same-order count moved by one, at q well beyond the fixed q = 4, 8
    q = 1 << f
    counts = dict(nse_table(q).counts)
    r = data.draw(st.sampled_from(sorted(counts)), label="r")
    counts[r] += data.draw(st.sampled_from((1, -1)), label="delta")
    assert characterize(group_order(q), set(counts.values())).outcome != OUTCOME_ISOMORPHIC


def test_sporadic_data_validity():
    for grp in SPORADIC_GROUPS + (TITS_GROUP,):
        order = grp.order
        for comp in grp.odd_components:
            pk = is_prime_power(comp)
            assert pk is not None, (grp.name, comp)
            p, _ = pk
            assert p % 2 == 1
            assert order % comp == 0
            assert (order // comp) % p != 0  # full p-part of the order


def test_e_group_lists():
    cases = dict((name, vals) for name, _, vals in E_GROUP_CASES)
    assert set(cases["2E6(2)"]) == {13, 17, 19, 221, 247, 323, 4199}
    assert set(cases["E7(2)"]) == {73, 127, 9271}
    assert set(cases["E7(3)"]) == {757, 1093, 827401}
    # base primes divide the corresponding group orders
    assert order_2E6(2) % (13 * 17 * 19) == 0
    assert order_E7(2) % (73 * 127) == 0
    assert order_E7(3) % (757 * 1093) == 0


def test_verdict_json_shape():
    verdict = characterize(979200, nse_set(4))
    obj = verdict_json(verdict)
    assert obj["outcome"] == "IsomorphicToPSp4"
    assert obj["q"] == 4
    assert obj["order"] == "979200"
    trace = obj["trace"]
    assert trace["a_sets"]["A9"] == ["230400"]
    assert trace["separation_check"] is True
    assert trace["frobenius_exclusion"]["excluded"] is True
    families = {e["family"] for e in trace["families"]}
    assert families == set(FAMILIES)
    st = {e["status"] for e in trace["families"]}
    assert st == {"Eliminated", "Confirming"}


def test_verdict_json_negative():
    obj = verdict_json(characterize(84, {1, 2}))
    assert obj["outcome"] == "NotApplicable"
    assert obj["trace"] is None


def test_counts_match_m_of_order():
    # the A-sets and the nse table read one description of the order classes
    for q in (4, 8, 16):
        a = build_A_sets(q)
        counts = nse_table(q).counts
        assert counts[2] in a.a2
        assert counts[4] in a.a3


# sha256 of the positive verdict_json at f = 27..48, which no golden covers
# (the counted witnesses there come from the Lucy_Hedgehog prime count)
VERDICT_SHA256 = {
    27: "9d4bbfea79c16c54575c5c0ca118b3e41be94ac7a971555900b9aef00e772b45",
    28: "9b0dde424ef13d3845d9cae6e8134e243268b432c8ac9a60bff4adf647e75841",
    29: "25adedc0465b51c8d5c552ff0041592f907f44a53ced6bdbce256419a9e1ec4b",
    30: "3acced94ac3fa6755d6f9d18df6e9c7ecb1d31d70d935d7e04c1c5fa5a38d4b5",
    31: "c2f21e66f812910a8288cea9d2a28fa2349920f6d64e002b38e0c294450aa105",
    32: "9848038c1921c5ee3952828a8633c958f478d935e67dbe2eaf716170593cc109",
    33: "77f90c8416efee16aac7043663976318470a5f57ce6ce5c1c0aba1df7ca298ad",
    34: "40254be79e0cac0d81b82bd5c8b79132e33068f02e5ed57568713c00c60dbe05",
    35: "c8d8208066702cc0590477b7faedf86e55dd6e8125469b858aced60be496d137",
    36: "e7f39080286369dfc20981f131eb6858a680b0f9c8a847831fe7a583b8e03f94",
    37: "705732a7f32b3b7abf1ddb4b1cbc3c5e0d40c1186719166edcf20799e9adc71d",
    38: "255b871c5747a9d0b3a8d3efd4e0e37667191898d70ddba6d946f80c4cc4f550",
    39: "bedb492ca2c350bcbeb18e17f7c94bc79916c31e3101f9806326616bf411cc4c",
    40: "f1be10dd718526e0b7bc8cc65d1cad4de126ea304360661e39f40ee060a59958",
    41: "7bcfa16463c9fc81c6911aa70abf740a65b5d4396a6c9c29484a1a9601db9ec8",
    42: "6e4d724aa79c328650d1512bd43c3f23dacb4f0ffd863c668bd8351a03358638",
    43: "73e9aae016f3f1a029b07d33f6ad5cd752e44be8fd50c2d781e55dc175767438",
    44: "f0c58694e50f001f0a664fa0df673d6d2af2818642269c26539b377a939c414f",
    45: "e1f7da942c8fa66bec0d1023401bb7250ea7ae6420db88e0bbc0ad6e7853df09",
    46: "eaab777854ec0cb9737e95621e4fb36b7f934d1b6a81cbc78b84bdfd775a9cfe",
    47: "438a3ceb8795a2744061e5038fc90ca1347adc433e742c78083fced936c68ee6",
    48: "d0a40429aa1664c82c775d3d92395feb6645cc0681bb47509c318303a6b2a40c",
}


@pytest.mark.parametrize("f", range(2, 49))
def test_verdict_matches_recorded_digest(f, goldens):
    q = 1 << f
    text = json.dumps(verdict_json(characterize(group_order(q), nse_set(q))), indent=2) + "\n"
    expected = VERDICT_SHA256[f] if f in VERDICT_SHA256 else goldens[f"verdict/f{f}"]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected


LCM_1_60 = lcm(*range(1, 61))


@pytest.fixture
def stretched(monkeypatch):
    """The characterize module with validate_q off and |G| = |PSp4(q)| * mult.

    The package re-exports the function `characterize` under the module's
    name, so the module itself comes from sys.modules.
    """
    mod = sys.modules["psp4nse.characterize"]
    monkeypatch.setattr(mod, "validate_q", lambda q: None)

    def set_mult(mult):
        monkeypatch.setattr(mod, "group_order",
                            lambda q: q**4 * (q**4 - 1) * (q**2 - 1) * mult)

    return set_mult


def test_eliminators_differential_digest(stretched):
    # Every case of every family on q well beyond the 2-powers, with |G| as
    # is and multiplied by lcm(1..60) so that the divides-|G| branches fire.
    # PSp and POmega take the exponent of q and are defined on 2-powers only.
    h = hashlib.sha256()
    n = manual = 0
    for mult in (1, LCM_1_60):
        stretched(mult)
        for family in FAMILIES:
            qs = [1 << f for f in range(1, 13)] if family in ("PSp", "POmega") else range(2, 257)
            for q in qs:
                for e in eliminate_family(q, family):
                    h.update(json.dumps([q, mult > 1, family, e.case, e.status, e.witness,
                                         e.anchor]).encode("utf-8"))
                    n += 1
                    manual += e.status == NEEDS_MANUAL_LEMMA
    assert (n, manual) == (30450, 83)
    assert h.hexdigest() == "a4e226c5d0daa1e838acc715ade3745296a5c239a41edb8952990f6ce5f98595"


def _case(q, family, case):
    return next(e for e in eliminate_family(q, family) if e.case == case)


def test_kill_hit_dividing_order_needs_manual_lemma(stretched):
    stretched(LCM_1_60)
    e = _case(2, "Exceptional", "2B2(q')")
    assert (e.status, e.witness) == (NEEDS_MANUAL_LEMMA, "q'=8: |2B2(8)| divides |G|; unresolved")
    e = _case(2, "Sporadic", "M11")
    assert (e.status, e.witness, e.anchor) == (
        NEEDS_MANUAL_LEMMA,
        "|M11| = 7920 divides |G|; no implemented predicate separates it (component 5 matches)",
        "|K/H| must divide |G|",
    )


def test_kill_empty_parameter_stream(stretched):
    stretched(1)
    e = _case(2, "Exceptional", "G2(q')")
    assert (e.status, e.witness, e.anchor) == (
        ELIMINATED,
        "no candidate parameter: the family's minimal order already exceeds |G|",
        "|K/H| must divide |G|",
    )
    e = _case(2, "Exceptional", "2B2(q')")
    assert e.witness == "no candidate parameter: |2B2(8)| already exceeds |G|"


def test_kill_miss():
    e = _case(4, "Exceptional", "G2(q')")
    assert (e.status, e.witness) == (ELIMINATED, "no parameter in {2} yields odd component 17")
    assert e.anchor.startswith("odd-order-component tables")


def test_case_table_is_the_trace_order():
    # one row per (family, case), laid out in the order the trace lists them
    rows = [(row.family, row.case) for row in sys.modules["psp4nse.characterize"]._CASES]
    trace = characterize(group_order(4), nse_set(4)).trace
    assert rows == [(e.family, e.case) for e in trace.entries]
    assert len(set(rows)) == len(rows)


CHARACTERIZE = sys.modules["psp4nse.characterize"]


@pytest.fixture(scope="module")
def scanned_prime_powers():
    # every prime power up to the largest bound drawn, from a sieve of Eratosthenes
    n = 10**6
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    powers = []
    for p in compress(range(n + 1), sieve):
        x = p
        while x <= n:
            powers.append(x)
            x *= p
    return sorted(powers)


@settings(max_examples=300)
@given(bound=st.one_of(st.integers(0, 40), st.integers(0, 10**6)))
def test_prime_power_summary_equals_scan(scanned_prime_powers, bound):
    scanned = scanned_prime_powers[:bisect_right(scanned_prime_powers, bound)]
    summary = CHARACTERIZE._prime_powers_upto(bound)
    assert CHARACTERIZE._fmt_params(summary) == CHARACTERIZE._fmt_params(scanned)
    if len(scanned) <= 8:
        assert summary == scanned
    else:
        assert (summary.last, summary.count) == (scanned[-1], len(scanned))


def _e8_values(x):
    base = [cyclotomic_eval(k, x) for k in (15, 20, 24, 30)]
    return tuple(prod(c) for n in range(1, 5) for c in combinations(base, n))


# the component values each counted row scanned for, with its order polynomial
SCANNED_VALUES = {
    "G2(q')": (order_G2, lambda x: (cyclotomic_eval(3, x), cyclotomic_eval(6, x),
                                    cyclotomic_eval(3, x * x))),
    "3D4(q')": (order_3D4, lambda x: (cyclotomic_eval(12, x),)),
    "F4(q')": (order_F4, lambda x: (x**4 + 1, x**4 - x * x + 1,
                                    x**8 - x**6 + 2 * x**4 - x * x + 1)),
    "E8(q')": (order_E8, _e8_values),
}


@settings(max_examples=200)
@given(
    case=st.sampled_from(sorted(SCANNED_VALUES)),
    bound=st.integers(1, 600),
    x=st.integers(2, 650),
    pick=st.integers(0, 14),
    delta=st.integers(-2, 2),
)
def test_solved_hits_equal_scanned_hits(case, bound, x, pick, delta):
    # a target near one component value of x; x may exceed the bound or be
    # no prime power, and the target may match no value at all
    order_fn, values = SCANNED_VALUES[case]
    vals = values(x)
    target = vals[pick % len(vals)] + delta
    row = next(r for r in CHARACTERIZE._CASES if r.family == "Exceptional" and r.case == case)
    g = SimpleNamespace(n2=target, go=order_fn(bound))
    scanned = [y for y in reference.scanned_run(order_fn, g.go)
               if is_prime_power(y) and target in values(y)]
    assert row.hits(g, row.params(g)) == scanned


# the E6 and 2E6 rows: the order each bounds and the residues of q' it keeps
E6_ROWS = {
    "E6(q'), q' = 0,-1 (mod 3)": (order_E6, lambda x: x % 3 != 1),
    "E6(q'), q' = 1 (mod 3)": (order_E6, lambda x: x % 3 == 1),
    "2E6(q'), q' = 0,1 (mod 3)": (order_2E6, lambda x: x % 3 != 2),
    "2E6(q'), q' = -1 (mod 3)": (order_2E6, lambda x: x % 3 == 2),
}


@settings(max_examples=200)
@given(case=st.sampled_from(sorted(E6_ROWS)), x=st.integers(2, 300), delta=st.integers(-2, 2))
# |E6(q')| is divided by gcd(3, q'-1), so from q' = 72 on it is not
# monotone: |E6(102)| > |E6(103)|, and a run from q' = 2 that stops at the
# first order above |G| would never reach 103.  The example requires it.
@example(case="E6(q'), q' = 1 (mod 3)", x=103, delta=0)
def test_e6_candidates_equal_a_brute_force_list(case, x, delta):
    order_fn, keep = E6_ROWS[case]
    row = next(r for r in CHARACTERIZE._CASES if r.family == "Exceptional" and r.case == case)
    g = SimpleNamespace(go=order_fn(x) + delta)
    params = row.params(g)
    # every candidate is below 400: order_fn(y) > y^78 / 6, and x <= 300
    assert params == [y for y in range(2, 400)
                      if order_fn(y) <= g.go and is_prime_power(y) and keep(y)]
    if delta >= 0 and keep(x) and is_prime_power(x):
        assert x in params


def test_e6_row_at_f52_ends_at_103():
    # |E6(103)| <= |PSp4(2^52)| < |E6(102)|: the row lists 103 after 97
    q = 1 << 52
    row = next(r for r in CHARACTERIZE._CASES if r.case == "E6(q'), q' = 1 (mod 3)")
    params = row.params(CHARACTERIZE._G(q, group_order(q)))
    assert params[-2:] == [97, 103]
    assert order_E6(103) <= group_order(q) < order_E6(102)


# the rows that solve a component quotient (q'^n -+ 1)/(q' -+ 1) per dimension
ROOT_ROWS = ("PSLn(q'), n >= 5 prime", "PSL(p+1)(q')", "PSL3(q'), q' >= 3",
             "PSUn(q'), n = p or p+1", "PSUp(q'), p | q'+1")


@settings(max_examples=200)
@given(case=st.sampled_from(ROOT_ROWS), n=st.sampled_from((3, 5, 7)), sign=st.sampled_from((1, -1)),
       scale=st.sampled_from((1, 3, 5, 7)), delta=st.integers(-1, 1), data=st.data())
def test_root_rows_hits_equal_scanned_hits(case, n, sign, scale, delta, data):
    # a target near (x^n - sign)/(x - sign) / scale, below 2^25, so that a
    # linear scan finds every root of every dimension the row reads
    x = data.draw(st.integers(2, 1 << (24 // (n - 1))), label="x")
    target = max((x**n - sign) // (x - sign) // scale + delta, 1)
    row = next(r for r in CHARACTERIZE._CASES if r.case == case)
    g = SimpleNamespace(n2=target, go=fam.psl_order(14, 2))
    dims = row.params(g)
    solved = row.hits(g, dims)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CHARACTERIZE, "last_within",
                   lambda fn, bound, degree: ([1] + reference.scanned_run(fn, bound))[-1])
        assert row.hits(g, dims) == solved


def test_searched_polynomials_have_their_degree():
    # each search starts at nth_root(target, degree): a wrong degree would
    # quietly start it far from its root, so every annotation is pinned here
    pairs = [*CHARACTERIZE._ORDER_DEGREES.items(), *CHARACTERIZE._G2_COMPONENTS,
             *CHARACTERIZE._3D4_COMPONENTS, *CHARACTERIZE._F4_COMPONENTS,
             *CHARACTERIZE._E8_COMPONENTS]
    pairs += [(lambda y, n=n: CHARACTERIZE._psl_quotient(y, n), n - 1) for n in range(3, 40)]
    pairs += [(lambda y, n=n: CHARACTERIZE._psu_quotient(y, n), n - 1) for n in range(3, 40, 2)]
    assert len(pairs) == 4 + 3 + 1 + 3 + 15 + 37 + 19
    for fn, degree in pairs:
        assert abs(fn(2**32).bit_length() - 32 * degree) <= 2, (fn, degree)


def test_positive_verdict_work_counts():
    # every search starts at nth_root(target, degree) and the E6 and 2E6
    # rows evaluate their order only within their residue class, so a
    # positive verdict at f = 26 misses the cyclotomic cache 59 times and
    # evaluates 154 order polynomials
    q = 1 << 26
    nse = nse_set(q)
    calls = [0]

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == fam.__file__ and "order" in code.co_name:
            calls[0] += 1

    arith.factorize.cache_clear()
    arith.cyclotomic_eval.cache_clear()
    sys.setprofile(profile)
    try:
        verdict = characterize(group_order(q), nse)
    finally:
        sys.setprofile(None)
    assert verdict.outcome == OUTCOME_ISOMORPHIC
    assert arith.cyclotomic_eval.cache_info().misses <= 59
    assert 0 < calls[0] <= 154


def test_g2_witness_at_f32_matches_a_sieve():
    q = 1 << 32
    go = group_order(q)
    bound = 7_597_760
    assert order_G2(bound) <= go < order_G2(bound + 1)
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, bound + 1, p)))
    powers = set()
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            pk = p * p
            while pk <= bound:
                powers.add(pk)
                pk *= p
    count = sieve.count(1) + len(powers)
    last = next(x for x in range(bound, 1, -1) if sieve[x] or x in powers)
    e = _case(q, "Exceptional", "G2(q')")
    assert (e.status, e.witness) == (
        ELIMINATED, f"no parameter in {{2, ..., {last}}} ({count} values) yields odd component {q * q + 1}")
