import random
from bisect import bisect_right
from itertools import accumulate
from math import gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psp4nse.arith import (
    CATALAN_EXCEPTIONAL,
    CATALAN_FERMAT,
    CATALAN_MERSENNE,
    classify_catalan,
    cyclotomic_eval,
    divisor_phi_psi,
    divisors,
    factorize,
    is_prime,
    is_prime_power,
    last_within,
    nth_root,
    power_of_two_exponent,
    prime_power_count,
    divisibility_predicates,
    search_catalan,
    twisted_cyclotomic_eval,
    _prime_pi_table,
    _small_primes,
)
from reference import (
    catalan_by_sieve,
    coprime_part,
    cyclotomic_by_division,
    dedekind_psi,
    eratosthenes,
    euler_phi,
    factorize_by_each_prime,
    order_primes,
    phi_psi,
    prime_power_count_by_table,
)


def test_factorize_basics():
    assert factorize(1).pairs == ()
    assert factorize(979200).pairs == ((2, 8), (3, 2), (5, 2), (17, 1))
    assert factorize(65).pairs == ((5, 1), (13, 1))
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_rejects_non_integers():
    # the check runs on a cache miss; a hit for 12 would return its entry
    factorize.cache_clear()
    for n in (12.0, 2.5, "12"):
        with pytest.raises(TypeError):
            factorize(n)
    assert factorize(np.int64(12)).pairs == ((2, 2), (3, 1))
    assert all(type(p) is int for p in factorize(np.int64(12)).primes)


def _assert_round_trip(n):
    fac = factorize(n)
    assert prod(p**e for p, e in fac) == n
    assert all(a < b for a, b in zip(fac.primes, fac.primes[1:]))
    assert all(is_prime(p) for p in fac.primes)


def test_factorize_reconstructs():
    rng = random.Random(11)
    for _ in range(200):
        _assert_round_trip(rng.randrange(1, 10**12))


def _prime_at_most(x):
    while not is_prime(x):
        x -= 1
    return x


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(2, 2**32 - 1).map(_prime_at_most), st.integers(1, 3)),
                min_size=1, max_size=3))
def test_factorize_round_trips_on_prime_products(powers):
    expected = {}
    for p, e in powers:
        expected[p] = expected.get(p, 0) + e
    n = 1
    for p, e in expected.items():
        n *= p**e
    _assert_round_trip(n)
    assert dict(factorize(n).pairs) == expected


def test_factorize_round_trips_on_cyclotomic_values():
    # factorize(2^98-1) alone spends over a second in rho, so the sweep stops at d = 96
    for d in range(1, 97):
        for n in (2**d - 1, 2**d + 1, cyclotomic_eval(d, 2)):
            _assert_round_trip(n)


def test_small_primes_equal_eratosthenes():
    primes = _small_primes()
    assert list(primes) == eratosthenes(10**6)
    assert len(primes) == 78_498 and primes[-1] == 999_983
    assert all(type(p) is int for p in (primes[0], primes[-1], *primes[255:258]))


@settings(max_examples=100)
@given(st.lists(st.tuples(st.sampled_from(_small_primes()), st.integers(1, 3)),
                min_size=1, max_size=4))
def test_factorize_equals_per_prime_reference_on_sieve_products(powers):
    n = prod(p**e for p, e in powers)
    assert factorize(n) == factorize_by_each_prime(n)


@pytest.mark.parametrize("n", [
    1619**2, 1619 * 1621, 1621**2,  # the end of the first run and the start of the second
    2 * 1619,  # the cut p * p > g takes g = 1619 whole at p = 41
    1613 * 1619, 1621 * 1627, 1619**3,  # 1613, 1619 end the first run; 1621, 1627 start the second
    3 * 999_983,
    999_979 * 999_983, 999_983**2, 999_983 * 1_000_003,  # the end of the sieve
])
def test_factorize_equals_per_prime_reference_on_edges(n):
    assert factorize(n) == factorize_by_each_prime(n)


def test_factorize_equals_per_prime_reference_on_powers_of_two_plus_minus_one():
    # from k = 97 on, rho alone takes a second or more on some of these
    for k in range(1, 97):
        for n in (2**k - 1, 2**k + 1):
            assert factorize(n) == factorize_by_each_prime(n), n


def test_factorize_large_semiprime():
    # both factors above the trial-division sieve
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q).pairs == ((p, 1), (q, 1))


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(17) == [1, 17]


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(_small_primes()[:60]), st.integers(1, 6)), max_size=4))
def test_divisor_phi_psi_equals_reference(powers):
    exponents = dict(powers)
    n = prod(p**e for p, e in exponents.items())
    rows = divisor_phi_psi(n)
    column = [d for d, _, _ in rows]
    assert column == divisors(n)
    # prod(e+1) distinct divisors of n, ascending, are all of them
    assert len(column) == prod(e + 1 for e in exponents.values())
    assert all(a < b for a, b in zip(column, column[1:])) and all(n % d == 0 for d in column)
    assert all((phi, psi) == (euler_phi(d), dedekind_psi(d)) for d, phi, psi in rows)


def test_divisor_phi_psi_edge_cases():
    assert divisor_phi_psi(1) == [(1, 1, 1)]
    assert divisor_phi_psi(12) == [
        (1, 1, 1), (2, 1, 3), (3, 2, 4), (4, 2, 6), (6, 2, 12), (12, 4, 24)]
    with pytest.raises(ValueError):
        divisor_phi_psi(0)


def test_phi_psi_values():
    assert euler_phi(1) == 1 and dedekind_psi(1) == 1
    assert euler_phi(17) == 16 and dedekind_psi(17) == 18
    assert euler_phi(15) == 8
    assert dedekind_psi(6) == 12


def test_phi_psi_multiplicative():
    rng = random.Random(7)
    pairs = []
    while len(pairs) < 300:
        a, b = rng.randrange(1, 10**4), rng.randrange(1, 10**4)
        if gcd(a, b) == 1:
            pairs.append((a, b))
    for a, b in pairs:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)
        assert dedekind_psi(a * b) == dedekind_psi(a) * dedekind_psi(b)


def _random_divisor(data, n):
    d = 1
    for p, e in factorize(n):
        d *= p ** data.draw(st.integers(0, e))
    return d


@settings(max_examples=300)
@given(st.integers(2, 48), st.sampled_from(range(4)), st.data())
def test_phi_psi_over_order_primes_equals_reference(f, which, data):
    q = 1 << f
    n = _random_divisor(data, (2 * (q - 1), 2 * (q + 1), q * q - 1, q * q + 1)[which])
    primes = order_primes(q)
    assert phi_psi(n, primes) == (euler_phi(n), dedekind_psi(n))
    # a prime of n outside the list leaves a cofactor
    outside = data.draw(st.sampled_from(_small_primes()[:200]).filter(lambda p: p not in primes))
    with pytest.raises(ValueError):
        phi_psi(n * outside, primes)
    if n > 1:
        dropped = data.draw(st.sampled_from(factorize(n).primes))
        with pytest.raises(ValueError):
            phi_psi(n, [p for p in primes if p != dropped])


def test_phi_psi_edge_cases():
    assert phi_psi(1, ()) == (1, 1)
    assert phi_psi(2**10 * 3**4, (2, 3, 5)) == (euler_phi(2**10 * 3**4), dedekind_psi(2**10 * 3**4))
    with pytest.raises(ValueError):
        phi_psi(0, (2,))


def test_phi_divisor_sum_identity():
    for n in range(1, 10**4 + 1):
        assert sum(euler_phi(d) for d in divisors(n)) == n


def test_cyclotomic_values():
    assert cyclotomic_eval(1, 5) == 4
    assert cyclotomic_eval(12, 2) == 13
    assert cyclotomic_eval(9, 2) == 73


def test_cyclotomic_equals_divide_out_recursion():
    for x in (2, 3, 4, 2**26 + 5):
        for n in range(1, 241):
            assert cyclotomic_eval(n, x) == cyclotomic_by_division(n, x), (n, x)


def test_cyclotomic_divides_power_minus_one():
    for n in range(1, 65):
        for x in (2, 3, 4, 5):
            assert (x**n - 1) % cyclotomic_eval(n, x) == 0


def test_cyclotomic_product_identity():
    for n in (6, 10, 12, 24, 36):
        for x in (2, 3, 5):
            prod = 1
            for d in divisors(n):
                prod *= cyclotomic_eval(d, x)
            assert prod == x**n - 1


def test_twisted_cyclotomic():
    assert twisted_cyclotomic_eval(6, 1, 3) == 7
    assert twisted_cyclotomic_eval(12, 1, 2) == 13
    assert twisted_cyclotomic_eval(12, -1, 2) == 1
    assert twisted_cyclotomic_eval(6, 1, 5) is None
    with pytest.raises(ValueError):
        twisted_cyclotomic_eval(5, 1, 2)


def test_cyclotomic_eval_answers_no_float_from_its_cache():
    # (3, 2.0) == (3, 2) as a key: an untyped cache returned 7 for the float
    # once the ints were cached, where a cold cache raised TypeError
    cyclotomic_eval.cache_clear()
    assert cyclotomic_eval(3, 2) == 7
    for args in ((3, 2.0), (3.0, 2)):
        with pytest.raises(TypeError):
            cyclotomic_eval(*args)


def test_cyclotomic_eval_takes_its_arguments_through_index():
    # the cache is looked up before the body runs, and (3, 2.0) == (3, 2): a
    # float once cached 7.0 for every later (3, 2), and an int64 argument
    # cached a wrapped value; an exception caches nothing
    cyclotomic_eval.cache_clear()
    with pytest.raises(TypeError):
        cyclotomic_eval(3, 2.0)
    value = cyclotomic_eval(3, 2)
    assert value == 7 and type(value) is int
    x = 1 << 20
    for n in (12, 5):
        value = cyclotomic_eval(n, np.int64(x))
        assert value == cyclotomic_by_division(n, x) and type(value) is int
        assert type(cyclotomic_eval(n, x)) is int
    value = twisted_cyclotomic_eval(12, np.int64(1), np.int64(1 << 21))
    assert value == twisted_cyclotomic_eval(12, 1, 1 << 21) and type(value) is int
    for args in ((6, 1, 3.0), (6, 1.0, 3), (6.0, 1, 3)):
        with pytest.raises(TypeError):
            twisted_cyclotomic_eval(*args)


def test_twisted_product_identity():
    # whenever both signs are defined, the product is the plain cyclotomic value
    for t in range(1, 6):
        x = 3 ** (2 * t + 1)
        plus = twisted_cyclotomic_eval(6, 1, x)
        minus = twisted_cyclotomic_eval(6, -1, x)
        assert plus is not None and minus is not None
        assert plus * minus == cyclotomic_eval(6, x)
    for t in range(1, 6):
        x = 2 ** (2 * t + 1)
        plus = twisted_cyclotomic_eval(12, 1, x)
        minus = twisted_cyclotomic_eval(12, -1, x)
        assert plus * minus == cyclotomic_eval(12, x)


def test_classify_catalan():
    assert classify_catalan(3, 2, 2, 3).kind == CATALAN_EXCEPTIONAL
    assert classify_catalan(17, 2, 1, 4).kind == CATALAN_FERMAT
    assert classify_catalan(2, 7, 3, 1).kind == CATALAN_MERSENNE
    assert classify_catalan(5, 2, 1, 3) is None  # 5 != 9
    assert classify_catalan(4, 3, 1, 1) is None  # 4 not prime


def _brute_catalan(bound):
    """Independent double loop: q prime, q^n + 1 <= bound a prime power."""
    def prime_power(v):
        for p in range(2, isqrt(v) + 1):
            if v % p == 0:
                k = 0
                while v % p == 0:
                    v //= p
                    k += 1
                return (p, k) if v == 1 else None
        return (v, 1)

    def naive_prime(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

    sols = set()
    for q in range(2, bound):
        if not naive_prime(q):
            continue
        power, n = q, 1
        while power + 1 <= bound:
            pk = prime_power(power + 1)
            if pk is not None:
                sols.add((pk[0], q, pk[1], n))
            power *= q
            n += 1
    return sols


def test_search_catalan_small_vs_bruteforce():
    got = {(s.p, s.q, s.m, s.n) for s in search_catalan(10**4)}
    assert got == _brute_catalan(10**4)


def test_search_catalan_million():
    sols = search_catalan(10**6)
    got = {(s.p, s.q, s.m, s.n) for s in sols}
    # independent loop, restricted by parity: odd q forces v = q^n+1 even, so a
    # prime-power value must be a power of 2; q = 2 is scanned directly.
    expected = set()
    n = 1
    while 2**n + 1 <= 10**6:
        v = 2**n + 1
        root = isqrt(v)
        if root * root == v and is_prime(root):
            expected.add((root, 2, 2, n))
        elif is_prime(v):
            expected.add((v, 2, 1, n))
        n += 1
    m = 2
    while 2**m <= 10**6:
        q = 2**m - 1
        if is_prime(q):
            expected.add((2, q, m, 1))
        m += 1
    assert got == expected
    # each solution sits in exactly one clause
    for s in sols:
        flags = [
            (s.p, s.q, s.m, s.n) == (3, 2, 2, 3),
            s.q == 2 and s.m == 1 and s.n & (s.n - 1) == 0,
            s.p == 2 and s.n == 1 and is_prime(s.m),
        ]
        assert sum(flags) == 1, s


@settings(max_examples=60)
@given(bound=st.integers(2, 1 << 17))
def test_search_catalan_equals_the_sieve_walk(bound):
    assert search_catalan(bound) == catalan_by_sieve(bound)


@pytest.mark.parametrize("k", range(1, 20))
def test_search_catalan_equals_the_sieve_walk_around_powers_of_two(k):
    for bound in ((1 << k) - 1, 1 << k, (1 << k) + 1):
        if bound >= 2:
            assert search_catalan(bound) == catalan_by_sieve(bound), bound


def test_search_catalan_factors_only_two_to_the_k_plus_or_minus_one():
    # the sieve walk filled the whole 65,536-entry cache at 10^6; parity leaves
    # 2^k + 1 and 2^k - 1 for k <= 19, 36 distinct values (2^1 + 1 = 2^2 - 1)
    factorize.cache_clear()
    search_catalan(10**6)
    assert factorize.cache_info().currsize <= 40


def test_search_catalan_rejects_non_integer_and_out_of_range_bounds():
    with pytest.raises(TypeError):
        search_catalan(1000.0)
    for bound in (1, 0, -5):
        with pytest.raises(ValueError, match="bound must be >= 2"):
            search_catalan(bound)
    with pytest.raises(ValueError, match="search bound above 1000000 is unsupported"):
        search_catalan(10**6 + 1)
    assert search_catalan(np.int64(1000)) == search_catalan(1000)


def test_divisibility_predicates_witnesses():
    rep4 = divisibility_predicates(4)
    # 3q^2+2 = 50 divides |Sp4(4)| = 979200 = 50 * 19584
    assert rep4["iv"].divisor == 50 and rep4["iv"].divides and rep4["iv"].remainder == 0
    assert not rep4["i"].divides and rep4["i"].remainder == 5
    rep8 = divisibility_predicates(8)
    assert not rep8["ii"].divides
    with pytest.raises(ValueError):
        divisibility_predicates(2)
    with pytest.raises(ValueError):
        divisibility_predicates(12)


@pytest.mark.parametrize("q", [np.int64(16), np.uint64(16), 16.0])
def test_every_q_taking_function_raises_type_error_for_a_q_that_is_no_int(q):
    # a numpy q once raised AttributeError (bit_length); q is not converted,
    # since np.int64(1 << 16) ** 4 wraps to 0.  A cached q would return before
    # validate_q runs.
    from psp4nse.characterize import build_A_sets, eliminate_family, frobenius_exclusion
    from psp4nse.oracle import sp4_generators
    from psp4nse.primegraph import prime_graph, separation_check
    from psp4nse.sympl import (class_table, family_class_count, group_order, nse_set,
                               nse_table, spectrum)

    spectrum.cache_clear()
    build_A_sets.cache_clear()
    for fn in (group_order, spectrum, nse_table, nse_set, class_table,
               lambda q: family_class_count(q, "A1"), prime_graph, separation_check,
               build_A_sets, frobenius_exclusion, lambda q: eliminate_family(q, "PSL"),
               sp4_generators, divisibility_predicates):
        with pytest.raises(TypeError, match=type(q).__name__):
            fn(q)


def test_divisibility_predicates_pattern():
    # q^2+2 and 3q^2+2 divide only at q = 4; the others never divide (q > 2)
    for f in range(2, 11):
        rep = divisibility_predicates(1 << f)
        assert not rep["i"].divides
        assert rep["ii"].divides == (f == 2)
        assert not rep["iii"].divides
        assert rep["iv"].divides == (f == 2)
        assert not rep["v"].divides


def test_misc_helpers():
    assert power_of_two_exponent(64) == 6
    assert power_of_two_exponent(12) is None
    assert nth_root(10**18, 3) == 10**6
    assert nth_root(26, 3) == 2
    assert is_prime_power(81) == (3, 4)
    assert is_prime_power(12) is None
    assert coprime_part(979200, 10) == 9 * 17


@settings(max_examples=300)
@given(st.integers(0, 2**4096 - 1), st.integers(1, 200))
def test_nth_root_brackets_the_root(n, k):
    r = nth_root(n, k)
    assert r**k <= n < (r + 1) ** k


def test_nth_root_rejects_bad_arguments():
    for n, k in ((-1, 2), (5, 0)):
        with pytest.raises(ValueError):
            nth_root(n, k)
    # n and k go through operator.index: a float is refused, a bool is an int
    for n, k in ((2.0**60, 2), (2**60, 2.0)):
        with pytest.raises(TypeError):
            nth_root(n, k)
    root = nth_root(True, 2)
    assert root == 1 and type(root) is int


def test_nth_root_of_large_powers():
    # the bit bisection that Newton replaced took over a second for the first
    # and over 20 s for the fifth root of 2^200000 on a 2-vCPU Xeon
    r = nth_root(3**20000, 3)
    assert r**3 <= 3**20000 < (r + 1) ** 3
    assert nth_root(3**20001, 3) == 3**6667
    assert nth_root(3**20001 - 1, 3) == 3**6667 - 1
    assert nth_root(2**200000, 5) == 2**40000
    assert nth_root(2**200000 - 1, 5) == 2**40000 - 1


@settings(max_examples=300)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=40), st.integers(1, 64), st.data())
def test_last_within_equals_a_linear_scan(steps, degree, data):
    # a nondecreasing fn from the step sizes, strictly increasing past them;
    # the degree only moves the start, nth_root(bound, degree), below, at or
    # above the answer, so any degree must give the scan's answer
    values = list(accumulate(steps))

    def fn(x):
        return values[x] if x < len(values) else values[-1] + x

    bound = data.draw(st.integers(fn(1), fn(1) + 60), label="bound")
    scan = 1
    while fn(scan + 1) <= bound:
        scan += 1
    seen = []
    assert last_within(lambda x: seen.append(x) or fn(x), bound, degree) == scan
    assert 1 not in seen


def test_last_within_never_evaluates_fn_at_lo():
    # fn(1) <= bound is the caller's premise, so the lower end 1 is never evaluated
    def fn(x):
        assert x > 1, x
        return x * x - 1

    for degree in (1, 2, 3, 64):
        assert last_within(fn, 30, degree) == 5
        assert last_within(fn, 3, degree) == 2
        # fn(2) > bound: the answer is 1, also from the start max(nth_root(0, degree), 1)
        for bound in (0, 1, 2):
            assert last_within(fn, bound, degree) == 1


def _sieve_pi(v):
    return bisect_right(_small_primes(), v)


@settings(max_examples=300)
@given(st.integers(1, 10**6 - 1))
def test_prime_pi_table_equals_sieve(n):
    small, large = _prime_pi_table(n)
    r = isqrt(n)
    assert len(small) == len(large) == r + 1
    assert [int(v) for v in small] == [_sieve_pi(v) for v in range(r + 1)]
    assert [int(v) for v in large[1:]] == [_sieve_pi(n // i) for i in range(1, r + 1)]


def test_prime_power_count():
    assert [prime_power_count(n) for n in range(-1, 10)] == [0, 0, 0, 1, 2, 3, 4, 4, 5, 6, 7]
    for n in (1000, 65536, 10**6 - 1):
        # each prime p contributes one prime power p^k <= n per k
        by_sieve = 0
        for p in _small_primes()[:_sieve_pi(n)]:
            pk = p
            while pk <= n:
                by_sieve += 1
                pk *= p
        assert prime_power_count(n) == by_sieve
    with pytest.raises(ValueError, match="2\\^62"):
        prime_power_count(1 << 62)


@pytest.mark.parametrize("fn, n", [(is_prime, 7), (is_prime, 91), (prime_power_count, 1000),
                                   (prime_power_count, 10**7)])
def test_is_prime_and_prime_power_count_take_n_through_index(fn, n):
    # is_prime(7.0) was True, and prime_power_count called n.bit_length()
    expected = fn(n)
    assert fn(np.int64(n)) == expected and type(fn(np.int64(n))) is type(expected)
    for bad in (float(n), str(n)):
        with pytest.raises(TypeError):
            fn(bad)


@settings(max_examples=300)
@given(st.integers(1, 10**6 - 1))
def test_prime_power_count_by_sieve_equals_the_table(n):
    # below 10^6 prime_power_count bisects the sieve; the reference reads only
    # the Lucy_Hedgehog table
    assert prime_power_count(n) == prime_power_count_by_table(n)


def test_prime_power_count_across_the_sieve_bound():
    # 10^6 - 1 is counted from the sieve, 10^6 and 10^6 + 1 from the table;
    # neither 10^6 nor 10^6 + 1 = 101 * 9901 is a prime power
    counts = [prime_power_count(n) for n in (10**6 - 1, 10**6, 10**6 + 1)]
    assert counts == [78_734] * 3
    assert counts[0] == prime_power_count_by_table(10**6 - 1)


def test_prime_pi_table_published_values():
    assert int(_prime_pi_table(10**7)[1][1]) == 664_579
    assert int(_prime_pi_table(10**8)[1][1]) == 5_761_455
