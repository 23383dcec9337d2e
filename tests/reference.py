"""Reference functions that only the tests use.

Each is the textbook definition over the prime factorization, or a former
package path kept as the second side of a differential test: the spectrum
from all five moduli, the class table row by row and its representatives'
orders by one np.gcd per row, the per-family CSV writer, the per-order count
dispatcher with phi and psi by trial division over the order primes, trial
division one sieve prime at a time, the byte-array sieve, the
divide-out recursion for cyclotomic values, the linear scan of a
parameter run q' = 2, 3, ... that the case table's searches replace, and
the Catalan search over every sieve prime q that the parity route
replaces.  No package module calls them, so they live beside the checks
that do.
"""

from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt

import numpy as np

from psp4nse.arith import (
    CatalanSolution,
    Factorization,
    _pollard_brent,
    _prime_pi_table,
    _small_primes,
    classify_catalan,
    divisor_phi_psi,
    divisors,
    factorize,
    is_prime,
    is_prime_power,
    nth_root,
)
from psp4nse.sympl import _exact, spectrum


def euler_phi(n: int) -> int:
    """Euler totient via the product formula."""
    v = n
    for p in factorize(n).primes:
        v = v // p * (p - 1)
    return v


def dedekind_psi(n: int) -> int:
    """Dedekind psi: n * prod_{p | n} (1 + 1/p)."""
    v = n
    for p in factorize(n).primes:
        v = v // p * (p + 1)
    return v


def coprime_part(n: int, k: int) -> int:
    """Largest divisor of n coprime to k."""
    if n < 1:
        raise ValueError(f"coprime_part requires n >= 1, got {n}")
    v = 1
    for p, e in factorize(n):
        if k % p:
            v *= p**e
    return v


def component_count(graph) -> int:
    """The number of connected components of a PrimeGraph."""
    return len(graph.components)


def spectrum_by_moduli(q: int) -> tuple[int, ...]:
    """Element orders of PSp4(q): the divisors of 4, 2(q-1), 2(q+1), q^2-1 and
    q^2+1, each number factored whole."""
    moduli = (4, 2 * (q - 1), 2 * (q + 1), q * q - 1, q * q + 1)
    return tuple(sorted(set().union(*map(divisors, moduli))))


def class_table_csv(table) -> str:
    """CSV text: name,i,j,rep_order,class_count_index,class_length.

    Each family is one format string with its name and class length built in,
    applied to the columns of its block; an absent parameter is an empty field.
    """
    parts = ["name,i,j,rep_order,class_count_index,class_length\n"]
    for family, i, j, rep, length in table.blocks:
        fields = ["" if c is None else "%d" for c in (i, j)]
        fmt = ",".join([family, *fields, "%d,%d", str(length)]) + "\n"
        cols = [c.tolist() for c in (i, j, rep) if c is not None]
        parts.append("".join(map(fmt.__mod__, zip(*cols, range(len(rep))))))
    return "".join(parts)


def class_rows(q: int) -> list[tuple]:
    """The class table row by row, as (family, i, j, rep_order, class_length)
    tuples, each order from math.gcd: the loop form the columnar blocks
    replaced."""
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


def class_blocks_by_gcd(q: int) -> dict[str, tuple]:
    """The B, C and D families of class_table(q) as family -> (i, j, rep_order),
    int64 columns (None for an absent parameter), each representative order
    from one np.gcd per row: m / gcd(i, m), or m / gcd(i, j, m)."""
    qm, qp = q - 1, q + 1
    q2m, q2p = q * q - 1, q * q + 1
    t1 = np.arange(1, (q - 2) // 2 + 1, dtype=np.int64)
    t2 = np.arange(1, q // 2 + 1, dtype=np.int64)

    def pairs(t):
        rows, cols = np.triu_indices(len(t), 1)
        return t[rows], t[cols]

    def least_in_q_orbit(m):
        i = np.arange(1, (m - 1) // 2 + 1, dtype=np.int64)
        qi = q * i % m
        return i[(i < qi) & (qi < m - i)]

    blocks = {}
    i, j = pairs(t1)
    blocks["B1"] = (i, j, qm // np.gcd(np.gcd(i, j), qm))
    i = least_in_q_orbit(q2m)
    blocks["B2"] = (i, None, q2m // np.gcd(i, q2m))
    i, j = np.repeat(t1, len(t2)), np.tile(t2, len(t1))
    blocks["B3"] = (i, j, q2m // (np.gcd(i, qm) * np.gcd(j, qp)))
    i, j = pairs(t2)
    blocks["B4"] = (i, j, qp // np.gcd(np.gcd(i, j), qp))
    i = least_in_q_orbit(q2p)
    blocks["B5"] = (i, None, q2p // np.gcd(i, q2p))
    for family, t, m, k in (("C1", t1, qm, 1), ("C2", t1, qm, 1), ("C3", t2, qp, 1), ("C4", t2, qp, 1),
                            ("D1", t1, qm, 2), ("D2", t1, qm, 2), ("D3", t2, qp, 2), ("D4", t2, qp, 2)):
        blocks[family] = (t, None, k * m // np.gcd(t, m))
    return blocks


def phi_psi(n: int, primes) -> tuple[int, int]:
    """(phi(n), psi(n)) for n >= 1, dividing n only by the given primes.

    primes must be primes; ascending order lets the loop stop early.  A
    cofactor other than 1 means n has a prime outside the list, and raises
    ValueError instead of returning a wrong value.
    """
    if n < 1:
        raise ValueError(f"phi_psi requires n >= 1, got {n}")
    phi = psi = m = n
    for p in primes:
        if m == 1:
            break
        if m % p == 0:
            phi = phi // p * (p - 1)
            psi = psi // p * (p + 1)
            m //= p
            while m % p == 0:
                m //= p
    if m != 1:
        raise ValueError(f"{n} has the cofactor {m} outside the given primes")
    return phi, psi


def order_primes(q: int) -> tuple[int, ...]:
    """{2} u pi(q-1) u pi(q+1) u pi(q^2+1), ascending: every prime of an element order."""
    return tuple(sorted({2}.union(*(factorize(n).primes for n in (q - 1, q + 1, q * q + 1)))))


def m_of_order(q: int, r: int, primes: tuple[int, ...]) -> int:
    """m_r for an element order r of PSp4(q); primes must hold every prime of r.

    Dispatch is by the unique way r sits against q: r in {1,2,4}; odd r
    dividing q^2+1; odd r dividing q^2-1 split coprimely across q-1 and q+1
    (gcd(q-1, q+1) = 1 for even q); or r = 2r' with r' dividing q-1 or q+1.
    The fractional coefficients are cleared into one exact division per order.
    """
    if r == 1:
        return 1
    if r == 2:
        return (q * q + 1) * (q**4 - 1)
    if r == 4:
        return q * q * (q * q - 1) * (q**4 - 1)
    if r % 2 == 0:
        rr = r // 2
        phi = phi_psi(rr, primes)[0]
        if (q - 1) % rr == 0:
            return phi * q**3 * (q + 1) * (q**4 - 1)
        return phi * q**3 * (q - 1) * (q**4 - 1)
    phi, psi = phi_psi(r, primes)
    if (q * q + 1) % r == 0:
        return _exact(phi * q**4 * (q * q - 1) ** 2, 4, f"m_{r}, r | q^2+1")
    r_minus, r_plus = gcd(r, q - 1), gcd(r, q + 1)
    if r_plus == 1:
        # 1 - q(q+1)/2 + q(q+1)/8 psi(r), times 8
        bracket = 8 - 4 * q * (q + 1) + q * (q + 1) * psi
        return _exact(phi * q**3 * (q * q + 1) * (q + 1) * bracket, 8, f"m_{r}, r | q-1")
    if r_minus == 1:
        bracket = 8 - 4 * q * (q - 1) + q * (q - 1) * psi
        return _exact(phi * q**3 * (q * q + 1) * (q - 1) * bracket, 8, f"m_{r}, r | q+1")
    return _exact(phi * q**4 * (q**4 - 1), 2, f"m_{r}, mixed divisor of q^2-1")


def nse_counts(q: int) -> dict[int, int]:
    """The order -> count map of PSp4(q), one order of the spectrum at a time."""
    primes = order_primes(q)
    return {r: m_of_order(q, r, primes) for r in spectrum(q)}


def a_sets(q: int) -> tuple[frozenset[int], ...]:
    """The candidate same-order-count sets A1..A9 of PSp4(q), each clause
    restating its count formula with one exact division."""
    q3, q4 = q**3, q**4
    o4 = q4 - 1
    # A4 and A6 read the divisors of q-1, A5 and A7 those of q+1
    qm = divisor_phi_psi(q - 1)[1:]
    qp = divisor_phi_psi(q + 1)[1:]
    # phi(r) q^3 (q^2+1)(q+-1) (1 - q(q+-1)/2 + q(q+-1)/8 psi(r)), bracket times 8
    a4 = frozenset(
        _exact(phi * q3 * (q * q + 1) * (q + 1) * (8 - 4 * q * (q + 1) + q * (q + 1) * psi), 8, "A4")
        for _, phi, psi in qm
    )
    a5 = frozenset(
        _exact(phi * q3 * (q * q + 1) * (q - 1) * (8 - 4 * q * (q - 1) + q * (q - 1) * psi), 8, "A5")
        for _, phi, psi in qp
    )
    phi_m = {phi for _, phi, _ in qm}
    phi_p = {phi for _, phi, _ in qp}
    return (
        frozenset({1}),
        frozenset({(q * q + 1) * o4}),
        frozenset({q * q * (q * q - 1) * o4}),
        a4,
        a5,
        frozenset(phi * q3 * (q + 1) * o4 for phi in phi_m),
        frozenset(phi * q3 * (q - 1) * o4 for phi in phi_p),
        # gcd(q-1, q+1) = 1, so phi(rs) = phi(r) phi(s)
        frozenset(_exact(a * b * q4 * o4, 2, "A8") for a in phi_m for b in phi_p),
        frozenset(
            _exact(phi * q4 * (q * q - 1) ** 2, 4, "A9") for _, phi, _ in divisor_phi_psi(q * q + 1)[1:]
        ),
    )


def prime_power_count_by_table(n: int) -> int:
    """The number of prime powers in 2..n, every pi read from the
    Lucy_Hedgehog table of n (1 <= n < 2^62)."""
    small, large = _prime_pi_table(n)
    return int(large[1]) + sum(int(small[nth_root(n, k)]) for k in range(2, n.bit_length()))


def eratosthenes(n: int) -> list[int]:
    """The primes below n, from a byte-array sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n, p)))
    return [i for i in range(n) if sieve[i]]


def factorize_by_each_prime(n: int) -> Factorization:
    """factorize(n) by trial division one sieve prime at a time up to the
    cofactor's square root, then Miller-Rabin and Pollard-Brent rho."""
    out: dict[int, int] = {}
    m = n
    exhausted_sieve = True
    for p in _small_primes():
        if p * p > m:
            exhausted_sieve = False
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    if m > 1:
        if not exhausted_sieve:
            out[m] = out.get(m, 0) + 1
        else:
            stack = [m]
            while stack:
                v = stack.pop()
                if is_prime(v):
                    out[v] = out.get(v, 0) + 1
                else:
                    d = _pollard_brent(v)
                    stack.append(d)
                    stack.append(v // d)
    return Factorization(tuple(sorted(out.items())))


@lru_cache(maxsize=None)
def cyclotomic_by_division(n: int, x: int) -> int:
    """Phi_n(x): x^n - 1 divided exactly by Phi_d(x) for every proper divisor d of n."""
    if n == 1:
        return x - 1
    value = x**n - 1
    for d in divisors(n)[:-1]:
        value, rem = divmod(value, cyclotomic_by_division(d, x))
        assert rem == 0, (n, x, d)
    return value


def scanned_run(fn, bound: int) -> list[int]:
    """The run x = 2, 3, ... while fn(x) <= bound, one x at a time: the
    parameters a case row considers, read without any search."""
    run = []
    while fn(x := len(run) + 2) <= bound:
        run.append(x)
    return run


def catalan_by_sieve(bound: int) -> list[CatalanSolution]:
    """search_catalan(bound) by walking every sieve prime q with q + 1 <= bound
    and each power q^n + 1 <= bound that is a prime power (2 <= bound <= 10^6)."""
    found = []
    for q in _small_primes():
        if q + 1 > bound:
            break
        power, n = q, 1
        while power + 1 <= bound:
            pk = is_prime_power(power + 1)
            if pk is not None:
                found.append(classify_catalan(pk[0], q, pk[1], n))
            power *= q
            n += 1
    return sorted(found, key=lambda s: (s.value, s.q, s.n))
