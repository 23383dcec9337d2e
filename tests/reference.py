"""Reference functions that only the tests use.

Each is the textbook definition over the prime factorization, or a former
package path kept as the second side of a differential test: the spectrum
from all five moduli, the per-family CSV writer, the per-order count
dispatcher with phi and psi by trial division over the order primes, trial
division one sieve prime at a time, the byte-array sieve, and the
divide-out recursion for cyclotomic values.  No package module calls them,
so they live beside the checks that do.
"""

from functools import lru_cache
from math import gcd, isqrt

from psp4nse.arith import (
    Factorization,
    _pollard_brent,
    _small_primes,
    divisors,
    factorize,
    is_prime,
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
