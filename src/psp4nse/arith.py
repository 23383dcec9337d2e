"""Exact integer number theory used throughout the package.

Factorization (trial division backed by a sieve, then Pollard-Brent rho),
one divisor walk that gives every divisor of a number with its Euler phi and
Dedekind psi, prime-power counting, exact cyclotomic values including the
twisted factors of Phi_6 and Phi_12, the prime-power equation p^m = q^n + 1,
and the divisibility predicates about q^4(q^4-1)(q^2-1) that the
characterization pipeline relies on.

All arithmetic is exact: arbitrary-precision ints, and int64 arrays below
2^62 in the prime-counting table; nothing here ever goes through floats.
Primality below 2^64 is deterministic Miller-Rabin; above it the test is
probabilistic (64 fixed-seed rounds) and documented as such.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

__all__ = [
    "Factorization",
    "CatalanSolution",
    "DivisibilityCheck",
    "DivisibilityReport",
    "factorize",
    "divisor_phi_psi",
    "divisors",
    "prime_divisors",
    "is_prime",
    "is_prime_power",
    "prime_power_count",
    "cyclotomic_eval",
    "twisted_cyclotomic_eval",
    "classify_catalan",
    "search_catalan",
    "divisibility_predicates",
    "power_of_two_exponent",
    "last_within",
    "nth_root",
]

_SIEVE_BOUND = 1_000_000
# Deterministic Miller-Rabin witnesses for n < 3.3 * 10^24 (covers 2^64).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXTRA_ROUNDS = 64
_MR_SEED = 0x5CA1AB1E


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    """Primes below 10^6 (sieve of Eratosthenes), computed once."""
    n = _SIEVE_BOUND
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n, p)))
    return tuple(i for i in range(n) if sieve[i])


def is_prime(n: int) -> bool:
    """Miller-Rabin primality: deterministic below 2^64, 64 seeded rounds above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witness(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    bases = list(_MR_BASES)
    if n >= 1 << 64:
        rng = random.Random(_MR_SEED ^ n)
        bases += [rng.randrange(2, n - 1) for _ in range(_MR_EXTRA_ROUNDS)]
    return not any(witness(a) for a in bases)


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs, primes strictly increasing."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


@lru_cache(maxsize=65536)
def factorize(n: int) -> Factorization:
    """Full factorization of n >= 1; n = 1 gives the empty product."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
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
            # trial division reached sqrt(m), so the cofactor is prime
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


def divisor_phi_psi(n: int) -> list[tuple[int, int, int]]:
    """(d, phi(d), psi(d)) for every divisor d of n >= 1, ascending in d.

    phi is Euler's totient and psi Dedekind's.  Both are multiplicative, so
    the rows are built from factorize(n) one prime power at a time:
    phi(p^k) = p^(k-1) (p-1) and psi(p^k) = p^(k-1) (p+1) for k >= 1.
    """
    rows = [(1, 1, 1)]
    for p, e in factorize(n):
        powers = [(1, 1, 1)]
        for _ in range(e):
            pk = powers[-1][0]
            powers.append((pk * p, pk * (p - 1), pk * (p + 1)))
        rows = [(d * pd, phi * pphi, psi * ppsi)
                for d, phi, psi in rows for pd, pphi, ppsi in powers]
    rows.sort()
    return rows


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending: the d column of divisor_phi_psi."""
    return [d for d, _, _ in divisor_phi_psi(n)]


def prime_divisors(n: int) -> list[int]:
    """The primes dividing n, ascending (pi(n))."""
    return list(factorize(n).primes)


def is_prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k, or None when n is not a prime power (or n < 2)."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) != 1:
        return None
    return fac.pairs[0]


_PI_TABLE_LIMIT = 1 << 62


def _prime_pi_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Prime counts at every value floor(n/i), by the Lucy_Hedgehog recursion.

    With r = isqrt(n): small[v] = pi(v) for 0 <= v <= r and large[i] =
    pi(n // i) for 1 <= i <= r (large[0] is unused).  Sieving by each prime p
    <= r takes S(v) -= S(v // p) - pi(p - 1) for every v >= p^2, so the cost
    is O(n^(3/4)) integer operations in O(n^(1/2)) memory.
    """
    if not 1 <= n < _PI_TABLE_LIMIT:
        raise ValueError(f"prime counting needs 1 <= n < 2^62, got {n}")
    r = isqrt(n)
    small = np.arange(-1, r, dtype=np.int64)
    small[0] = 0
    large = np.zeros(r + 1, dtype=np.int64)
    large[1:] = n // np.arange(1, r + 1, dtype=np.int64) - 1
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue  # p is composite
        below = small[p - 1]
        # large before small: each update reads counts of the previous round
        m = min(r, n // (p * p))
        k = min(m, r // p)
        large[1:k + 1] -= large[p:k * p + 1:p] - below
        large[k + 1:m + 1] -= small[n // (np.arange(k + 1, m + 1, dtype=np.int64) * p)] - below
        if p * p <= r:
            small[p * p:] -= small[np.arange(p * p, r + 1, dtype=np.int64) // p] - below
    return small, large


def prime_power_count(n: int) -> int:
    """The number of prime powers p^k (k >= 1) in 2..n: the sum over k of pi(n^(1/k))."""
    if n < 2:
        return 0
    small, large = _prime_pi_table(n)
    # every k-th root with k >= 2 is at most isqrt(n), inside the small table
    return int(large[1]) + sum(int(small[nth_root(n, k)]) for k in range(2, n.bit_length()))


@lru_cache(maxsize=4096)
def cyclotomic_eval(n: int, x: int) -> int:
    """Phi_n(x) exactly, by dividing x^n - 1 by the proper-divisor cyclotomics."""
    if n < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {n}")
    if x < 2:
        raise ValueError(f"cyclotomic argument must be >= 2, got {x}")
    if n == 1:
        return x - 1
    value = x**n - 1
    for d in divisors(n)[:-1]:
        value, rem = divmod(value, cyclotomic_eval(d, x))
        if rem:
            raise ArithmeticError(f"inexact cyclotomic division at n={n}, x={x}")
    return value


def twisted_cyclotomic_eval(n: int, sign: int, x: int) -> int | None:
    """Twisted factor of Phi_6 or Phi_12 at x, or None when undefined.

    Phi_6^e(x)  = x + e*sqrt(3x) + 1, defined when 3x is a perfect square;
    Phi_12^e(x) = x^2 + e*x*sqrt(2x) + x + e*sqrt(2x) + 1, when 2x is a square.
    Whenever both signs are defined their product is the plain cyclotomic value.
    """
    if n not in (6, 12):
        raise ValueError(f"twisted cyclotomic defined for n in (6, 12), got {n}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if x < 2:
        raise ValueError(f"argument must be >= 2, got {x}")
    if n == 6:
        s = isqrt(3 * x)
        if s * s != 3 * x:
            return None
        return x + sign * s + 1
    s = isqrt(2 * x)
    if s * s != 2 * x:
        return None
    return x * x + sign * x * s + x + sign * s + 1


CATALAN_EXCEPTIONAL = "Exceptional"
CATALAN_FERMAT = "Fermat"
CATALAN_MERSENNE = "Mersenne"


@dataclass(frozen=True)
class CatalanSolution:
    """A solution of p^m = q^n + 1 in primes p, q, with its classification."""

    p: int
    q: int
    m: int
    n: int
    kind: str

    @property
    def value(self) -> int:
        return self.p**self.m


def classify_catalan(p: int, q: int, m: int, n: int) -> CatalanSolution | None:
    """Classify a prime-power solution of p^m = q^n + 1, or None if it is not one.

    The three possible shapes: the single exceptional solution 3^2 = 2^3 + 1,
    a Fermat prime p = 2^n + 1 (n a power of 2), or a Mersenne prime
    q = 2^m - 1 (m prime).
    """
    if min(p, q, m, n) < 1:
        return None
    if not (is_prime(p) and is_prime(q)):
        return None
    if p**m != q**n + 1:
        return None
    if (p, q, m, n) == (3, 2, 2, 3):
        return CatalanSolution(p, q, m, n, CATALAN_EXCEPTIONAL)
    if q == 2 and m == 1 and n & (n - 1) == 0:
        return CatalanSolution(p, q, m, n, CATALAN_FERMAT)
    if p == 2 and n == 1 and is_prime(m):
        return CatalanSolution(p, q, m, n, CATALAN_MERSENNE)
    raise AssertionError(f"unclassifiable solution {p}^{m} = {q}^{n}+1")


def search_catalan(bound: int) -> list[CatalanSolution]:
    """All solutions p^m = q^n + 1 with p^m <= bound, classified."""
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    if bound > _SIEVE_BOUND:
        # every base q with q + 1 <= bound must come out of the sieve
        raise ValueError(f"search bound above {_SIEVE_BOUND} is unsupported")
    found: list[CatalanSolution] = []
    for q in _small_primes():
        if q + 1 > bound:
            break
        power = q
        n = 1
        while power + 1 <= bound:
            pk = is_prime_power(power + 1)
            if pk is not None:
                p, m = pk
                sol = classify_catalan(p, q, m, n)
                if sol is None:
                    raise AssertionError(f"search produced non-solution {p, q, m, n}")
                found.append(sol)
            power *= q
            n += 1
    return sorted(found, key=lambda s: (s.value, s.q, s.n))


@dataclass(frozen=True)
class DivisibilityCheck:
    """Outcome of one division: divisor | dividend, with quotient or remainder."""

    label: str
    divisor: int
    divides: bool
    quotient: int | None
    remainder: int

    @classmethod
    def of(cls, label: str, dividend: int, divisor: int) -> DivisibilityCheck:
        """Divide dividend by divisor; the quotient is kept only when exact."""
        quot, rem = divmod(dividend, divisor)
        return cls(label, divisor, rem == 0, quot if rem == 0 else None, rem)


@dataclass(frozen=True)
class DivisibilityReport:
    """The five divisibility clauses about q^4(q^4-1)(q^2-1)."""

    q: int
    checks: tuple[DivisibilityCheck, ...]

    def check(self, label: str) -> DivisibilityCheck:
        for c in self.checks:
            if c.label == label:
                return c
        raise KeyError(label)


def power_of_two_exponent(q: int) -> int | None:
    """f with q = 2^f, or None if q is not a power of two (q >= 1)."""
    if q < 1 or q & (q - 1):
        return None
    return q.bit_length() - 1


def validate_q(q: int) -> int:
    """Return f for q = 2^f with f >= 2, else raise."""
    f = power_of_two_exponent(q)
    if f is None or f < 2:
        raise ValueError(f"q must be a power of 2 greater than 2, got {q}")
    return f


def divisibility_predicates(q: int) -> DivisibilityReport:
    """Divisibility of the five test values into q^4(q^4-1)(q^2-1), with witnesses.

    For q = 2^f > 2 the expected pattern: 2q^2+3 and q^4-9 never divide,
    2q^2+1 never divides, and q^2+2 and 3q^2+2 divide only at q = 4.
    """
    validate_q(q)
    dividend = q**4 * (q**4 - 1) * (q**2 - 1)
    values = (
        ("i", 2 * q * q + 3),
        ("ii", q * q + 2),
        ("iii", 2 * q * q + 1),
        ("iv", 3 * q * q + 2),
        ("v", q**4 - 9),
    )
    checks = tuple(DivisibilityCheck.of(label, dividend, d) for label, d in values)
    return DivisibilityReport(q, checks)


def last_within(fn, bound: int, lo: int = 1) -> int:
    """The largest x >= lo with fn(x) <= bound, for increasing fn with fn(lo) <= bound.

    Gallops from lo with doubling power-of-two steps until fn passes bound,
    then halves the step down to 1, keeping each step that stays within bound.
    """
    step = 1 << (lo.bit_length() - 1)
    while fn(lo + step) <= bound:
        lo += step
        step <<= 1
    while step > 1:
        step >>= 1
        if fn(lo + step) <= bound:
            lo += step
    return lo


def nth_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0 (exact integer arithmetic)."""
    if n < 0 or k < 1:
        raise ValueError(f"nth_root requires n >= 0, k >= 1, got {n}, {k}")
    if k == 1 or n < 2:
        return n
    # 2^((b-1)//k) has k-th power at most 2^(b-1) <= n and its double is above the root;
    # k.__rpow__ is x -> x**k without a Python frame per step
    return last_within(k.__rpow__, n, 1 << ((n.bit_length() - 1) // k))
