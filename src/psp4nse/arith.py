"""Exact integer number theory used throughout the package.

Factorization (trial division by the primes below 10^6, each run of 256
primes tested with one gcd against the run's product, then Pollard-Brent
rho), one divisor walk that gives every divisor of a number with its Euler
phi and Dedekind psi, prime-power counting (pi by bisecting that sieve below
10^6, from the Lucy_Hedgehog table from 10^6 on), exact cyclotomic values
including the twisted factors of Phi_6 and Phi_12, the prime-power equation
p^m = q^n + 1 (by parity p = 2 or q = 2, so only 2^k + 1 and 2^k - 1 are
factored), validation of q = 2^f > 2, and the five divisibility
predicates about q^4(q^4-1)(q^2-1) that `psp4nse selftest` and the
acceptance suite check (the case rows evaluate those clauses).

Two integer searches serve the rest of the package: `nth_root`, the floor of
a k-th root (isqrt for k = 2, else integer Newton from above, O(log) steps),
and `last_within`, the largest x >= 1 with fn(x) <= bound for an increasing
polynomial fn of known degree, galloping from nth_root(bound, degree), a few
units from the answer; the case table of `characterize` solves for each of
its roots and parameter bounds with one call to it.

All arithmetic is exact: arbitrary-precision ints, and int64 arrays below
2^62 in the prime-counting table; nothing here ever goes through floats.
Primality below 2^64 is deterministic Miller-Rabin; above it the test is
probabilistic (64 fixed-seed rounds) and documented as such.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod
from operator import index

import numpy as np

__all__ = [
    "Factorization",
    "CatalanSolution",
    "DivisibilityCheck",
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
    "validate_q",
    "last_within",
    "nth_root",
]

_SIEVE_BOUND = 1_000_000
# factorize tests the sieve primes _RUN at a time, one gcd against each run's
# product: a run that shares no factor with the cofactor costs that one gcd
_RUN = 256
# Deterministic Miller-Rabin witnesses for n < 3.3 * 10^24 (covers 2^64).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXTRA_ROUNDS = 64
_MR_SEED = 0x5CA1AB1E


@lru_cache(maxsize=1)
def _small_primes() -> array:
    """Primes below 10^6, ascending, computed once by a numpy sieve of Eratosthenes.

    Held as array('I'), 4 bytes a prime; its items read as Python ints.
    """
    n = _SIEVE_BOUND
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return array("I", np.flatnonzero(sieve).astype(np.uint32).tobytes())


@lru_cache(maxsize=1)
def _prime_runs() -> tuple[tuple[int, int], ...]:
    """(start, product) for each run of _RUN sieve primes, from start 0.

    start indexes _small_primes(); the last run holds the primes left over.
    """
    primes = _small_primes()
    return tuple((s, prod(primes[s : s + _RUN])) for s in range(0, len(primes), _RUN))


def is_prime(n: int) -> bool:
    """Miller-Rabin primality: deterministic below 2^64, 64 seeded rounds above."""
    n = index(n)
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
    """Full factorization of n >= 1; n = 1 gives the empty product.

    Trial division tests each run of _RUN sieve primes, the first included,
    with one gcd g against the run's product and divides the cofactor only by
    the primes of g, one at a time until p^2 exceeds what is left of g, which
    is then one prime, taken whole.  Division stops at the first run whose
    least prime squared exceeds the cofactor, which is then 1 or prime; a
    cofactor left after the whole sieve goes to Miller-Rabin and Pollard-Brent
    rho.
    A non-integer n raises TypeError.
    """
    n = index(n)
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    primes = _small_primes()
    out: dict[int, int] = {}
    m = n
    for start, product in _prime_runs():
        if primes[start] ** 2 > m:
            break
        # g is the product of the run's primes that divide m, each once
        g = gcd(m, product)
        if g == 1:
            continue
        for p in primes[start : start + _RUN]:
            if p * p > g:
                p = g  # every prime factor of g is at least p, so g is prime
            if g % p == 0:
                g //= p
                while m % p == 0:
                    out[p] = out.get(p, 0) + 1
                    m //= p
                if g == 1:
                    break
    else:
        # m outlived the whole sieve: Miller-Rabin and rho split it
        stack, m = [m], 1
        while stack:
            v = stack.pop()
            if is_prime(v):
                out[v] = out.get(v, 0) + 1
            elif v > 1:  # the last run can divide m down to 1
                d = _pollard_brent(v)
                stack.append(d)
                stack.append(v // d)
    if m > 1:
        # trial division reached sqrt(m), so the cofactor is prime
        out[m] = out.get(m, 0) + 1
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
    """The number of prime powers p^k (k >= 1) in 2..n: the sum over k of pi(n^(1/k)),
    each pi a bisection of the sieve below 10^6, else read from the Lucy table of n."""
    n = index(n)
    if n < 2:
        return 0
    if n < _SIEVE_BOUND:
        primes = _small_primes()
        return sum(bisect_right(primes, nth_root(n, k)) for k in range(1, n.bit_length()))
    small, large = _prime_pi_table(n)
    # every k-th root with k >= 2 is at most isqrt(n), inside the small table
    return int(large[1]) + sum(int(small[nth_root(n, k)]) for k in range(2, n.bit_length()))


@lru_cache(maxsize=4096, typed=True)
def cyclotomic_eval(n: int, x: int) -> int:
    """Phi_n(x) exactly, as the Moebius product over squarefree e | n.

    Phi_n(x) = prod (x^(n/e) - 1)^mu(e): the factors with mu(e) = +1 are
    multiplied into a numerator, those with mu(e) = -1 into a denominator, and
    one exact division gives the value.  The squarefree divisors are the
    subsets of factorize(n).primes.  n and x go through operator.index on a
    miss, and the cache keys on their types, so a float always misses, raises
    TypeError and caches nothing, even after the equal ints were cached.
    """
    n, x = index(n), index(x)
    if n < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {n}")
    if x < 2:
        raise ValueError(f"cyclotomic argument must be >= 2, got {x}")
    if n == 1:
        return x - 1
    squarefree = [(1, 1)]  # (e, mu(e))
    for p in factorize(n).primes:
        squarefree += [(e * p, -mu) for e, mu in squarefree]
    numerator = denominator = 1
    for e, mu in squarefree:
        if mu > 0:
            numerator *= x ** (n // e) - 1
        else:
            denominator *= x ** (n // e) - 1
    value, rem = divmod(numerator, denominator)
    if rem:
        raise ArithmeticError(f"inexact cyclotomic division at n={n}, x={x}")
    return value


def twisted_cyclotomic_eval(n: int, sign: int, x: int) -> int | None:
    """Twisted factor of Phi_6 or Phi_12 at x, or None when undefined.

    Phi_6^e(x)  = x + e*sqrt(3x) + 1, defined when 3x is a perfect square;
    Phi_12^e(x) = x^2 + e*x*sqrt(2x) + x + e*sqrt(2x) + 1, when 2x is a square.
    Whenever both signs are defined their product is the plain cyclotomic value.
    """
    n, sign, x = index(n), index(sign), index(x)
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
    """All solutions p^m = q^n + 1 with p^m <= bound, classified.

    Odd p and q would make p^m odd and q^n + 1 even, so only 2^k + 1 (q = 2)
    and 2^k - 1 (p = 2) with 2^k <= bound are factored.  A non-integer
    bound raises TypeError.
    """
    bound = index(bound)
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    if bound > _SIEVE_BOUND:
        # factoring 2^k +- 1 grows costly with k (rho stalls on 2^128 + 1)
        raise ValueError(f"search bound above {_SIEVE_BOUND} is unsupported")
    found = []
    for k in range(1, bound.bit_length()):  # every k with 2^k <= bound
        if (1 << k) < bound and (pm := is_prime_power((1 << k) + 1)):
            found.append(classify_catalan(pm[0], 2, pm[1], k))
        if qn := is_prime_power((1 << k) - 1):
            found.append(classify_catalan(2, qn[0], k, qn[1]))
    return sorted(found, key=lambda s: (s.value, s.q, s.n))


@dataclass(frozen=True)
class DivisibilityCheck:
    """Outcome of one division: whether divisor | dividend, and the remainder."""

    label: str
    divisor: int
    divides: bool
    remainder: int

    @classmethod
    def of(cls, label: str, dividend: int, divisor: int) -> DivisibilityCheck:
        rem = dividend % divisor
        return cls(label, divisor, rem == 0, rem)


def power_of_two_exponent(q: int) -> int | None:
    """f with q = 2^f, or None if q is not a power of two (q >= 1)."""
    if q < 1 or q & (q - 1):
        return None
    return q.bit_length() - 1


def _integers(values):
    """The collection values itself when every value is a Python int, else its
    values as a list of ints: numpy integers are converted, and any other
    non-integer (a float, say) raises TypeError."""
    # a type test per value is cheaper than a conversion, and plain ints are the rule
    return values if set(map(type, values)) <= {int} else list(map(index, values))


def validate_q(q: int) -> int:
    """Return f for q = 2^f with f >= 2, else raise: TypeError for a q that is
    no int.  q is not converted, since callers compute q**4 in q's own type."""
    if not isinstance(q, int):
        raise TypeError(f"q must be an int, got {type(q).__name__}")
    f = power_of_two_exponent(q)
    if f is None or f < 2:
        raise ValueError(f"q must be a power of 2 greater than 2, got {q}")
    return f


def divisibility_predicates(q: int) -> dict[str, DivisibilityCheck]:
    """Divisibility of the five test values into q^4(q^4-1)(q^2-1), by label "i".."v".

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
    return {label: DivisibilityCheck.of(label, dividend, d) for label, d in values}


def last_within(fn, bound: int, degree: int) -> int:
    """The largest x >= 1 with fn(x) <= bound, for increasing fn with fn(1) <= bound.

    fn(1) is never evaluated, so the result is 1 when fn(2) > bound.  The
    search starts at max(nth_root(bound, degree), 1), a few units from the
    answer when fn has the given degree: from a start within bound it gallops
    up in steps 1, 2, 4, ... until fn passes bound, from one above bound it
    walks down in such steps (never below 1), and then it halves the step
    back to 1.  A wrong degree costs evaluations, never a wrong answer.
    """
    x = max(nth_root(bound, degree), 1)
    if x > 1 and fn(x) > bound:
        # walk down to a point within bound, or to 1; then x + step >= top
        top, step = x, 1
        while (x := max(top - step, 1)) > 1 and fn(x) > bound:
            top, step = x, step << 1
    else:
        step = 1
        while fn(x + step) <= bound:
            x += step
            step <<= 1
    while step > 1:
        step >>= 1
        if fn(x + step) <= bound:
            x += step
    return x


def nth_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0 (exact integer arithmetic).

    isqrt for k = 2.  For k >= 3, integer Newton from above: from the power of
    two 2^ceil(b/k) >= n^(1/k), b the bit length of n, each step
    x -> ((k-1) x + n // x^(k-1)) // k stays at or above the floor of the root
    (AM-GM) and falls strictly while x is above it, so the first step that
    does not fall stops at the floor.  Non-integer arguments raise TypeError.
    """
    n, k = index(n), index(k)
    if n < 0 or k < 1:
        raise ValueError(f"nth_root requires n >= 0, k >= 1, got {n}, {k}")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return isqrt(n)
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x
