"""Reference functions that only the tests use.

Each is the textbook definition over the prime factorization.  No package
module calls them, so they live beside the checks that do.
"""

from psp4nse.arith import divisors, factorize


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
