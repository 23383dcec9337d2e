"""Deciding that a group with a given order and nse set is PSp4(q).

The pipeline: match the order to a q = 2^f > 2, compare the nse set against
the closed forms, then walk the candidate simple sections K/H admitted by the
disconnected-prime-graph classification and kill each family by a decidable
numeric predicate on the odd order component q^2+1 and on order divisibility.
Every candidate family gets a trace entry carrying the numeric witness and the
mathematical fact it leans on; a case the implemented predicates cannot settle
is reported NeedsManualLemma rather than silently dropped.

The two confirming branches are PSL2(q^2) and PSp4(q) itself: both lead to a
group with the order components of PSp4(q), which identifies it by the cited
recognition theorem.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count, filterfalse, takewhile
from math import gcd, isqrt, prod
from typing import Callable, NamedTuple

from . import families as fam
from .arith import (
    DivisibilityCheck,
    _integers,
    divisor_phi_psi,
    is_prime,
    is_prime_power,
    last_within,
    nth_root,
    power_of_two_exponent,
    prime_divisors,
    prime_power_count,
    cyclotomic_eval,
    twisted_cyclotomic_eval,
    validate_q,
)
from .primegraph import separation_check
from .sympl import _order_classes, group_order

__all__ = [
    "AmcSets",
    "TraceEntry",
    "PrimeCountCheck",
    "EliminationTrace",
    "Verdict",
    "FAMILIES",
    "ELIMINATED",
    "CONFIRMING",
    "NEEDS_MANUAL_LEMMA",
    "OUTCOME_ISOMORPHIC",
    "OUTCOME_HYPOTHESES_NOT_MET",
    "OUTCOME_NOT_APPLICABLE",
    "build_A_sets",
    "match_order",
    "prime_count_membership",
    "frobenius_exclusion",
    "eliminate_family",
    "characterize",
    "verdict_json",
]

ELIMINATED = "Eliminated"
CONFIRMING = "Confirming"
NEEDS_MANUAL_LEMMA = "NeedsManualLemma"

OUTCOME_ISOMORPHIC = "IsomorphicToPSp4"
OUTCOME_HYPOTHESES_NOT_MET = "HypothesesNotMet"
OUTCOME_NOT_APPLICABLE = "NotApplicable"

FAMILIES = ("Alternating", "Sporadic", "Tits", "Exceptional", "PSL", "PSU", "PSp", "POmega")

# Anchors name the self-standing mathematical facts each elimination leans on.
AN_OC_TABLES = "odd-order-component tables for simple groups with disconnected prime graph (Kondrat'ev; Williams)"
AN_ORDER_DIV = "|K/H| must divide |G|"
AN_Q4M9 = "q^4-9 never divides q^4(q^4-1)(q^2-1) for q = 2^f"
AN_Q2P2 = "q^2+2 divides q^4(q^4-1)(q^2-1) only for q = 2 or 4"
AN_2Q2P1 = "2q^2+1 divides q^4(q^4-1)(q^2-1) only for q = 2"
AN_2Q2P3 = "2q^2+3 never divides q^4(q^4-1)(q^2-1)"
AN_3Q2P2 = "3q^2+2 divides q^4(q^4-1)(q^2-1) only for q = 4"
AN_SQUARE = "a square between consecutive squares cannot exist"
AN_POWER2 = "q is a power of 2"
AN_CRESCENZO = "Crescenzo's classification of prime solutions of p^m = q^n + 1"
AN_SYLOW = "a fixed-point-free Sylow action makes its order divide the same-order count"
AN_NILPOTENT = "a normal Sylow subgroup of the nilpotent kernel forces a same-order count to divide |H|"
AN_OC_RECOGNITION = "PSp4(q) is recognized among finite groups by its order components"


# the nine candidate-count sets a1..a9, one per class of element orders
AmcSets = NamedTuple("AmcSets", [(f"a{i}", frozenset[int]) for i in range(1, 10)])


@lru_cache(maxsize=64)
def build_A_sets(q: int) -> AmcSets:
    """The candidate same-order-count sets, cached per q (AmcSets is immutable):
    the distinct counts of each class of element orders (sympl._order_classes)."""
    validate_q(q)
    return AmcSets(*(cls.values() for cls in _order_classes(q)))


def match_order(n: int) -> int | None:
    """The unique q = 2^f > 2 with n = q^4(q^4-1)(q^2-1), if any."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    # (q^4-1)(q^2-1) is odd, so the 2-part of |PSp4(2^f)| is exactly 2^(4f)
    v = (n & -n).bit_length() - 1
    if v % 4 or v < 8:
        return None
    q = 1 << (v // 4)
    return q if group_order(q) == n else None


def _count_bucket(q: int, r: int, a: AmcSets) -> tuple[str, frozenset[int], int]:
    """The bucket label of prime r, the same-order counts it allows, and the
    index in _order_classes(q) of the class holding the order r."""
    if r == 2:
        return "A2", a.a2, 1
    if not is_prime(r):
        raise ValueError(f"r must be prime, got {r}")
    if (q * q + 1) % r == 0:
        return "A9", a.a9, 8
    if (q * q - 1) % r == 0:
        return "A4|A5", a.a4 | a.a5, 3 if (q - 1) % r == 0 else 4
    raise ValueError(f"prime {r} divides neither q^2+1 nor q^2-1 for q={q}")


def prime_count_membership(q: int, r: int, value: int) -> bool:
    """Whether a same-order count for prime r can occur: A2 for r = 2, A9 for
    r | q^2+1, A4 u A5 for r | q^2-1."""
    return value in _count_bucket(q, r, build_A_sets(q))[1]


def frobenius_exclusion(q: int) -> tuple[bool, tuple[DivisibilityCheck, ...]]:
    """Rule out a Frobenius group with components {pi(q^2+1), pi(2(q^2-1))}.

    A Frobenius complement divides the kernel order minus one; both assignments
    of {q^2+1, q^4(q^2-1)^2} to (complement, kernel) must fail.
    """
    validate_q(q)
    kernel_big = q**4 * (q * q - 1) ** 2
    comp_small = q * q + 1
    checks = (
        DivisibilityCheck.of("(q^2+1) | q^4(q^2-1)^2 - 1", kernel_big - 1, comp_small),
        DivisibilityCheck.of("q^4(q^2-1)^2 | q^2", comp_small - 1, kernel_big),
    )
    return (not checks[0].divides and not checks[1].divides, checks)


@dataclass(frozen=True)
class TraceEntry:
    family: str
    case: str
    status: str
    witness: str
    anchor: str


@dataclass(frozen=True)
class PrimeCountCheck:
    r: int
    value: int
    bucket: str
    ok: bool


@dataclass(frozen=True)
class EliminationTrace:
    a_sets: AmcSets
    prime_count_checks: tuple[PrimeCountCheck, ...]
    separation: bool
    frobenius_excluded: bool
    frobenius_witnesses: tuple[DivisibilityCheck, ...]
    entries: tuple[TraceEntry, ...]

    def by_status(self, status: str) -> tuple[TraceEntry, ...]:
        return tuple(e for e in self.entries if e.status == status)


@dataclass(frozen=True)
class Verdict:
    outcome: str
    q: int | None
    order: int
    reason: str | None
    trace: EliminationTrace | None


# ---------------------------------------------------------------------------
# search helpers

def _odd_primes():
    return filter(is_prime, count(3, 2))


def _two_powers(start):
    return (start << k for k in count())


def _bounded_params(params, order_fn, bound):
    """Prefix of a parameter stream whose group order stays <= bound.  The
    order must increase along the stream: the prefix ends at the first order
    above bound, so a later parameter within bound would be missed."""
    return list(takewhile(lambda p: order_fn(p) <= bound, params))


def _pp_candidates(bound, order_fn, keep):
    """The prime powers x passing keep with order_fn(x) <= bound, for the E6
    and 2E6 orders, which gcd(3, x -+ 1) divides and so are not monotone.

    The undivided order x^36 prod(x^d -+ 1) over d in {2, 5, 6, 8, 9, 12}
    exceeds x^78 prod(1 - 2^-d) > x^78 / 2 for x >= 2, and the divisor is at
    most 3, so every candidate is at most nth_root(6 bound, 78).  keep goes
    first: the order is evaluated only within the row's residue class.
    """
    return [x for x in range(2, nth_root(6 * bound, 78) + 1)
            if keep(x) and order_fn(x) <= bound and is_prime_power(x)]


@dataclass(frozen=True)
class _PrimePowers:
    """The prime powers in 2..bound, more than eight of them, kept as the
    largest one and their number."""

    bound: int
    last: int
    count: int

    def __contains__(self, x: int) -> bool:
        return 2 <= x <= self.bound and is_prime_power(x) is not None


def _prime_powers_upto(bound):
    """The prime powers in 2..bound: a list when there are at most eight
    (the witness prints each one), else a _PrimePowers summary."""
    count = prime_power_count(bound)
    if count <= 8:
        return [x for x in range(2, bound + 1) if is_prime_power(x)]
    last = bound
    while is_prime_power(last) is None:
        last -= 1
    return _PrimePowers(bound, last, count)


def _solve_increasing(fn, target, degree):
    """The integer x >= 2 with fn(x) == target, for strictly increasing fn of the given degree."""
    x = last_within(fn, target, degree)
    return x if x > 1 and fn(x) == target else None


def _is_square(n: int) -> bool:
    return isqrt(n) ** 2 == n


def _odd_prime_power(n: int) -> bool:
    pp = is_prime_power(n)
    return pp is not None and pp[0] != 2


def _root_hits(target: int, exponents):
    """(exponent, root) pairs with root^exponent = target, root an odd prime power."""
    return [(m, root) for m in exponents
            if (root := nth_root(target, m)) ** m == target and _odd_prime_power(root)]


def _fmt_params(params) -> str:
    if isinstance(params, _PrimePowers):
        first, last, count = 2, params.last, params.count
    elif len(params) <= 8:
        return "{" + ", ".join(map(str, params)) + "}"
    else:
        first, last, count = params[0], params[-1], len(params)
    return f"{{{first}, ..., {last}}} ({count} values)"


# ---------------------------------------------------------------------------
# the case table

class _G(NamedTuple):
    """What a case reads of the group: q, |G| and the A-sets, if the caller has them."""

    q: int
    go: int
    a_sets: AmcSets | None = None

    @property
    def n2(self) -> int:  # the odd order component q^2+1
        return self.q * self.q + 1

    @property
    def two_q2p1(self) -> int:
        return 2 * self.q * self.q + 1

    @property
    def three_q2p2(self) -> int:
        return 3 * self.q * self.q + 2


_NO_PARAM = "no candidate parameter: the family's minimal order already exceeds |G|"


@dataclass(frozen=True)
class _Case:
    """One (family, case) of the trace.

    `params(g)` is the case's bounded parameter stream (None: it has none);
    an empty stream is witnessed by `empty`.  `hits(g, params)` picks the
    parameters that meet the odd component; none is witnessed by `miss(g,
    params)` under `miss_anchor`.  `kill(g, hit)` rules on one hit and returns
    (status, message), or (status, message, anchor) when the step that rules
    names its own anchor.
    """

    family: str
    case: str
    hits: Callable
    kill: Callable
    anchor: str
    miss: Callable | None = None
    miss_anchor: str = AN_OC_TABLES
    params: Callable | None = None
    empty: str = _NO_PARAM


def _run_case(row: _Case, g: _G) -> TraceEntry:
    """Fold the case's hits into one trace entry."""
    params = None if row.params is None else row.params(g)
    if params is not None and not params:
        return TraceEntry(row.family, row.case, ELIMINATED, row.empty, AN_ORDER_DIV)
    hits = row.hits(g, params)
    if not hits:
        return TraceEntry(row.family, row.case, ELIMINATED, row.miss(g, params), row.miss_anchor)
    status, parts, anchor = ELIMINATED, [], row.anchor
    for hit in hits:
        st, message, *own_anchor = row.kill(g, hit)
        if st != ELIMINATED:
            status = st
        parts.append(message)
        anchor = own_anchor[0] if own_anchor else anchor
    return TraceEntry(row.family, row.case, status, "; ".join(parts), anchor)


def _kill(go, d, killed, unresolved):
    """`killed` when d does not divide |G|, else NeedsManualLemma."""
    return (ELIMINATED, killed) if go % d else (NEEDS_MANUAL_LEMMA, unresolved)


def _must_divide(go, d, head, unresolved):
    return _kill(go, d, f"{head}; remainder {go % d}", unresolved)


def _tagged_order(go, order, tag, group):
    return _kill(go, order, f"{tag}: |{group}| does not divide |G|", f"{tag}: unresolved")


def _member(values):
    return lambda g, _: [g.n2] if g.n2 in values else []


def _always(hit):
    return lambda g, _: [hit(g)]


def _every(g, params):
    return params


def _open(message):
    return lambda g, hit: (NEEDS_MANUAL_LEMMA, message(g, hit))


def _confirming(family, case, witness):
    return _Case(family, case, _always(lambda g: None),
                 lambda g, _: (CONFIRMING, witness(g)), AN_OC_RECOGNITION)


def _no_hit(target=lambda g: g.n2):
    return lambda g, xs: f"no parameter in {_fmt_params(xs)} yields odd component {target(g)}"


def _scan(family, case, params, values, kill, anchor=AN_ORDER_DIV, miss_anchor=AN_OC_TABLES,
          target=lambda g: g.n2):
    """A bounded scan of the parameters whose component values hit target."""
    return _Case(
        family, case,
        hits=lambda g, xs: [x for x in xs if target(g) in values(x)],
        kill=kill, anchor=anchor, miss=_no_hit(target), miss_anchor=miss_anchor, params=params,
    )


def _qprime_order(label, order_fn):
    """Kill q' when |label(q')| does not divide |G|."""
    def kill(g, x):
        o = order_fn(x)
        return _kill(g.go, o, f"q'={x}: |{label}({x})| = {o} does not divide |G|",
                     f"q'={x}: |{label}({x})| divides |G|; unresolved")
    return kill


def _solve_pp(family, label, order_fn, components):
    """The prime powers q' with |label(q')| <= |G| and some component value
    equal to q^2+1.

    Each component, a (polynomial, degree) pair, is strictly increasing in q',
    so each gives at most one root, searched for from its nth_root estimate;
    the parameter set is counted, not listed.
    """
    def hits(g, xs):
        roots = {_solve_increasing(c, g.n2, degree) for c, degree in components}
        return sorted(x for x in roots if x is not None and x in xs)
    return _Case(family, f"{label}(q')", hits, _qprime_order(label, order_fn), AN_ORDER_DIV,
                 miss=_no_hit(),
                 params=lambda g: _prime_powers_upto(
                     last_within(order_fn, g.go, _ORDER_DEGREES[order_fn])))


def _dims(order_fn, stream=_odd_primes):
    """The bounded prefix of a dimension stream, by the order at that dimension."""
    return lambda g: _bounded_params(stream(), order_fn, g.go)


def _named(family, name, order, components, miss, matched=True):
    """One group with a fixed list of odd order components."""
    def kill(g, _):
        tail = f" (component {g.n2} matches)" if matched else ""
        return _kill(g.go, order, f"|{name}| = {order} does not divide |G| = {g.go}{tail}",
                     f"|{name}| = {order} divides |G|; no implemented predicate separates it{tail}")
    return _Case(family, name, _member(components), kill, AN_ORDER_DIV,
                 miss=lambda g, _: miss.format(n2=g.n2, components=components))


def _small_pair(family, kind, components, a, oa, b, ob):
    """Two small groups sharing a component list; both orders must fail."""
    def kill(g, _):
        if g.go % oa and g.go % ob:
            return ELIMINATED, f"neither |{a}| = {oa} nor |{b}| = {ob} divides |G|"
        return NEEDS_MANUAL_LEMMA, f"a small {kind} order divides |G|"
    return _Case(family, f"{a}, {b}", _member(components), kill, AN_ORDER_DIV,
                 miss=lambda g, _: f"q^2+1 = {g.n2} is not among {components}")


def _no_root(var):
    return lambda g, dims: (
        f"no prime power q' solves the component equation for {var} in {_fmt_params(dims)}")


def _qprime_divides(g, dv):
    return _must_divide(g.go, dv, f"q' = {dv} must divide |G| = {g.go}", f"q' = {dv} divides |G|")


def _e6_special_kill(g, x):
    t = g.three_q2p2
    return _must_divide(g.go, t, f"q'={x}: would force 3q^2+2 = {t} to divide |G|",
                        f"q'={x}: 3q^2+2 = {t} divides |G|")


def _suzuki_values(x):
    rt = isqrt(2 * x)
    return (
        x - 1, x - rt + 1, x + rt + 1, x * x + 1,
        (x - 1) * (x - rt + 1), (x - 1) * (x + rt + 1), (x - 1) * (x * x + 1),
    )


def _suzuki_kill(g, x):
    if x * x + 1 != g.n2:
        return _qprime_order("2B2", fam.order_2B2)(g, x)
    # q' = q: primes of q'-sqrt(2q')+1 and q'+sqrt(2q')+1 are non-adjacent,
    # so the larger factor must divide a count phi(r) q^4 (q^2-1)^2 / 4.
    rt = isqrt(2 * x)
    s_plus = x + rt + 1
    base = g.q**4 * (g.q * g.q - 1) ** 2 // 4
    surviving = [r for r, phi, _ in divisor_phi_psi(x - rt + 1)[1:] if (phi * base) % s_plus == 0]
    if surviving:
        return NEEDS_MANUAL_LEMMA, f"q'={x}: {s_plus} divides the candidate count for r in {surviving}"
    return (ELIMINATED,
            f"q'={x}: {s_plus} divides no candidate count phi(r)q^4(q^2-1)^2/4 with r | {x - rt + 1}")


def _roots(quotient, scales, accept, exponent=lambda n: n):
    """The hits (n, q') over the dimensions n with quotient(q', m) = d (q^2+1),
    m = exponent(n), for a scale d in scales(n), accept(n, q', d) and q' a
    prime power.

    For each dimension the quotient is strictly increasing in q', of degree
    m - 1, so each scale gives at most one q', searched for from its nth_root
    estimate.
    """
    def hits(g, dims):
        out = []
        for n in dims:
            m = exponent(n)
            for d in scales(n):
                x = _solve_increasing(lambda y, m=m: quotient(y, m), g.n2 * d, m - 1)
                if x is not None and accept(n, x, d) and is_prime_power(x):
                    out.append((n, x))
        return out
    return hits


def _psl_quotient(y, n):
    return (y**n - 1) // (y - 1)


def _psu_quotient(y, n):
    return (y**n + 1) // (y + 1)


def _psl_n_kill(g, hit):
    n, x = hit
    return _tagged_order(g.go, fam.psl_order(n, x), f"(n,q')=({n},{x})", f"PSL{n}({x})")


def _psl_p1_kill(g, hit):
    p, x = hit
    return _tagged_order(g.go, fam.psl_order(p + 1, x), f"(p,q')=({p},{x})", f"PSL{p + 1}({x})")


def _psl3_kill(g, hit):
    _, x = hit
    if gcd(3, x - 1) == 1:
        return NEEDS_MANUAL_LEMMA, f"q'={x}: q'(q'+1) = q^2 holds numerically, contradicting coprimality"
    return _must_divide(g.go, g.three_q2p2, f"q'={x}: q'(q'+1) = 3q^2+2 = {g.three_q2p2} must divide |G|",
                        f"q'={x}: 3q^2+2 divides |G|")


def _psl2_q2p1_kill(g, n2):
    rem = g.go % (n2 + 1)
    if rem:
        return ELIMINATED, f"q^2+2 = {n2 + 1} = q'+1 must divide |G|; remainder {rem}", AN_Q2P2
    o = fam.psl_order(2, n2)
    if g.go % o:
        return ELIMINATED, f"|PSL2({n2})| = {o} does not divide |G|", AN_ORDER_DIV
    hbound = g.go // o
    a = g.a_sets or build_A_sets(g.q)
    amin = min(a.a4 | a.a5)
    if amin > hbound:
        return ELIMINATED, f"min(A4 u A5) = {amin} > {hbound} >= |H|"
    return NEEDS_MANUAL_LEMMA, f"min(A4 u A5) = {amin} <= {hbound}"


def _psl2_half_kill(g, eps):
    # q^2+1 = q'(q'-e)/2: the root of q'^2 - e q' - 2(q^2+1) = 0
    x = (eps + isqrt(8 * g.q * g.q + 9)) // 2
    if x < 5 or not _odd_prime_power(x):
        return ELIMINATED, f"e={eps:+d}: root {x} is not an odd prime power >= 5"
    odd_factor = x - 2 * eps
    if odd_factor > 1 and (2 * g.q * g.q) % odd_factor == 0:
        return NEEDS_MANUAL_LEMMA, f"e={eps:+d}: odd factor {odd_factor} divides 2q^2"
    return (ELIMINATED, f"e={eps:+d}: 2q^2 = ({odd_factor})({x + eps}) has odd factor "
                        f"{odd_factor} > 1 which cannot divide a 2-power")


def _psu_shapes(g):
    # n = p with (q'+1, p) = 1, or n = p+1: component (q'^p + 1)/(q'+1)
    return ([("n=p", p) for p in _bounded_params(_odd_primes(), lambda p: fam.psu_order(p, 2), g.go)]
            + [("n=p+1", p)
               for p in _bounded_params(_odd_primes(), lambda p: fam.psu_order(p + 1, 2), g.go)])


def _psu_kill(g, hit):
    (shape, p), x = hit
    n = p if shape == "n=p" else p + 1
    return _tagged_order(g.go, fam.psu_order(n, x), f"{shape}, (p,q')=({p},{x})", f"PSU{n}({x})")


def _psu_p_kill(g, hit):
    p, x = hit
    if p == 3:
        return _must_divide(g.go, g.three_q2p2, f"(p,q')=({p},{x}): 3q^2+2 = {g.three_q2p2} must divide |G|",
                            f"(p,q')=({p},{x}): 3q^2+2 divides |G|")
    return _tagged_order(g.go, fam.psu_order(p, x), f"(p,q')=({p},{x})", f"PSU{p}({x})")


def _psp_prime(qp):
    # n = p odd prime, q' in {2, 3}: component (q'^p - 1)/(2, q'-1)
    d = gcd(2, qp - 1)
    return _Case(
        "PSp", f"PSp2p({qp})",
        hits=lambda g, dims: [p for p in dims if (qp**p - 1) // d == g.n2],
        kill=lambda g, p: _tagged_order(g.go, fam.psp_order(p, qp), f"p={p}", f"PSp{2 * p}({qp})"),
        anchor=AN_ORDER_DIV,
        miss=lambda g, dims: f"no p in {_fmt_params(dims)} solves (q'^p-1)/({d}) = {g.n2}",
        params=lambda g: _bounded_params(_odd_primes(), lambda p: fam.psp_order(p, qp), g.go),
        empty=f"no dimension: |PSp6({qp})| already exceeds |G|",
    )


def _psp_even_kill(g, n):
    # n = 2^m >= 2, q' even: q^2 = q'^n
    f2 = 2 * power_of_two_exponent(g.q)
    if f2 % n:
        return ELIMINATED, f"n={n}: q^2 = 2^{f2} is not an n-th power"
    x = 1 << (f2 // n)
    o = fam.psp_order(n, x)
    return _kill(g.go, o, f"n={n}, q'={x}: |PSp{2 * n}({x})| = {o} does not divide |G|",
                 f"n={n}, q'={x}: unresolved")


def _psp_odd_params(g):
    # n = 2^m >= 2, q' odd: 2q^2+1 = q'^n
    dims = _bounded_params(_two_powers(2), lambda n: fam.psp_order(n, 3), g.go)
    return [n for n in dims if 3**n <= g.two_q2p1]


def _psp_odd_kill(g, n):
    root = nth_root(g.two_q2p1, n)
    if root**n != g.two_q2p1:
        return ELIMINATED, f"n={n}: 2q^2+1 = {g.two_q2p1} is not a perfect n-th power"
    if not _odd_prime_power(root):
        return ELIMINATED, f"n={n}: root {root} is not an odd prime power"
    return _must_divide(g.go, g.two_q2p1, f"n={n}, q'={root}: 2q^2+1 = {g.two_q2p1} must divide |G|",
                        f"n={n}, q'={root}: 2q^2+1 divides |G|")


def _b_odd_kill(g, hit):
    # B_m(q'), m = 2^t >= 4, q' odd: 2q^2+1 = q'^m
    m, root = hit
    return _must_divide(g.go, g.two_q2p1, f"m={m}, q'={root}: 2q^2+1 must divide |G|",
                        f"m={m}, q'={root}: unresolved")


def _dplus_params(g):
    # D+_m(q'), m >= 5 odd prime, q' in {2,3,5}: (q'^m - 1)/(q'-1)
    out = []
    for qp in (2, 3, 5):
        dims = _bounded_params((m for m in _odd_primes() if m >= 5),
                               lambda m: fam.pomega_plus_order(m, qp), g.go)
        if dims:
            out.append((qp, dims))
    return out


def _dplus_kill(g, hit):
    qp, dims = hit
    ms = [m for m in dims if (qp**m - 1) // (qp - 1) == g.n2]
    if ms:
        return NEEDS_MANUAL_LEMMA, "; ".join(f"q'={qp}, m={m}: unresolved" for m in ms)
    return ELIMINATED, f"q'={qp}: no m in {_fmt_params(dims)}"


def _dminus_kill(g, hit):
    # D-_m(q'), m = 2^t >= 4: 2q^2+1 = q'^m for odd q', q^2 = q'^m for even q'
    m, odd = hit
    if odd:
        roots = _root_hits(g.two_q2p1, [m])
        if not roots:
            return ELIMINATED, f"m={m}: 2q^2+1 = {g.two_q2p1} is not an odd q'^m"
        root = roots[0][1]
        return _must_divide(g.go, g.two_q2p1, f"m={m}, q'={root} odd: 2q^2+1 must divide |G|",
                            f"m={m}, q'={root} odd: unresolved")
    f2 = 2 * power_of_two_exponent(g.q)
    if f2 % m:
        return ELIMINATED, f"m={m}: q^2 = 2^{f2} is not an m-th power"
    x = 1 << (f2 // m)
    return _tagged_order(g.go, fam.pomega_minus_order(m, x), f"m={m}, q'={x} even", f"D-{m}({x})")


def _dminus_fermat_kill(g, m):
    if g.n2 == (3 ** (m - 1) + 1) // 2:
        return _must_divide(g.go, g.two_q2p1, f"m={m}: 2q^2+1 = 3^(m-1) must divide |G|",
                            f"m={m}: 2q^2+1 divides |G|")
    return NEEDS_MANUAL_LEMMA, f"m={m}: unresolved candidate value"


def _dminus_two_kill(g, p):
    if g.n2 == 2**p + 1:
        return NEEDS_MANUAL_LEMMA, f"p={p}: 2f = p despite p odd"
    if g.n2 == 2 ** (p + 1) + 1:
        o = fam.pomega_minus_order(p + 1, 2)
        return _kill(g.go, o, f"p={p}: |D-{p+1}(2)| = {o} does not divide |G|",
                     f"p={p}: order divides |G|")
    return NEEDS_MANUAL_LEMMA, f"p={p}: product case holds numerically"


# The polynomials in q' that the case table searches, each beside its degree:
# the orders it bounds, and the components of the solved rows as
# (polynomial, degree) pairs.
_ORDER_DEGREES = {fam.order_G2: 14, fam.order_3D4: 28, fam.order_F4: 52, fam.order_E8: 248}
_G2_COMPONENTS = ((lambda x: cyclotomic_eval(3, x), 2), (lambda x: cyclotomic_eval(6, x), 2),
                  (lambda x: cyclotomic_eval(3, x * x), 4))
_3D4_COMPONENTS = ((lambda x: cyclotomic_eval(12, x), 4),)
_F4_COMPONENTS = ((lambda x: x**4 + 1, 4), (lambda x: x**4 - x * x + 1, 4),
                  (lambda x: x**8 - x**6 + 2 * x**4 - x * x + 1, 8))
# the products of one or more of Phi15, Phi20, Phi24, Phi30, each of degree 8
_E8_COMPONENTS = tuple(
    (lambda x, ks=ks: prod(cyclotomic_eval(k, x) for k in ks), 8 * len(ks))
    for n in range(1, 5) for ks in combinations((15, 20, 24, 30), n)
)

_A56 = (3, 5, 15)
_THREE_POWER = _open(lambda g, m: f"m={m}: 2q^2 = 3^m - 3 holds despite 3 not dividing 2q^2")

# Every candidate family of simple sections K/H, case by case, in trace order.
_CASES: tuple[_Case, ...] = (
    _Case("Alternating", "degree 5 or 6", _member(_A56),
          _open(lambda g, n2: f"q^2+1 = {n2} matches a degree-5/6 odd component"), AN_OC_TABLES,
          miss=lambda g, _: f"q^2+1 = {g.n2} is not one of {_A56}"),
    _Case("Alternating", "q^2+1 = p",
          lambda g, _: [g.q**4 - 9] if is_prime(g.n2) else [],
          lambda g, d: _must_divide(g.go, d, f"would force q^4-9 = {d} to divide |G| = {g.go}",
                                    f"q^4-9 = {d} divides |G|"),
          AN_Q4M9, miss=lambda g, _: f"q^2+1 = {g.n2} is not prime"),
    _Case("Alternating", "q^2+1 = p-2",
          lambda g, _: [g.n2 + 2] if is_prime(g.n2 + 2) else [],
          lambda g, p: _kill(g.go, p, f"q^2+3 = {p} does not divide |G| = {g.go} (remainder {g.go % p})",
                             f"q^2+3 = {p} divides |G|"),
          AN_ORDER_DIV, miss=lambda g, _: f"q^2+3 = {g.n2 + 2} is not prime"),
    _Case("Alternating", "q^2+1 = p(p-2)",
          lambda g, _: [g.n2 + 1] if _is_square(g.n2 + 1) else [],
          _open(lambda g, v: f"q^2+2 = {v} is a perfect square"), AN_SQUARE,
          miss=lambda g, _: (f"q^2+1 = p(p-2) forces q^2+2 = (p-1)^2, but {g.n2 + 1} "
                             "is not a perfect square"),
          miss_anchor=AN_SQUARE),
    *(_named("Sporadic", grp.name, grp.order, grp.odd_components,
             "odd order components {components} exclude q^2+1 = {n2}")
      for grp in fam.SPORADIC_GROUPS),
    _named("Tits", fam.TITS_GROUP.name, fam.TITS_GROUP.order, fam.TITS_GROUP.odd_components,
           "odd order components {components} exclude q^2+1 = {n2}", matched=False),
    _Case("Exceptional", "2B2(q')",
          lambda g, xs: [x for x in xs if g.n2 in _suzuki_values(x)], _suzuki_kill, AN_SYLOW,
          miss=_no_hit(), params=_dims(fam.order_2B2, lambda: (2**e for e in count(3, 2))),
          empty="no candidate parameter: |2B2(8)| already exceeds |G|"),
    _solve_pp("Exceptional", "G2", fam.order_G2, _G2_COMPONENTS),
    _solve_pp("Exceptional", "3D4", fam.order_3D4, _3D4_COMPONENTS),
    _scan("Exceptional", "2G2(q')",
          _dims(fam.order_2G2, lambda: (3**e for e in count(3, 2))),
          lambda x: (twisted_cyclotomic_eval(6, 1, x), twisted_cyclotomic_eval(6, -1, x),
                     cyclotomic_eval(6, x)),
          _qprime_order("2G2", fam.order_2G2)),
    _solve_pp("Exceptional", "F4", fam.order_F4, _F4_COMPONENTS),
    _scan("Exceptional", "2F4(q')",
          _dims(fam.order_2F4, lambda: (2**e for e in count(3, 2))),
          lambda x: (twisted_cyclotomic_eval(12, 1, x), twisted_cyclotomic_eval(12, -1, x),
                     cyclotomic_eval(12, x)),
          _qprime_order("2F4", fam.order_2F4)),
    _scan("Exceptional", "E6(q'), q' = 0,-1 (mod 3)",
          lambda g: _pp_candidates(g.go, fam.order_E6, keep=lambda x: x % 3 != 1),
          lambda x: (cyclotomic_eval(9, x),), _qprime_order("E6", fam.order_E6)),
    _scan("Exceptional", "E6(q'), q' = 1 (mod 3)",
          lambda g: _pp_candidates(g.go, fam.order_E6, keep=lambda x: x % 3 == 1),
          lambda x: (x**6 + x**3,), _e6_special_kill, AN_3Q2P2, AN_3Q2P2,
          target=lambda g: g.three_q2p2),
    _scan("Exceptional", "2E6(q'), q' = 0,1 (mod 3)",
          lambda g: _pp_candidates(g.go, fam.order_2E6, keep=lambda x: x % 3 != 2),
          lambda x: (cyclotomic_eval(18, x),), _qprime_order("2E6", fam.order_2E6)),
    _scan("Exceptional", "2E6(q'), q' = -1 (mod 3)",
          lambda g: _pp_candidates(g.go, fam.order_2E6, keep=lambda x: x % 3 == 2),
          lambda x: (x**6 - x**3,), _e6_special_kill, AN_3Q2P2, AN_3Q2P2,
          target=lambda g: g.three_q2p2),
    *(_named("Exceptional", name, order, vals, "q^2+1 = {n2} is not among the components {components}")
      for name, order, vals in fam.E_GROUP_CASES),
    _solve_pp("Exceptional", "E8", fam.order_E8, _E8_COMPONENTS),
    # n >= 5 prime: component (q'^n - 1) / ((q'-1)(n, q'-1))
    _Case("PSL", "PSLn(q'), n >= 5 prime",
          _roots(_psl_quotient, lambda n: (1, n), lambda n, x, d: gcd(n, x - 1) == d),
          _psl_n_kill, AN_ORDER_DIV, miss=_no_root("n"),
          params=_dims(lambda n: fam.psl_order(n, 2), lambda: (n for n in _odd_primes() if n >= 5)),
          empty="no dimension: |PSL5(2)| already exceeds |G|"),
    # n = p+1, p odd prime, q'-1 | p +- 1: component (q'^p - 1)/(q'-1)
    _Case("PSL", "PSL(p+1)(q')",
          _roots(_psl_quotient, lambda p: (1,),
                 lambda p, x, d: (p + 1) % (x - 1) == 0 or (p - 1) % (x - 1) == 0),
          _psl_p1_kill, AN_ORDER_DIV, miss=_no_root("p"),
          params=_dims(lambda p: fam.psl_order(p + 1, 2)),
          empty="no dimension: |PSL4(2)| already exceeds |G|"),
    _small_pair("PSL", "PSL3", (3, 5, 7, 15, 21, 35, 105),
                "PSL3(2)", fam.psl_order(3, 2), "PSL3(4)", fam.psl_order(3, 4)),
    # n = 3, q' >= 3: component (q'^2+q'+1)/(3, q'-1) (q' in {2, 4} is a case of its own)
    _Case("PSL", "PSL3(q'), q' >= 3",
          _roots(_psl_quotient, lambda n: (1, n), lambda n, x, d: x != 4 and gcd(3, x - 1) == d),
          _psl3_kill, AN_3Q2P2, miss=lambda g, _: f"no prime power q' >= 3 has component value {g.n2}",
          miss_anchor=AN_3Q2P2, params=lambda g: [3]),
    _Case("PSL", "PSL2(q'), q' = q^2+1",
          lambda g, _: [g.n2] if _odd_prime_power(g.n2) else [], _psl2_q2p1_kill, AN_NILPOTENT,
          miss=lambda g, _: f"q^2+1 = {g.n2} is not an odd prime power"),
    _Case("PSL", "PSL2(q'), q' = 2q^2+3", _always(lambda g: g.two_q2p1 + 2), _qprime_divides, AN_2Q2P3),
    _Case("PSL", "PSL2(q'), q' = 2q^2+1", _always(lambda g: g.two_q2p1), _qprime_divides, AN_2Q2P1),
    _Case("PSL", "PSL2(q'), q^2+1 = q'(q'-e)/2",
          lambda g, _: [1, -1] if _is_square(8 * g.q * g.q + 9) else [], _psl2_half_kill, AN_POWER2,
          miss=lambda g, _: (f"no integer q': discriminant 8q^2+9 = {8 * g.q * g.q + 9} "
                             "is not a perfect square"),
          miss_anchor=AN_SQUARE),
    _Case("PSL", "PSL2(q'), q' = q^2+2 even",
          lambda g, _: [g.n2 + 1] if g.n2 + 1 >= 4 and power_of_two_exponent(g.n2 + 1) is not None else [],
          _open(lambda g, v: f"q^2+2 = {v} is a power of 2"), AN_POWER2,
          miss=lambda g, _: f"q^2+2 = {g.n2 + 1} = 2 (mod 4) is not a 2-power >= 4",
          miss_anchor=AN_POWER2),
    _Case("PSL", "PSL2(q'), q'^2 = q^2+2",
          lambda g, _: [g.n2 + 1] if _is_square(g.n2 + 1) else [],
          _open(lambda g, v: f"q^2+2 = {v} is a perfect square"), AN_SQUARE,
          miss=lambda g, _: f"q^2+2 = {g.n2 + 1} is not a perfect square", miss_anchor=AN_SQUARE),
    _confirming("PSL", "PSL2(q^2)",
                lambda g: (f"q' = q^2 = {g.q * g.q}: component q'+1 = {g.n2} matches q^2+1 "
                           "and the section forces oc(G) = oc(PSp4(q))")),
    _small_pair("PSU", "PSU", (5, 7, 11, 77),
                "PSU4(2)", fam.psu_order(4, 2), "PSU6(2)", fam.psu_order(6, 2)),
    _Case("PSU", "PSUn(q'), n = p or p+1",
          _roots(_psu_quotient, lambda s: (1,),
                 lambda s, x, d: s[0] == "n=p+1" or gcd(x + 1, s[1]) == 1, exponent=lambda s: s[1]),
          _psu_kill, AN_ORDER_DIV,
          miss=lambda g, shapes: _no_root("p")(g, sorted({p for _, p in shapes})),
          params=_psu_shapes, empty="no dimension: |PSU3(2)| already exceeds |G|"),
    # n = p with (q'+1, p) = p: component (q'^p + 1)/((q'+1) p)
    _Case("PSU", "PSUp(q'), p | q'+1",
          _roots(_psu_quotient, lambda p: (p,), lambda p, x, d: gcd(x + 1, p) == p),
          _psu_p_kill, AN_3Q2P2, miss=_no_root("p"),
          params=_dims(lambda p: fam.psu_order(p, 2)),
          empty="no dimension: |PSU3(2)| already exceeds |G|"),
    _psp_prime(2),
    _psp_prime(3),
    _confirming("PSp", "PSp4(q)",
                lambda g: f"q' = q = {g.q}: |PSp4({g.q})| = |G| forces H = 1 and G = K"),
    _Case("PSp", "PSp2n(q'), q' even, n = 2^m >= 4", _every, _psp_even_kill, AN_ORDER_DIV,
          params=_dims(lambda n: fam.psp_order(n, 2), lambda: _two_powers(4)),
          empty="no dimension: |PSp8(2)| already exceeds |G|"),
    _Case("PSp", "PSp2n(q'), q' odd, n = 2^m", _every, _psp_odd_kill, AN_CRESCENZO,
          params=_psp_odd_params,
          empty="no dimension with |PSp2n(3)| <= |G| and 3^n <= 2q^2+1"),
    # |B_m(q')| = |Omega_{2m+1}(q')| = |PSp_2m(q')|
    _Case("POmega", "B_m(q'), m = 2^t >= 4", lambda g, dims: _root_hits(g.two_q2p1, dims),
          _b_odd_kill, AN_2Q2P1,
          miss=lambda g, dims: f"2q^2+1 = {g.two_q2p1} is not q'^m for m in {_fmt_params(dims)}",
          miss_anchor=AN_CRESCENZO,
          params=_dims(lambda m: fam.psp_order(m, 3), lambda: _two_powers(4)),
          empty="no dimension: |B4(3)| already exceeds |G|"),
    _scan("POmega", "B_m(3), m odd prime", _dims(lambda m: fam.psp_order(m, 3)),
          lambda m: ((3**m - 1) // 2,), _THREE_POWER, AN_POWER2, AN_POWER2),
    _Case("POmega", "D+_m(q'), m >= 5 prime", _every, _dplus_kill, AN_OC_TABLES,
          params=_dplus_params, empty="no dimension: |D+5(2)| already exceeds |G|"),
    _scan("POmega", "D+_{m+1}(3), m odd prime",
          _dims(lambda m: fam.pomega_plus_order(m + 1, 3)),
          lambda m: ((3**m - 1) // 2,), _THREE_POWER, AN_POWER2, AN_POWER2),
    _Case("POmega", "D-_m(q'), m = 2^t >= 4",
          lambda g, dims: [(m, odd) for m in dims for odd in (True, False)], _dminus_kill,
          AN_ORDER_DIV,
          params=_dims(lambda m: fam.pomega_minus_order(m, 2), lambda: _two_powers(4)),
          empty="no dimension: |D-4(2)| already exceeds |G|"),
    _scan("POmega", "D-_m(3), m >= 5 prime, m != 2^t+1",
          _dims(lambda m: fam.pomega_minus_order(m, 3),
                lambda: (m for m in _odd_primes() if m >= 5 and power_of_two_exponent(m - 1) is None)),
          lambda m: ((3**m + 1) // 4,),
          _open(lambda g, m: f"m={m}: 4q^2 = 3^m - 3 holds despite 3 not dividing 4q^2"),
          AN_POWER2, AN_POWER2),
    _scan("POmega", "D-_m(3), m = 2^t+1 not prime",
          _dims(lambda m: fam.pomega_minus_order(m, 3),
                lambda: filterfalse(is_prime, ((1 << t) + 1 for t in count(2)))),
          lambda m: ((3 ** (m - 1) + 1) // 2,),
          _open(lambda g, m: f"m={m}: 2q^2+1 = 3^(m-1) unresolved"), AN_CRESCENZO, AN_CRESCENZO),
    _scan("POmega", "D-_m(3), m = 2^t+1 prime",
          _dims(lambda m: fam.pomega_minus_order(m, 3),
                lambda: filter(is_prime, ((1 << t) + 1 for t in count(2)))),
          lambda m: ((3 ** (m - 1) + 1) // 2, (3**m + 1) // 4,
                     ((3 ** (m - 1) + 1) // 2) * ((3**m + 1) // 4)),
          _dminus_fermat_kill, AN_2Q2P1, AN_2Q2P1),
    _scan("POmega", "D-_{m+1}(2), m prime",
          _dims(lambda m: fam.pomega_minus_order(m + 1, 2),
                lambda: (m for m in _odd_primes() if power_of_two_exponent(m + 1) is None)),
          lambda m: (2**m - 1,),
          _open(lambda g, m: f"m={m}: q^2+2 = 2^m despite q^2+2 = 2 (mod 4)"), AN_POWER2, AN_POWER2),
    _scan("POmega", "D-_{p+1}(2), p odd prime",
          _dims(lambda p: fam.pomega_minus_order(p + 1, 2)),
          lambda p: (2**p + 1, 2 ** (p + 1) + 1, (2**p + 1) * (2 ** (p + 1) + 1)),
          _dminus_two_kill, AN_POWER2, AN_POWER2),
)


def eliminate_family(q: int, family: str) -> list[TraceEntry]:
    """Trace entries for one candidate family of simple sections."""
    validate_q(q)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    g = _G(q, group_order(q))
    return [_run_case(row, g) for row in _CASES if row.family == family]


def characterize(order: int, nse: frozenset[int] | set[int]) -> Verdict:
    """Decide whether a group with this order and nse set is PSp4(q).

    NotApplicable when the order is no PSp4(2^f) order, HypothesesNotMet when
    the nse set differs from nse(PSp4(q)), and otherwise Isomorphic with a
    full machine-readable trace.  A non-integer order or nse member raises
    TypeError.
    """
    order, nse = operator.index(order), frozenset(nse)
    nse = frozenset(_integers(nse))
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not nse:
        raise ValueError("nse set must be nonempty")
    q = match_order(order)
    if q is None:
        return Verdict(OUTCOME_NOT_APPLICABLE, None, order,
                       f"{order} is not q^4(q^4-1)(q^2-1) for any q = 2^f > 2", None)
    # one description of the order classes serves the nse set, the A-sets and count_at
    classes = _order_classes(q)
    a_sets = AmcSets(*(cls.values() for cls in classes))
    expected = frozenset().union(*a_sets)
    if nse != expected:
        missing, extra = sorted(expected - nse)[:3], sorted(nse - expected)[:3]
        return Verdict(OUTCOME_HYPOTHESES_NOT_MET, q, order,
                       f"nse set differs from nse(PSp4({q})): missing {missing}, unexpected {extra}",
                       None)

    checks = []
    # pi(q^2-1) ascending, from its coprime factors q-1 and q+1
    q2m_primes = sorted(prime_divisors(q - 1) + prime_divisors(q + 1))
    for r in (2, *prime_divisors(q * q + 1), *q2m_primes):
        bucket, allowed, index = _count_bucket(q, r, a_sets)
        value = classes[index].count_at(r)
        checks.append(PrimeCountCheck(r, value, bucket, value in allowed))
    separated = separation_check(q)
    excluded, frob_witnesses = frobenius_exclusion(q)
    g = _G(q, order, a_sets)
    entries = tuple(_run_case(row, g) for row in _CASES)
    trace = EliminationTrace(
        a_sets, tuple(checks), separated, excluded, frob_witnesses, entries
    )
    if not separated or not excluded:
        raise RuntimeError(f"internal consistency failure in the trace for q={q}")
    return Verdict(OUTCOME_ISOMORPHIC, q, order, None, trace)


def verdict_json(verdict: Verdict) -> dict:
    """JSON-ready verdict; all big integers as decimal strings."""
    out: dict = {
        "outcome": verdict.outcome,
        "q": verdict.q,
        "order": str(verdict.order),
        "reason": verdict.reason,
    }
    if verdict.trace is None:
        out["trace"] = None
        return out
    t = verdict.trace
    out["trace"] = {
        "a_sets": {
            f"A{i}": [str(v) for v in sorted(s)]
            for i, s in enumerate(t.a_sets, start=1)
        },
        "prime_count_checks": [
            {"r": str(c.r), "value": str(c.value), "allowed": c.bucket, "ok": c.ok}
            for c in t.prime_count_checks
        ],
        "separation_check": t.separation,
        "frobenius_exclusion": {
            "excluded": t.frobenius_excluded,
            "checks": [
                {
                    "label": w.label,
                    "divisor": str(w.divisor),
                    "divides": w.divides,
                    "remainder": str(w.remainder),
                }
                for w in t.frobenius_witnesses
            ],
        },
        "families": [
            {
                "family": e.family,
                "case": e.case,
                "status": e.status,
                "witness": e.witness,
                "anchor": e.anchor,
            }
            for e in t.entries
        ],
    }
    return out
