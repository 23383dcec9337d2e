"""Brute-force ground truth: Sp4(q) from explicit generators, plus a small
permutation-group engine.

The matrix engine enumerates a group from its standard generators (root
elements x_iota(1), torus elements h(g,1), h(1,g), and the two Weyl
reflections) by orbit-stabilizer with Schreier's lemma, so every element is
made exactly once.  One breadth-first search serves both the orbit of the row
vector e1 and the closure of its stabilizer.  Matrices have two forms: Mat4,
which builds and validates the generators, inverts them by Gauss-Jordan
elimination and is the scalar cross-check, and one key per matrix laid out
as Mat4.packed() (16 entries of f bits, row-major, entry (0,0) most
significant) for all vectorised work.  A key is held in the narrowest
unsigned word of its 16f bits, uint32 at q = 4 and uint64 at q = 8 and 16,
so q <= 16.  One numpy kernel makes every product and does no gathers: one
multiply of key words copies x^t * (row k of b) into each row slot r of
a * b where entry (r, k) of a has bit t set, and the scaled rows come from
shifts and masks on the whole key b, once per b.  Each set of right
multipliers (the generators, a stabilizer's generators, the coset
representatives) gets its scaled rows once and is broadcast against all
keys, and the power chains of the order histogram, which look up only the
generators of each cyclic subgroup, reuse them along each chain.  An order
is held in the narrowest unsigned word of q^4 - 1, uint8 at q = 4.

Sp4(4) (979,200 elements: an orbit of 255 points times a stabilizer of
order 3840) enumerates in about 0.02 s and its histogram takes about
0.12-0.14 s on a 2-vCPU x86-64 host; the two raise a process's peak RSS by
about 11 MB.

For even q the symplectic group is already simple modulo nothing: the center
is trivial, so the enumerated Sp4(q) *is* PSp4(q) and no quotient is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .arith import validate_q
from .gf2 import FieldSpec, find_generator
from .sympl import group_order

__all__ = [
    "CapacityExceeded",
    "Mat4",
    "EnumeratedGroup",
    "OrderHistogram",
    "PermGroupSpec",
    "sp4_generators",
    "enumerate_group",
    "sp4_group",
    "order_histogram",
    "perm_nse",
    "z4_times_z7_z3",
    "z3_times_z7_z4",
]

_ORDER_BATCH = 1 << 14
# the most coset keys enumerate_group makes in one product, while it fills its coset array
_COSET_BLOCK = 1 << 16
# the most elements sp4_group enumerates unless told otherwise (Sp4(4) has 979,200)
DEFAULT_MAX_ENUM = 2_000_000
# the most elements the permutation engine closes; read at call time
_PERM_MAX = 1_000_000


class CapacityExceeded(RuntimeError):
    """Raised when a closure grows past its element budget."""


# The alternating form: all-ones antidiagonal (signs vanish in characteristic 2).
_J_ENTRIES = tuple(1 if r + c == 3 else 0 for r in range(4) for c in range(4))


@dataclass(frozen=True)
class Mat4:
    """A 4x4 matrix over a fixed GF(2^f), entries as bitmasks in row-major order."""

    spec: FieldSpec
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != 16:
            raise ValueError("Mat4 needs exactly 16 entries")
        # an entry of f+1 bits or more would spill into its neighbour in packed()
        if not all(0 <= e < self.spec.order for e in self.entries):
            raise ValueError(f"Mat4 entries must lie in 0..{self.spec.order - 1}")

    @classmethod
    def identity(cls, spec: FieldSpec) -> Mat4:
        return cls(spec, tuple(1 if r == c else 0 for r in range(4) for c in range(4)))

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows) -> Mat4:
        flat = tuple(x for row in rows for x in row)
        return cls(spec, flat)

    def mul(self, other: Mat4) -> Mat4:
        if self.spec != other.spec:
            raise ValueError("matrices over different field specs")
        s = self.spec
        a, b = self.entries, other.entries
        out = []
        for r in range(4):
            for c in range(4):
                acc = 0
                for k in range(4):
                    acc ^= s.mul(a[4 * r + k], b[4 * k + c])
                out.append(acc)
        return Mat4(s, tuple(out))

    def transpose(self) -> Mat4:
        e = self.entries
        return Mat4(self.spec, tuple(e[4 * c + r] for r in range(4) for c in range(4)))

    def inverse(self) -> Mat4 | None:
        """The inverse by Gauss-Jordan elimination, or None for a singular matrix."""
        s, e = self.spec, self.entries
        rows = [[*e[4 * r : 4 * r + 4], *(int(r == c) for c in range(4))] for r in range(4)]
        for c in range(4):
            pivot = next((r for r in range(c, 4) if rows[r][c]), None)
            if pivot is None:
                return None
            rows[c], rows[pivot] = rows[pivot], rows[c]
            scale = s.inv(rows[c][c])
            rows[c] = [s.mul(scale, x) for x in rows[c]]
            for r in range(4):
                if r != c and rows[r][c]:
                    factor = rows[r][c]
                    rows[r] = [x ^ s.mul(factor, y) for x, y in zip(rows[r], rows[c])]
        return Mat4.from_rows(s, [row[4:] for row in rows])

    def is_symplectic(self) -> bool:
        """Whether M^T J M = J for the fixed antidiagonal form."""
        j = Mat4(self.spec, _J_ENTRIES)
        return self.transpose().mul(j).mul(self).entries == _J_ENTRIES

    def packed(self) -> int:
        f = self.spec.f
        key = 0
        for e in self.entries:
            key = (key << f) | e
        return key


def sp4_generators(q: int) -> list[Mat4]:
    """The eight standard generators of Sp4(q) over GF(q), q = 2^f > 2.

    Returns x_a(1), x_b(1), x_{a+b}(1), x_{2a+b}(1), h(g,1), h(1,g) for a
    generator g of the multiplicative group, and the Weyl reflections w_a, w_b
    (with -1 = 1 in characteristic 2).  Every matrix is checked against the
    alternating form before being returned.
    """
    f = validate_q(q)
    spec = FieldSpec.for_degree(f)
    g = find_generator(spec)
    g_inv = spec.inv(g)
    one = 1
    x_a = Mat4.from_rows(spec, [[1, one, 0, 0], [0, 1, 0, 0], [0, 0, 1, one], [0, 0, 0, 1]])
    x_b = Mat4.from_rows(spec, [[1, 0, 0, 0], [0, 1, one, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    x_ab = Mat4.from_rows(spec, [[1, 0, one, 0], [0, 1, 0, one], [0, 0, 1, 0], [0, 0, 0, 1]])
    x_2ab = Mat4.from_rows(spec, [[1, 0, 0, one], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    h_g1 = Mat4.from_rows(spec, [[g, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, g_inv]])
    h_1g = Mat4.from_rows(spec, [[1, 0, 0, 0], [0, g, 0, 0], [0, 0, g_inv, 0], [0, 0, 0, 1]])
    w_a = Mat4.from_rows(spec, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    w_b = Mat4.from_rows(spec, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    gens = [x_a, x_b, x_ab, x_2ab, h_g1, h_1g, w_a, w_b]
    for m in gens:
        if not m.is_symplectic():
            raise AssertionError("generator does not preserve the alternating form")
    return gens


_MAX_KEY_DEGREE = 4  # 16 entries of f bits fill at most one uint64


def _key_dtype(spec: FieldSpec) -> np.dtype:
    """The narrowest unsigned word that holds a key's 16f bits."""
    if spec.f > _MAX_KEY_DEGREE:
        raise ValueError(f"matrices over GF(2^{spec.f}) need {16 * spec.f}-bit keys; the "
                         f"oracle packs them into 64 bits, so q <= {1 << _MAX_KEY_DEGREE}")
    # by size: min_scalar_type gives ulonglong, not uint64, for 48 and 64 bits
    return np.dtype(f"u{np.min_scalar_type((1 << (16 * spec.f)) - 1).itemsize}")


def _order_dtype(spec: FieldSpec) -> np.dtype:
    """The narrowest unsigned word that holds q^4 - 1, the largest order of an
    invertible 4x4 matrix over GF(q): uint8 at q <= 4, uint16 at q = 8 and 16."""
    return np.min_scalar_type(spec.order**4 - 1)


def _keys(spec: FieldSpec, mats: list[Mat4]) -> np.ndarray:
    """The packed keys of the matrices, in the key word of the spec."""
    return np.array([m.packed() for m in mats], dtype=_key_dtype(spec))


def _scaled_rows(spec: FieldSpec, b) -> np.ndarray:
    """S[k * f + t] = x^t * (row k of b), in the low 4f bits; b is a key or an array.

    One step b -> x * b scales all 16 entries of the key at once: each shifts
    left, and one whose top bit falls out takes modulus - x^f in its place.
    """
    word = _key_dtype(spec).type
    f, w = spec.f, 4 * spec.f
    top = word(sum(1 << (f * e + f - 1) for e in range(16)))
    reduction = word(spec.modulus ^ spec.order)
    steps = [np.asarray(b, dtype=word)]
    while len(steps) < f:
        b = steps[-1]
        steps.append(((b & ~top) << word(1)) ^ (((b & top) >> word(f - 1)) * reduction))
    row = word((1 << w) - 1)
    return np.array([(b >> word(w * (3 - k))) & row for k in range(4) for b in steps])


def _smul(spec: FieldSpec, a: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """The products a * b of packed keys, from b's scaled rows (_scaled_rows).

    One shift of a brings bit t of entry (r, k), for all four r, to the lowest
    bit of row slot r; one multiply copies x^t * (row k of b) into each slot
    whose bit is set.  Rows have 4f bits and the key word at least 16f: no
    overlap, no carry.
    """
    word = _key_dtype(spec).type
    f = spec.f
    slots = word(sum(1 << (4 * f * r) for r in range(4)))
    out = np.zeros(np.broadcast_shapes(np.shape(a), scaled.shape[1:]), dtype=word)
    bits, term = np.empty_like(a, dtype=word), np.empty_like(out)
    for i, rows in enumerate(scaled):
        np.right_shift(a, word(f * (3 - i // f) + i % f), out=bits)
        bits &= slots
        out ^= np.multiply(bits, rows, out=term)
    return out


def _kmul(spec: FieldSpec, a: np.ndarray, b) -> np.ndarray:
    """The products a * b of packed keys; b is one key or an array like a."""
    return _smul(spec, a, _scaled_rows(spec, b))


class _Cosets(np.ndarray):
    """Keys of the spec's key word that enumerate_group made and keeps no other
    reference to: EnumeratedGroup takes them over without a copy."""


@dataclass(frozen=True, eq=False)
class EnumeratedGroup:
    """An enumerated matrix group over GF(2^f), f <= 4, as its sorted packed keys.

    The keys are copied into a read-only array of the spec's key word, so no
    later edit of the caller's array can unsort the keys that order_histogram
    and membership search; only the cosets of enumerate_group are taken over
    as they are.  A key outside 0..2^(16f) - 1 raises ValueError rather than
    wrap in the cast, and keys of a dtype other than an integer one raise
    TypeError rather than be truncated.  Keys given as a list are checked as
    the ints they are, so one list may hold keys below and at or above 2^63.
    """

    spec: FieldSpec
    keys: np.ndarray

    def __post_init__(self) -> None:
        given, bits, word = self.keys, 16 * self.spec.f, _key_dtype(self.spec)
        if isinstance(given, np.ndarray):
            given = np.asarray(given)  # the group keeps a plain array, never _Cosets
            low, high = (int(given.min()), int(given.max())) if given.size else (0, 0)
            bad = given.size and given.dtype.kind not in "iu" and f"dtype {given.dtype}"
        else:
            # np.asarray makes float64 of a list that mixes keys below and at or
            # above 2^63, so a list is checked item by item and cast from Python ints
            given = list(given)
            low, high = min(given, default=0), max(given, default=0)
            bad = next((type(k).__name__ for k in given
                        if isinstance(k, bool) or not isinstance(k, (int, np.integer))), None)
        if not 0 <= low <= high < 1 << bits:
            raise ValueError(f"group keys must lie in 0..2^{bits} - 1")
        if bad:
            raise TypeError(f"group keys must be integers, got {bad}")
        keys = (np.array(given, dtype=word) if isinstance(given, list)
                else given.astype(word, copy=not isinstance(self.keys, _Cosets)))
        if (keys[1:] <= keys[:-1]).any():
            raise ValueError("group keys must be strictly increasing")
        keys.flags.writeable = False
        object.__setattr__(self, "keys", keys)

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, m: Mat4) -> bool:
        if m.spec != self.spec:
            return False
        key = _key_dtype(self.spec).type(m.packed())
        pos = int(np.searchsorted(self.keys, key))
        return pos < len(self.keys) and self.keys[pos] == key


def _identity_key(spec: FieldSpec) -> np.unsignedinteger:
    return _key_dtype(spec).type(Mat4.identity(spec).packed())


def _row0(spec: FieldSpec, keys: np.ndarray) -> np.ndarray:
    """e1 * M for each key M: its row 0, the top 4f bits, as an index."""
    return (keys >> _key_dtype(spec).type(12 * spec.f)).astype(np.intp)


def _search(spec: FieldSpec, scaled: np.ndarray, point, cap: int) -> tuple[np.ndarray, list]:
    """Breadth-first search from the identity by right multiplication with the
    generators whose scaled rows _scaled_rows(spec, gens[:, None]) are given,
    keeping, for each new point(x), the first product x that reached it.

    Returns the sorted points and, level by level, the kept elements with, for
    each, the generator s and the position in the level before of the parent t,
    so that x = t * s.  Raises CapacityExceeded past cap points.
    """
    ident = np.array([_identity_key(spec)])
    seen = point(ident)
    levels = [(ident, None, None)]
    while len(levels[-1][0]):
        level = levels[-1][0]
        prods = _smul(spec, level[None, :], scaled).reshape(-1)
        points = point(prods)
        # stable, so the first product wins; np.unique(return_index=True) is slower
        by_point = np.argsort(points, kind="stable")
        points = points[by_point]
        first = np.concatenate(([True], points[1:] != points[:-1]))
        by_point, points = by_point[first], points[first]
        pos = np.searchsorted(seen, points)
        fresh = seen[np.minimum(pos, len(seen) - 1)] != points
        seen = np.insert(seen, pos[fresh], points[fresh])
        if len(seen) > cap:
            raise CapacityExceeded(f"closure exceeded cap of {cap} elements")
        kept = by_point[fresh]
        levels.append((prods[kept], *np.divmod(kept, len(level))))
    return seen, levels


def enumerate_group(generators: list[Mat4], cap: int) -> EnumeratedGroup:
    """The group the invertible generators generate, each element made once.

    By orbit-stabilizer: G is the disjoint union of the cosets H * t_v, where
    t_v runs over a transversal of the orbit of the row vector e1 and H is the
    stabilizer of e1.  H is generated by the Schreier generators
    t_v * s * t_{v*s}^-1 (Schreier's lemma); it is closed breadth-first from
    those of them it does not yet contain, one at a time, and each addition at
    least doubles |H|.

    The transversal is the search over row 0 of the key, with
    t_{v*s}^-1 = s^-1 * t_v^-1 along its parents; H is the search over the
    key itself.

    The cosets are made about _COSET_BLOCK keys at a time into one array,
    sorted in place and handed to the group without a copy.

    Raises CapacityExceeded when the orbit, H or |G| = |orbit| * |H| exceeds
    cap, before any coset is formed; ValueError for a generator that is not
    invertible and for matrices over fields larger than GF(16).
    """
    if not generators:
        raise ValueError("need at least one generator")
    spec = generators[0].spec
    if any(g.spec != spec for g in generators):
        raise ValueError("generators over different field specs")
    if cap < 1:
        raise ValueError("cap must be positive")
    gens = _keys(spec, generators)
    inverses = [g.inverse() for g in generators]
    if None in inverses:
        raise ValueError(f"generator {inverses.index(None)} is not invertible")
    gen_inv = _keys(spec, inverses)
    gen_rows = _scaled_rows(spec, gens[:, None])
    _, levels = _search(spec, gen_rows, lambda keys: _row0(spec, keys), cap)
    trans_inv = [levels[0][0]]
    for _, s, parent in levels[1:]:
        trans_inv.append(_kmul(spec, gen_inv[s], trans_inv[-1][parent]))
    trans = np.concatenate([keys for keys, _, _ in levels])
    trans_inv = np.concatenate(trans_inv)
    index = np.empty(spec.order**4, dtype=np.intp)
    index[_row0(spec, trans)] = np.arange(len(trans))
    moved = _smul(spec, trans[None, :], gen_rows).reshape(-1)
    schreier = _kmul(spec, moved, trans_inv[index[_row0(spec, moved)]])
    chosen: list[np.unsignedinteger] = []
    stab = np.array([_identity_key(spec)])
    while True:
        pos = np.minimum(np.searchsorted(stab, schreier), len(stab) - 1)
        schreier = schreier[stab[pos] != schreier]
        if not len(schreier):
            break
        chosen.append(schreier[0])
        chosen_rows = _scaled_rows(spec, np.array(chosen)[:, None])
        stab, _ = _search(spec, chosen_rows, lambda keys: keys, cap)
    if len(trans) * len(stab) > cap:
        raise CapacityExceeded(f"closure exceeded cap of {cap} elements")
    trans_rows = _scaled_rows(spec, trans[:, None])
    cosets = np.empty((len(trans), len(stab)), dtype=gens.dtype)
    step = max(1, _COSET_BLOCK // len(stab))
    for i in range(0, len(trans), step):
        cosets[i : i + step] = _smul(spec, stab[None, :], trans_rows[:, i : i + step])
    cosets = cosets.reshape(-1)
    cosets.sort()
    cosets.flags.writeable = False  # the group's keys share this buffer
    return EnumeratedGroup(spec, cosets.view(_Cosets))


def sp4_group(q: int, cap: int = DEFAULT_MAX_ENUM) -> EnumeratedGroup:
    """Enumerate Sp4(q) from sp4_generators(q).

    A q whose group order already exceeds cap fails before any enumeration.
    """
    if group_order(q) > cap:
        raise CapacityExceeded(f"closure exceeded cap of {cap} elements")
    return enumerate_group(sp4_generators(q), cap)


@dataclass(frozen=True)
class OrderHistogram:
    """Exact map from element order to count for a finite group."""

    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def nse(self) -> frozenset[int]:
        return frozenset(self.counts.values())

    def power_count(self, n: int) -> int:
        """|G_n| = number of elements with x^n = 1."""
        return sum(c for d, c in self.counts.items() if n % d == 0)

    def __getitem__(self, order: int) -> int:
        return self.counts.get(order, 0)


def _element_orders(spec: FieldSpec, keys: np.ndarray) -> np.ndarray:
    """The order of every key, from power chains that mark only generators.

    The unassigned keys among the next 4 * _ORDER_BATCH positions, at most
    _ORDER_BATCH of them, are powered together until the identity, and each
    g gets its order k at its own position.  Of its powers, only g^j with
    j >= 2 and gcd(j, k) = 1 are looked up among the sorted keys: they
    generate <g>, so their order is exactly k.  The other powers, the
    identity among them, get chains of their own in later batches, which
    are short.  Powers outside the keys are skipped, so a key set that is not
    closed gets the same orders as a chain per key.

    Orders are held in _order_dtype(spec), the word of q^4 - 1, the largest
    order in GL4(q): a chain stops there, so a key whose powers miss the
    identity (a singular matrix) raises RuntimeError after q^4 - 1 products.
    Each batch runs in _order_batch, so its temporaries are freed before the
    next batch makes its own.  On Sp4(4) this takes about 0.12-0.14 s on a
    2-vCPU x86-64 host, with 1,924,841 products and 768,294 sorted lookups.
    """
    orders = np.zeros(len(keys), dtype=_order_dtype(spec))
    start, window = 0, 4 * _ORDER_BATCH
    while start < len(keys):
        batch = np.flatnonzero(orders[start : start + window] == 0)[:_ORDER_BATCH] + start
        start = int(batch[-1]) + 1 if len(batch) == _ORDER_BATCH else start + window
        if len(batch):
            _order_batch(spec, keys, orders, batch)
    return orders


def _order_batch(spec: FieldSpec, keys: np.ndarray, orders: np.ndarray, batch: np.ndarray) -> None:
    """Write into orders the order of each key at the positions batch, and that
    order at each marked power of the key among the sorted keys.

    Finished chains are dropped by one flatnonzero and a take on idx, cur and
    the columns of scaled, and the powers to mark are picked from a coprime
    table gathered by order: on Sp4(4) that takes 0.02 s and 0.01 s.  The
    sorted lookups take about 0.04 s, the products 0.02 s and sorting the
    marked powers 0.02 s.
    """
    ident = _identity_key(spec)
    chain_orders = np.zeros(len(batch), dtype=orders.dtype)
    powers, owners = [], []  # g^j, j >= 2, not yet the identity, and the index of g
    idx = np.arange(len(batch))
    cur = keys[batch]
    scaled = _scaled_rows(spec, cur)  # a chain's base is fixed
    bound = spec.order**4 - 1
    for j in range(1, bound + 1):
        done = cur == ident
        if done.any():
            chain_orders[idx[done]] = j
            live = np.flatnonzero(~done)
            idx, cur, scaled = idx.take(live), cur.take(live), scaled.take(live, axis=1)
            if not len(idx):
                break
        if j > 1:
            powers.append(cur)
            owners.append(idx)
        cur = _smul(spec, cur, scaled)
    else:
        raise RuntimeError(f"element order exceeds bound {bound}")
    orders[batch] = chain_orders
    if not powers:
        return
    # g^j generates <g> when gcd(j, k) = 1 for the order k of g: keep only
    # those, and drop each full-length list before the next array of its size.
    # coprime[k] says so for the step's j, set at the batch's few distinct orders.
    distinct = np.unique(chain_orders)
    coprime = np.zeros(int(distinct[-1]) + 1, dtype=bool)
    marked_orders = []
    for i, owner in enumerate(owners):
        coprime[distinct] = np.gcd(distinct, i + 2) == 1
        k = chain_orders.take(owner)
        marked = np.flatnonzero(coprime.take(k))
        powers[i] = powers[i].take(marked)
        marked_orders.append(k.take(marked))
    del owners
    power, power_orders = np.concatenate(powers), np.concatenate(marked_orders)
    del powers, marked_orders
    # an index costs 8 bytes a power: each index array is freed once used
    by_key = np.argsort(power)
    power, power_orders = power.take(by_key), power_orders.take(by_key)
    del by_key
    # two chains of one cyclic subgroup in a batch mark the same powers
    first = np.flatnonzero(np.concatenate(([True], power[1:] != power[:-1])))
    power, power_orders = power.take(first), power_orders.take(first)
    del first
    pos = np.minimum(np.searchsorted(keys, power), len(keys) - 1)
    # in a group every power hits: a mask that is all true beats flatnonzero and take
    hit = keys[pos] == power
    orders[pos[hit]] = power_orders[hit]


def order_histogram(group: EnumeratedGroup) -> OrderHistogram:
    """Exact order histogram of an enumerated group, computed on each call."""
    orders = _element_orders(group.spec, group.keys)
    # np.bincount copies its input to intp, and np.unique sorts uint8
    # orders 4x slower than int32 ones: count one batch at a time
    counts = np.zeros(int(orders.max(initial=0)) + 1, dtype=np.int64)
    for i in range(0, len(orders), _ORDER_BATCH):
        counts += np.bincount(orders[i : i + _ORDER_BATCH], minlength=len(counts))
    return OrderHistogram({k: c for k, c in enumerate(counts.tolist()) if c})


# ---------------------------------------------------------------------------
# Permutation groups (used for the order-84 pair and small verifications)

Perm = tuple[int, ...]


@dataclass(frozen=True)
class PermGroupSpec:
    """A permutation group given by generators on {0..degree-1}."""

    degree: int
    generators: tuple[Perm, ...]

    def __post_init__(self) -> None:
        for p in self.generators:
            if sorted(p) != list(range(self.degree)):
                raise ValueError(f"not a permutation of degree {self.degree}: {p}")


def _perm_mul(a: Perm, b: Perm) -> Perm:
    """(a * b)(x) = a(b(x))."""
    return tuple(a[b[x]] for x in range(len(a)))


def _perm_order(p: Perm) -> int:
    seen = [False] * len(p)
    k = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        k = lcm(k, length)
    return k


def _from_cycles(degree: int, cycles: list[list[int]]) -> Perm:
    img = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a] = b
    return tuple(img)


def perm_group_elements(spec: PermGroupSpec) -> set[Perm]:
    """Closure of the generators; breadth-first, at most _PERM_MAX elements."""
    ident = tuple(range(spec.degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in spec.generators:
                q = _perm_mul(p, g)
                if q not in seen:
                    seen.add(q)
                    if len(seen) > _PERM_MAX:
                        raise CapacityExceeded(f"closure exceeded cap of {_PERM_MAX} elements")
                    nxt.append(q)
        frontier = nxt
    return seen


def perm_nse(spec: PermGroupSpec) -> OrderHistogram:
    """Order histogram of the group generated by the permutation spec."""
    counts: dict[int, int] = {}
    for p in perm_group_elements(spec):
        k = _perm_order(p)
        counts[k] = counts.get(k, 0) + 1
    return OrderHistogram(dict(sorted(counts.items())))


def z4_times_z7_z3() -> PermGroupSpec:
    """Z4 x (Z7 : Z3): the 7-cycle with the squaring action, times a 4-cycle.

    The Frobenius factor acts on {0..6} by a -> a+1 and a -> 2a; the Z4 factor
    is a 4-cycle on four extra points.  This is the unique group of this
    isomorphism type, of order 84, with elements of order 28.
    """
    shift = _from_cycles(11, [[0, 1, 2, 3, 4, 5, 6]])
    double = tuple([(2 * a) % 7 for a in range(7)] + [7, 8, 9, 10])
    four = _from_cycles(11, [[7, 8, 9, 10]])
    return PermGroupSpec(11, (shift, double, four))


def z3_times_z7_z4() -> PermGroupSpec:
    """Z3 x (Z7 : Z4), where Z4 inverts Z7 through its order-2 quotient.

    No faithful order-4 action on Z7 exists; the order-4 generator acts on
    {0..6} by negation while carrying a 4-cycle on four extra points, which
    makes the representation faithful.  Order 84, no element of order 28.
    """
    shift = _from_cycles(14, [[0, 1, 2, 3, 4, 5, 6]])
    negate_and_cycle = tuple(
        [(-a) % 7 for a in range(7)] + [8, 9, 10, 7] + [11, 12, 13]
    )
    three = _from_cycles(14, [[11, 12, 13]])
    return PermGroupSpec(14, (shift, negate_and_cycle, three))
