"""Brute-force ground truth: Sp4(q) by closure from explicit generators, plus a
small permutation-group engine.

The matrix engine enumerates the full group breadth-first from the standard
generators (root elements x_iota(1), torus elements h(g,1), h(1,g), and the two
Weyl reflections).  Each matrix is one uint64 key laid out as Mat4.packed()
(16 entries of f bits, row-major, entry (0,0) most significant), so q <= 16.
Closure, order histograms and random words run on key arrays through one
batched product that gathers from a table of field-scalar-times-packed-row
products.  The scalar Mat4 API stays as the independent cross-check.

For even q the symplectic group is already simple modulo nothing: the center
is trivial, so the enumerated Sp4(q) *is* PSp4(q) and no quotient is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

import numpy as np

from .gf2 import FieldSpec, find_generator
from .sympl import group_order, validate_q

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
    "random_word_orders",
    "perm_group_elements",
    "perm_nse",
    "z4_times_z7_z3",
    "z3_times_z7_z4",
]

_CHUNK_ROWS = 1 << 18


class CapacityExceeded(RuntimeError):
    """Raised when a closure grows past the configured cap."""


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

    @classmethod
    def identity(cls, spec: FieldSpec) -> Mat4:
        return cls(spec, tuple(1 if r == c else 0 for r in range(4) for c in range(4)))

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows) -> Mat4:
        flat = tuple(x for row in rows for x in row)
        return cls(spec, flat)

    def __getitem__(self, rc: tuple[int, int]) -> int:
        r, c = rc
        return self.entries[4 * r + c]

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


def _keys(spec: FieldSpec, mats: list[Mat4]) -> np.ndarray:
    """The packed keys of the matrices, as uint64."""
    if spec.f > _MAX_KEY_DEGREE:
        raise ValueError(f"matrices over GF(2^{spec.f}) need {16 * spec.f}-bit keys; the "
                         f"oracle packs them into 64 bits, so q <= {1 << _MAX_KEY_DEGREE}")
    return np.array([m.packed() for m in mats], dtype=np.uint64)


def _unpack(spec: FieldSpec, keys: np.ndarray) -> np.ndarray:
    """The (n, 16) row-major entries of the keys."""
    mask = np.uint64(spec.order - 1)
    out = np.empty((len(keys), 16), dtype=np.uint8)
    for i in range(16):
        out[:, i] = (keys >> np.uint64(spec.f * (15 - i))) & mask
    return out


def _pack(spec: FieldSpec, entries: np.ndarray) -> np.ndarray:
    """The keys of (n, 16) row-major entries; the inverse of _unpack."""
    keys = np.zeros(len(entries), dtype=np.uint64)
    for i in range(16):
        keys = (keys << np.uint64(spec.f)) | entries[:, i]
    return keys


@lru_cache(maxsize=_MAX_KEY_DEGREE)
def _row_table(spec: FieldSpec) -> np.ndarray:
    """T[s * q^4 + w] = s * w for a field scalar s and a packed row w (4f bits)."""
    q, f = spec.order, spec.f
    scalar = np.array([[spec.mul(s, e) for e in range(q)] for s in range(q)], dtype=np.uint64)
    rows = np.arange(q**4, dtype=np.uint64)
    table = np.zeros((q, q**4), dtype=np.uint64)
    for c in range(4):
        shift = np.uint64(f * (3 - c))
        table |= scalar[:, (rows >> shift) & np.uint64(q - 1)] << shift
    return table.reshape(-1)


def _kmul(spec: FieldSpec, a: np.ndarray, b) -> np.ndarray:
    """The products a * b of packed keys; b is one key or an array like a.

    Row r of a * b is the xor over k of a[r, k] * (row k of b): sixteen
    gathers from the one table of scalar-times-row products.
    """
    table = _row_table(spec)
    f, w = spec.f, 4 * spec.f
    scalar_bits = np.uint64((spec.order - 1) << w)
    row = np.uint64((1 << w) - 1)
    b_rows = [(b >> np.uint64(w * (3 - k))) & row for k in range(4)]
    out = np.zeros(len(a), dtype=np.uint64)
    idx = np.empty(len(a), dtype=np.uint64)
    for r in range(4):
        acc = np.zeros(len(a), dtype=np.uint64)
        for k in range(4):
            # move entry (r, k) of a to the scalar bits of the table index
            shift = f * (15 - 4 * r - k) - w
            if shift >= 0:
                np.right_shift(a, np.uint64(shift), out=idx)
            else:
                np.left_shift(a, np.uint64(-shift), out=idx)
            idx &= scalar_bits
            idx |= b_rows[k]
            acc ^= table[idx.view(np.intp)]
        acc <<= np.uint64(w * (3 - r))
        out |= acc
    return out


@dataclass
class EnumeratedGroup:
    """An enumerated matrix group over GF(2^f), f <= 4, as its sorted packed keys."""

    spec: FieldSpec
    keys: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, m: Mat4) -> bool:
        if m.spec != self.spec:
            return False
        key = np.uint64(m.packed())
        pos = int(np.searchsorted(self.keys, key))
        return pos < len(self.keys) and self.keys[pos] == key

    @property
    def mats(self) -> np.ndarray:
        """The (n, 4, 4) entries, unpacked on each access."""
        return _unpack(self.spec, self.keys).reshape(-1, 4, 4)

    def __iter__(self):
        for row in _unpack(self.spec, self.keys):
            yield Mat4(self.spec, tuple(row.tolist()))

    def all_symplectic(self) -> bool:
        """Vectorized check that every element preserves the alternating form."""
        mats = self.mats
        at = _pack(self.spec, mats.transpose(0, 2, 1).reshape(-1, 16))
        ja = _pack(self.spec, mats[:, ::-1, :].reshape(-1, 16))  # J reverses rows
        j = Mat4(self.spec, _J_ENTRIES).packed()
        return bool((_kmul(self.spec, at, ja) == np.uint64(j)).all())


def enumerate_group(generators: list[Mat4], cap: int) -> EnumeratedGroup:
    """Closure of the generators under multiplication, breadth-first from identity.

    Raises CapacityExceeded as soon as the closure grows past cap elements, and
    ValueError for matrices over fields larger than GF(16).
    """
    if not generators:
        raise ValueError("need at least one generator")
    spec = generators[0].spec
    if any(g.spec != spec for g in generators):
        raise ValueError("generators over different field specs")
    if cap < 1:
        raise ValueError("cap must be positive")
    gens = _keys(spec, generators)
    seen = _keys(spec, [Mat4.identity(spec)])  # sorted throughout
    frontier = seen
    while len(frontier):
        fresh_blocks = []
        for start in range(0, len(frontier), _CHUNK_ROWS):
            chunk = frontier[start : start + _CHUNK_ROWS]
            prods = np.sort(np.concatenate([_kmul(spec, chunk, g) for g in gens]))
            # np.unique would do, but its numpy-2 hash path is several times slower
            prods = prods[np.concatenate(([True], prods[1:] != prods[:-1]))]
            pos = np.searchsorted(seen, prods)
            fresh = seen[np.minimum(pos, len(seen) - 1)] != prods
            seen = np.insert(seen, pos[fresh], prods[fresh])
            if len(seen) > cap:
                raise CapacityExceeded(f"closure exceeded cap of {cap} elements")
            fresh_blocks.append(prods[fresh])
        frontier = np.concatenate(fresh_blocks)
    return EnumeratedGroup(spec, seen)


_SP4_CACHE: dict[int, EnumeratedGroup] = {}


def sp4_group(q: int, cap: int = 2_000_000) -> EnumeratedGroup:
    """Enumerate Sp4(q) once per process; capacity errors are not cached.

    A q whose group order already exceeds cap fails before any enumeration.
    """
    if group_order(q) > cap:
        raise CapacityExceeded(f"closure exceeded cap of {cap} elements")
    group = _SP4_CACHE.get(q)
    if group is None:
        group = _SP4_CACHE[q] = enumerate_group(sp4_generators(q), cap)
    return group


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


def _orders_vectorized(spec: FieldSpec, keys: np.ndarray, bound: int) -> np.ndarray:
    ident = np.uint64(Mat4.identity(spec).packed())
    orders = np.zeros(len(keys), dtype=np.int64)
    idx = np.arange(len(keys))
    cur = base = keys
    for k in range(1, bound + 1):
        done = cur == ident
        orders[idx[done]] = k
        keep = ~done
        idx, cur, base = idx[keep], cur[keep], base[keep]
        if not len(idx):
            return orders
        cur = _kmul(spec, cur, base)
    raise RuntimeError(f"element order exceeds bound {bound}")


def order_histogram(group: EnumeratedGroup) -> OrderHistogram:
    """Exact order histogram of an enumerated group."""
    orders = _orders_vectorized(group.spec, group.keys, len(group) + 1)
    values, counts = np.unique(orders, return_counts=True)
    return OrderHistogram({int(v): int(c) for v, c in zip(values, counts)})


def random_word_orders(
    q: int, count: int, length: int = 24, seed: int = 0
) -> np.ndarray:
    """Orders of random length-`length` products of the Sp4(q) generators."""
    gens = sp4_generators(q)
    spec = gens[0].spec
    g = _keys(spec, gens)
    rng = np.random.default_rng(seed)
    cur = np.full(count, Mat4.identity(spec).packed(), dtype=np.uint64)
    for _ in range(length):
        pick = rng.integers(0, len(g), size=count)
        cur = _kmul(spec, cur, g[pick])
    return _orders_vectorized(spec, cur, bound=4 * (q * q + 1))


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


def perm_group_elements(spec: PermGroupSpec, cap: int = 1_000_000) -> set[Perm]:
    """Closure of the generators; breadth-first, capped."""
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
                    if len(seen) > cap:
                        raise CapacityExceeded(f"closure exceeded cap of {cap} elements")
                    nxt.append(q)
        frontier = nxt
    return seen


def perm_nse(spec: PermGroupSpec, cap: int = 1_000_000) -> OrderHistogram:
    """Order histogram of the group generated by the permutation spec."""
    counts: dict[int, int] = {}
    for p in perm_group_elements(spec, cap):
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
