"""Set-partition lattice P(n) and subset lattice B(n).

Enumeration (restricted-growth-string order), refinement order, join,
closed-form Mobius functions on both lattices, the tau and hat embeddings,
non-crossing filtering, and brute-force counting of the covering / essential
/ interval-join tuple families together with their closed-form counterparts.

Everything here is exact integer arithmetic on immutable values.  Brute-force
enumerations are guarded by explicit caps because Bell numbers grow fast:
Bell(12) is already about 4.2 million.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Sequence

from .errors import CapExceededError
from .scalars import binom, multinomial

DEFAULT_PARTITION_CAP = 12
DEFAULT_TUPLE_CAP = 8


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SetPartition:
    """A partition of {1,...,n} in canonical form.

    Blocks are stored sorted internally and ordered by their minimum, so two
    equal partitions always compare and hash equal.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, blocks: Sequence[Sequence[int]]):
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", canon)
        self._validate()

    @classmethod
    def _canonical(cls, n: int, blocks: tuple[tuple[int, ...], ...]) -> "SetPartition":
        """Trusted constructor for blocks already in canonical form.

        The caller guarantees that ``blocks`` are increasing tuples, ordered
        by their minimum, that partition {1,...,n}; nothing is sorted or
        validated.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)
        return self

    def _validate(self) -> None:
        if self.n < 1:
            raise ValueError(f"ground-set size must be positive, got {self.n}")
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block in partition")
            for x in b:
                if not 1 <= x <= self.n:
                    raise ValueError(f"element {x} outside 1..{self.n}")
                if x in seen:
                    raise ValueError(f"element {x} appears in two blocks")
                seen.add(x)
        if len(seen) != self.n:
            raise ValueError("blocks do not cover the ground set")

    @classmethod
    def bottom(cls, n: int) -> "SetPartition":
        """0_n: all singletons."""
        return cls(n, [(i,) for i in range(1, n + 1)])

    @classmethod
    def top(cls, n: int) -> "SetPartition":
        """1_n: a single block."""
        return cls(n, [tuple(range(1, n + 1))])

    @classmethod
    def from_rgs(cls, rgs: Sequence[int]) -> "SetPartition":
        """Build from a restricted growth string (0-based block labels)."""
        groups: dict[int, list[int]] = {}
        for i, label in enumerate(rgs, start=1):
            groups.setdefault(label, []).append(i)
        return cls(len(rgs), list(groups.values()))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(len(b) for b in self.blocks))

    def block_of(self) -> dict[int, int]:
        """Map element -> index of its block."""
        out: dict[int, int] = {}
        for i, b in enumerate(self.blocks):
            for x in b:
                out[x] = i
        return out

    def __repr__(self) -> str:
        body = "|".join(",".join(str(x) for x in b) for b in self.blocks)
        return f"SetPartition({self.n}: {body})"


@dataclass(frozen=True)
class Subset:
    """A subset of {1,...,n}, stored sorted."""

    n: int
    members: tuple[int, ...]

    def __init__(self, n: int, members: Sequence[int]):
        raw = tuple(members)
        ms = tuple(sorted(set(raw)))
        if len(ms) != len(raw):
            raise ValueError("duplicate members in subset")
        if ms and (ms[0] < 1 or ms[-1] > n):
            raise ValueError(f"members {ms} outside 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", ms)

    def __len__(self) -> int:
        return len(self.members)

    def issubset(self, other: "Subset") -> bool:
        if self.n != other.n:
            raise ValueError("subsets live on different ground sets")
        return set(self.members) <= set(other.members)


@dataclass(frozen=True)
class OrderedPartition:
    """An ordered tuple of blocks whose underlying set is a partition."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, blocks: Sequence[Sequence[int]]):
        ordered = tuple(tuple(sorted(b)) for b in blocks)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", ordered)
        SetPartition(n, ordered)  # validates partition-ness

    @classmethod
    def natural_of(cls, pi: SetPartition) -> "OrderedPartition":
        """Blocks ordered so block i holds the smallest not-yet-covered element."""
        return cls(pi.n, pi.blocks)

    @property
    def is_natural(self) -> bool:
        mins = [b[0] for b in self.blocks]
        return mins == sorted(mins)

    def unordered(self) -> SetPartition:
        return SetPartition(self.n, self.blocks)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def bell_number(n: int) -> int:
    """Bell number via the triangle recurrence."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def enumerate_partitions(n: int, cap: int = DEFAULT_PARTITION_CAP) -> Iterator[SetPartition]:
    """All partitions of [n], in restricted-growth-string lexicographic order.

    The stream starts at 1_n (string 00...0) and ends at 0_n (string 012...).
    Each call owns an independent cursor.

    Blocks are built incrementally: element x joins each open block in turn
    (label 0, 1, ...) and then opens a new one, so every block is increasing
    and the blocks stay ordered by their minimum.  Each partition is thus
    canonical by construction and skips validation.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > cap:
        raise CapExceededError("partition enumeration", n, cap)

    make = SetPartition._canonical
    blocks: list[tuple[int, ...]] = [(1,)]

    def rec(x: int) -> Iterator[SetPartition]:
        if x > n:
            yield make(n, tuple(blocks))
            return
        for i in range(len(blocks)):
            b = blocks[i]
            blocks[i] = b + (x,)
            yield from rec(x + 1)
            blocks[i] = b
        blocks.append((x,))
        yield from rec(x + 1)
        blocks.pop()

    yield from rec(2)


def is_noncrossing(pi: SetPartition) -> bool:
    """No a<b<c<d with a,c in one block and b,d in another.

    Single left-to-right scan with a stack of open blocks: a block may only
    be continued while it is the innermost open one.
    """
    owner = pi.block_of()
    stack: list[int] = []
    for x in range(1, pi.n + 1):
        b = owner[x]
        if x == pi.blocks[b][0]:
            stack.append(b)
        elif stack[-1] != b:
            return False
        if x == pi.blocks[b][-1]:
            stack.pop()
    return True


def enumerate_noncrossing(n: int, cap: int = DEFAULT_PARTITION_CAP) -> Iterator[SetPartition]:
    """Non-crossing partitions of [n], filtered out of the full stream."""
    for pi in enumerate_partitions(n, cap=cap):
        if is_noncrossing(pi):
            yield pi


def enumerate_refinements(pi: SetPartition,
                          cap: int = DEFAULT_PARTITION_CAP) -> Iterator[SetPartition]:
    """All sigma <= pi, built blockwise from partitions of each block of pi."""
    per_block: list[list[list[tuple[int, ...]]]] = []
    for b in pi.blocks:
        opts = []
        for rho in enumerate_partitions(len(b), cap=cap):
            opts.append([tuple(b[i - 1] for i in blk) for blk in rho.blocks])
        per_block.append(opts)
    for combo in product(*per_block):
        yield SetPartition(pi.n, [blk for opt in combo for blk in opt])


def enumerate_coarsenings(pi: SetPartition,
                          cap: int = DEFAULT_PARTITION_CAP) -> Iterator[SetPartition]:
    """All sigma >= pi, one for each partition of the block set of pi."""
    for rho in enumerate_partitions(pi.num_blocks, cap=cap):
        blocks = [
            tuple(sorted(x for i in grp for x in pi.blocks[i - 1]))
            for grp in rho.blocks
        ]
        yield SetPartition(pi.n, blocks)


# ---------------------------------------------------------------------------
# order and join
# ---------------------------------------------------------------------------

class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n + 1))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _check_same_ground(pi: SetPartition, sigma: SetPartition) -> None:
    if pi.n != sigma.n:
        raise ValueError(f"partitions live on different ground sets ({pi.n} vs {sigma.n})")


def join(pi: SetPartition, sigma: SetPartition) -> SetPartition:
    """Least upper bound in the refinement order (connectivity closure)."""
    _check_same_ground(pi, sigma)
    return join_all([pi, sigma], pi.n)


def join_all(parts: Sequence[SetPartition], n: int) -> SetPartition:
    """Join of an arbitrary family (the empty join is 0_n)."""
    if n < 1:
        raise ValueError(f"ground-set size must be positive, got {n}")
    uf = _UnionFind(n)
    for part in parts:
        if part.n != n:
            raise ValueError("ground-set size mismatch in join_all")
        for b in part.blocks:
            for x in b[1:]:
                uf.union(b[0], x)
    # filled in increasing x: each group is increasing and the groups are
    # ordered by their minimum, which is the canonical form
    groups: dict[int, list[int]] = {}
    for x in range(1, n + 1):
        groups.setdefault(uf.find(x), []).append(x)
    return SetPartition._canonical(n, tuple(map(tuple, groups.values())))


def is_refinement(pi: SetPartition, sigma: SetPartition) -> bool:
    """True iff pi <= sigma, i.e. every block of pi sits inside a block of sigma."""
    _check_same_ground(pi, sigma)
    owner = sigma.block_of()
    for b in pi.blocks:
        first = owner[b[0]]
        if any(owner[x] != first for x in b[1:]):
            return False
    return True


# ---------------------------------------------------------------------------
# Mobius functions
# ---------------------------------------------------------------------------

def mobius(pi: SetPartition, sigma: SetPartition) -> int:
    """Mobius value of the interval [pi, sigma] in P(n).

    Closed form: a block of sigma containing c blocks of pi contributes
    (-1)^(c-1) (c-1)!, and the interval value is the product over blocks.
    """
    if not is_refinement(pi, sigma):
        raise ValueError("mobius(pi, sigma) requires pi <= sigma")
    owner = sigma.block_of()
    per_block = [0] * sigma.num_blocks
    for b in pi.blocks:
        per_block[owner[b[0]]] += 1
    out = 1
    for c in per_block:
        out *= (-1) ** (c - 1) * math.factorial(c - 1)
    return out


def mobius_top(pi: SetPartition) -> int:
    """mu(pi, 1_n) = (-1)^(|pi|-1) (|pi|-1)!."""
    r = pi.num_blocks
    return (-1) ** (r - 1) * math.factorial(r - 1)


def mobius_bottom(sigma: SetPartition) -> int:
    """mu(0_n, sigma): each block of size s contributes (-1)^(s-1) (s-1)!."""
    out = 1
    for b in sigma.blocks:
        s = len(b)
        out *= (-1) ** (s - 1) * math.factorial(s - 1)
    return out


def mobius_recursive(pi: SetPartition, sigma: SetPartition, cap: int = 6) -> int:
    """Interval Mobius value by direct recursion; slow, kept as a test oracle."""
    _check_same_ground(pi, sigma)
    if pi.n > cap:
        raise CapExceededError("recursive Mobius", pi.n, cap)
    if not is_refinement(pi, sigma):
        raise ValueError("mobius_recursive(pi, sigma) requires pi <= sigma")
    interval = [
        rho
        for rho in enumerate_partitions(pi.n, cap=cap)
        if is_refinement(pi, rho) and is_refinement(rho, sigma)
    ]
    # defining recursion mu(pi,rho) = -sum over pi <= lo < rho, evaluated
    # bottom-up (more blocks first, since finer partitions come first)
    interval.sort(key=lambda r: -r.num_blocks)
    mu: dict[SetPartition, int] = {}
    for rho in interval:
        if rho == pi:
            mu[rho] = 1
            continue
        mu[rho] = -sum(mu[lo] for lo in interval
                       if lo != rho and lo in mu and is_refinement(lo, rho))
    return mu[sigma]


def mobius_subset(w: Subset, v: Subset) -> int:
    """Mobius function of the subset lattice: (-1)^(|V|-|W|)."""
    if not w.issubset(v):
        raise ValueError("mobius_subset(W, V) requires W a subset of V")
    return (-1) ** (len(v) - len(w))


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def tau_embed(w: Subset) -> SetPartition:
    """The subset W as a partition: W itself plus singletons off W."""
    if not w.members:
        raise ValueError("tau embedding needs a nonempty subset")
    blocks = [w.members] + [(j,) for j in range(1, w.n + 1) if j not in set(w.members)]
    return SetPartition(w.n, blocks)


def interval_partition(lengths: Sequence[int]) -> SetPartition:
    """Consecutive intervals of the given lengths, covering [sum(lengths)]."""
    if not lengths or any(l < 1 for l in lengths):
        raise ValueError("lengths must be positive")
    blocks = []
    start = 1
    for l in lengths:
        blocks.append(tuple(range(start, start + l)))
        start += l
    return SetPartition(start - 1, blocks)


def hat_embed(sigma: SetPartition, sizes: Sequence[int]) -> SetPartition:
    """Expand point i of [k] into an interval of length sizes[i-1].

    Maps P(k) isomorphically onto the interval [hat(0_k), 1_M] of P(M),
    M = sum(sizes); hat(0_k) is the interval partition of the sizes.
    """
    if len(sizes) != sigma.n or any(m < 1 for m in sizes):
        raise ValueError("sizes must be positive, one per point of the source partition")
    starts = []
    s = 1
    for m in sizes:
        starts.append(s)
        s += m
    blocks = []
    for b in sigma.blocks:
        big: list[int] = []
        for i in b:
            big.extend(range(starts[i - 1], starts[i - 1] + sizes[i - 1]))
        blocks.append(big)
    return SetPartition(s - 1, blocks)


# ---------------------------------------------------------------------------
# tuple-family counting
# ---------------------------------------------------------------------------

def _check_tuple_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise CapExceededError(what, n, cap)


def _subset_masks(n: int, m: int) -> list[int]:
    """All m-subsets of [n] as bitmasks (bit i-1 set for element i)."""
    return [sum(1 << (x - 1) for x in c) for c in combinations(range(1, n + 1), m)]


def _merge_masks(acc: list[int], mask: int) -> list[int]:
    """Fold one clique mask into a list of disjoint connected components."""
    merged = mask
    rest = []
    for c in acc:
        if c & merged:
            merged |= c
        else:
            rest.append(c)
    rest.append(merged)
    return rest


def count_R(n: int, sizes: Sequence[int], cap: int = DEFAULT_TUPLE_CAP,
            method: str = "brute") -> int:
    """Tuples (W_1,...,W_k) of subsets of [n] with |W_i|=sizes[i] covering [n].

    ``method="brute"`` enumerates tuples (capped); ``method="formula"`` uses
    the inclusion-exclusion sum over the union's size,
    sum_l C(n,l) (-1)^(n-l) prod_i C(l, m_i), which has no size cap.
    """
    sizes = tuple(sizes)
    if n < 1 or any(m < 1 for m in sizes) or not sizes:
        raise ValueError("n and all sizes must be positive")
    if method == "formula":
        total = 0
        for l in range(1, n + 1):
            term = binom(n, l) * (-1) ** (n - l)
            for m in sizes:
                term *= binom(l, m)
            total += term
        return total
    if method != "brute":
        raise ValueError(f"unknown method {method!r}")
    if any(m > n for m in sizes):
        return 0
    _check_tuple_cap(n, cap, "covering-tuple count")
    full = (1 << n) - 1
    pools = [_subset_masks(n, m) for m in sizes]
    count = 0
    for tup in product(*pools):
        u = 0
        for w in tup:
            u |= w
        if u == full:
            count += 1
    return count


def count_S(n: int, sizes: Sequence[int], cap: int = DEFAULT_TUPLE_CAP) -> int:
    """Essential tuples: |W_i|=sizes[i] and the tau-embeddings join to 1_n.

    Duplicates among the W_i are allowed.  The join condition forces the
    union to cover [n], so no separate covering check is needed.  Each W_i
    acts as a clique, so the join is 1_n exactly when the masks form a
    single connected component covering everything.
    """
    sizes = tuple(sizes)
    if n < 1 or any(m < 1 for m in sizes) or not sizes:
        raise ValueError("n and all sizes must be positive")
    if any(m > n for m in sizes):
        return 0
    # degree bound: no essential tuples beyond sum(m_i) - (k-1)
    if n > sum(sizes) - (len(sizes) - 1):
        return 0
    _check_tuple_cap(n, cap, "essential-tuple count")
    full = (1 << n) - 1
    pools = [_subset_masks(n, m) for m in sizes]
    count = 0
    for tup in product(*pools):
        comps: list[int] = []
        for w in tup:
            comps = _merge_masks(comps, w)
        if len(comps) == 1 and comps[0] == full:
            count += 1
    return count


def count_T(sizes: Sequence[int], lengths: Sequence[int],
            cap: int = DEFAULT_TUPLE_CAP) -> int:
    """Brute-force count of the interval-join tuple family.

    Tuples (W_1,...,W_k) of subsets of [L], |W_i|=sizes[i], whose
    tau-embeddings joined with the interval partition of ``lengths``
    give 1_L.  ``lengths`` must have sum(sizes) - (k-1) entries.
    """
    sizes = tuple(sizes)
    lengths = tuple(lengths)
    k = len(sizes)
    M = sum(sizes)
    if len(lengths) != M - (k - 1):
        raise ValueError(
            f"need {M - (k - 1)} lengths for sizes {sizes}, got {len(lengths)}"
        )
    L = sum(lengths)
    _check_tuple_cap(L, cap, "interval-join tuple count")
    base_masks = []
    start = 1
    for l in lengths:
        base_masks.append(sum(1 << (x - 1) for x in range(start, start + l)))
        start += l
    full = (1 << L) - 1
    pools = [_subset_masks(L, m) for m in sizes]
    count = 0
    for tup in product(*pools):
        comps = list(base_masks)
        for w in tup:
            comps = _merge_masks(comps, w)
        if len(comps) == 1 and comps[0] == full:
            count += 1
    return count


def count_T_closed(sizes: Sequence[int], lengths: Sequence[int]) -> int:
    """Closed form: (prod l_i) * multinomial(M-k; m_i - 1) * (sum l_i)^(k-1)."""
    sizes = tuple(sizes)
    lengths = tuple(lengths)
    k = len(sizes)
    M = sum(sizes)
    if len(lengths) != M - (k - 1):
        raise ValueError(
            f"need {M - (k - 1)} lengths for sizes {sizes}, got {len(lengths)}"
        )
    prod_l = 1
    for l in lengths:
        prod_l *= l
    return prod_l * multinomial(M - k, [m - 1 for m in sizes]) * sum(lengths) ** (k - 1)


def count_join_full(sizes: Sequence[int], num_blocks: int | None = None,
                    cap: int = DEFAULT_TUPLE_CAP) -> int:
    """Partitions of [M] joining the size-interval partition to 1_M.

    Counts sigma in P(M) with sigma v hat(0_k) = 1_M and |sigma| equal to
    ``num_blocks`` (default M-(k-1), the maximal interesting block count).
    Brute force over P(M); see ``count_join_full_closed`` for the formula
    available at the default block count.
    """
    sizes = tuple(sizes)
    M = sum(sizes)
    k = len(sizes)
    if num_blocks is None:
        num_blocks = M - (k - 1)
    _check_tuple_cap(M, cap, "interval-join partition count")
    base = interval_partition(sizes)
    top = SetPartition.top(M)
    count = 0
    for sigma in enumerate_partitions(M, cap=cap):
        if sigma.num_blocks == num_blocks and join(sigma, base) == top:
            count += 1
    return count


def count_join_full_closed(sizes: Sequence[int]) -> int:
    """Closed form (M-(k-1))^(k-2) * prod(m_i), valid at |sigma| = M-(k-1).

    For k = 1 the exponent is -1 and the expression is the rational
    prod(m_i)/M = 1, matching the single qualifying partition 0_M.
    """
    sizes = tuple(sizes)
    M = sum(sizes)
    k = len(sizes)
    prod_m = 1
    for m in sizes:
        prod_m *= m
    base = M - (k - 1)
    if k >= 2:
        return base ** (k - 2) * prod_m
    val = Fraction(prod_m, base)
    if val.denominator != 1:
        raise ArithmeticError("closed form did not produce an integer at k=1")
    return int(val)
