"""Set-partition lattice P(n).

Enumeration (restricted-growth-string order), the closed-form Mobius value
mu(pi, 1_n), the non-crossing partitions, the literal block-multiplicative sums
over P(n) (``block_sum``) and over the tuples of P(n)^m that join to 1_n
(``join_sum``), and brute-force counting of the covering / essential /
interval-join tuple families together with their closed-form counterparts.

A partition is encoded as a tuple of block bitmasks (bit x-1 for element x),
ordered by their minimum; one walk (``partition_masks``) yields P(n) in that
encoding, and the join sums and the counts here read it: block sizes are
``int.bit_count``, and a family joins to 1_n when its block masks fold into
one component covering [n].  That fold (``_fold``) is the one connectivity
test: ``_joins_to_top`` applies it to one family, ``join_sum`` and the
tuple-family counts to states: they sum the tuples level by level by the
state their prefixes reach (``_count_states``), the components folded so far
(the union, for the covering count), not tuple by tuple.  ``block_sum`` and
``identities.s_bruteforce`` sum P(n) by block-size profile (``block_profiles``).
The walk inserts element n into each partition of [n-1], and asked for k
blocks (``partition_masks(n, blocks=k)``) it visits only the partitions that
can still end with k; a second walk of the same shape inserts it only where
no crossing arises, and lists the non-crossing partitions without visiting
the rest of P(n) (``noncrossing_masks``).  Masks are the one encoding:
nothing is tabled per element, and ``mask_elements`` reads a block's
elements back where they are printed.

Everything here is integer arithmetic on immutable values; ``block_sum``
and ``join_sum`` sum on ints too, and ``scalars.integer_weights`` takes their
total back to the weights' kind, rounded once at the ambient precision.
Brute-force enumerations are guarded by explicit caps because Bell numbers
grow fast: Bell(12) is already about 4.2 million.  This module is the one
place that refuses: each enumeration checks its size against its cap when
it is requested, before any element is produced, and raises
``CapExceededError``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, combinations
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError
from .scalars import binom, differences, integer_weights, multinomial

DEFAULT_PARTITION_CAP = 12
DEFAULT_TUPLE_CAP = 8


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def mask_elements(mask: int) -> tuple[int, ...]:
    """The elements of the block with bitmask ``mask`` (bit x-1 for element x), increasing."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length())
        mask &= mask - 1
    return tuple(out)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _walk(n: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """The partitions of [n] with ``lo`` to ``hi`` blocks as tuples of block
    masks ordered by their minimum, in restricted-growth-string
    lexicographic order: element n joins each block of each partition of
    [n-1] in turn, then opens its own block.

    A parent with r blocks may take n into a block only when r >= lo, and
    open a new one only when r < hi, so the parents walked are those with
    max(lo-1, 1) to hi blocks: every one of them leads to a partition kept,
    and the order is that of the full walk filtered by block count.  The
    walk recurses n levels deep."""
    if n == 1:
        if lo <= 1 <= hi:
            yield (1,)
        return
    last = 1 << (n - 1)
    for parent in _walk(n - 1, max(lo - 1, 1), hi):
        r = len(parent)
        if r >= lo:
            blocks = list(parent)
            for i, b in enumerate(parent):
                blocks[i] = b | last
                yield tuple(blocks)
                blocks[i] = b
        if r < hi:
            yield (*parent, last)


def _noncrossing_walk(n: int) -> Iterator[tuple[int, ...]]:
    """NC(n) in the order of ``_walk``, by the same insertion: element n may
    join a block only when no earlier block (one with a smaller minimum) ends
    after it.  Non-crossing blocks nest or lie apart, so that is one running
    maximum of ``bit_length``."""
    if n == 1:
        yield (1,)
        return
    last = 1 << (n - 1)
    for parent in _noncrossing_walk(n - 1):
        blocks = list(parent)
        reach = 0  # the largest end among the blocks before b
        for i, b in enumerate(parent):
            end = b.bit_length()
            if end > reach:
                blocks[i] = b | last
                yield tuple(blocks)
                blocks[i] = b
                reach = end
        yield (*parent, last)


def _check_size(n: int, cap: int) -> None:
    """Refuse ``n`` at the call, before a walk is made."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > cap:
        raise CapExceededError("partition enumeration", n, cap)


def partition_masks(n: int, cap: int = DEFAULT_PARTITION_CAP,
                    blocks: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of [n], each a tuple of block bitmasks (bit x-1 for
    element x) ordered by their minimum, in restricted-growth-string
    lexicographic order: 1_n (string 00...0) first, 0_n (string 012...)
    last.  With ``blocks`` set, only those with that many blocks, in the same
    order, and the walk visits no partition that cannot end with that many.
    Each call owns an independent cursor; ``n`` and the cap are checked at
    the call."""
    _check_size(n, cap)
    return _walk(n, 1, n) if blocks is None else _walk(n, blocks, blocks)


def noncrossing_masks(n: int, cap: int = DEFAULT_PARTITION_CAP) -> Iterator[tuple[int, ...]]:
    """The non-crossing partitions of [n] as ``partition_masks`` encodes
    them, in restricted-growth-string lexicographic order: 1_n first, 0_n
    last.  P(n) is not walked.  ``n`` and the cap are checked at the call."""
    _check_size(n, cap)
    return _noncrossing_walk(n)


def block_profiles(n: int) -> dict:
    """How many partitions of [n] have each ascending block-size profile: as
    in the walk, x joins each block in turn or opens its own, the partitions
    folded by profile as ``_count_states`` folds tuples.  Capped at the call."""
    _check_size(n, DEFAULT_PARTITION_CAP)
    states = {(): 1}
    for _ in range(n):
        nxt: dict = {}
        for sizes, ways in states.items():
            # a block grown to s + 1 takes the place of the last block of its
            # size s, whose run of equal sizes ends at e: they stay ascending
            ends = [bisect_right(sizes, s) for s in sizes]
            for key in (*(sizes[:e - 1] + (sizes[e - 1] + 1,) + sizes[e:] for e in ends),
                        (1, *sizes)):
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return states


def partition_count(n: int, cap: int = DEFAULT_PARTITION_CAP, noncrossing: bool = False) -> int:
    """How many partitions ``partition_masks`` (or ``noncrossing_masks``)
    yields, with no walk: Bell(n), the last entry of row n of the Bell
    triangle, or Catalan(n).  ``n`` and the cap are checked as for the walks."""
    _check_size(n, cap)
    if noncrossing:
        return math.comb(2 * n, n) // (n + 1)
    row = [1]
    for _ in range(n - 1):
        row = list(accumulate(row, initial=row[-1]))
    return row[-1]


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------

def _fold(comps: Iterable[int], masks: Iterable[int]) -> list[int]:
    """The disjoint connected components left when the blocks ``masks`` are
    folded, one by one, into the components ``comps``.

    The join of partitions is the connectivity closure of their blocks: each
    mask absorbs every component it meets and takes their place as one.  This
    is the one connectivity test in the package; ``_joins_to_top`` and
    ``_count_connected`` read it.
    """
    for mask in masks:
        rest = []
        for c in comps:
            if c & mask:
                mask |= c
            else:
                rest.append(c)
        rest.append(mask)
        comps = rest
    return comps


def _joins_to_top(comps: Sequence[int], masks: Iterable[int]) -> bool:
    """True iff the partition of [n] with the block masks ``comps``, joined
    with the blocks ``masks``, is 1_n: the components of ``comps`` cover [n],
    so the join is 1_n exactly when ``_fold`` leaves one."""
    return len(_fold(comps, masks)) == 1


# ---------------------------------------------------------------------------
# Mobius function
# ---------------------------------------------------------------------------

def mobius_top(r: int) -> int:
    """mu(pi, 1_n) = (-1)^(r-1) (r-1)! for a partition pi with r blocks."""
    return (-1) ** (r - 1) * math.factorial(r - 1)


# ---------------------------------------------------------------------------
# block-multiplicative sums
# ---------------------------------------------------------------------------

def block_sum(weights: Sequence, n: int, signed: bool = False):
    """sum over pi in P(n) of prod_{V in pi} weights[|V| - 1], each term times
    mu(pi, 1_n) when ``signed`` is set.

    The literal oracle of ``series``: with W(z) = 1 + sum_s weights[s-1] z^s / s!
    the unsigned sum is n! [z^n] exp(W(z) - 1) and the signed one n! [z^n]
    log W(z).  One loop adds one term per profile (``block_profiles``) on one
    int (``integer_weights``), and the total goes back to the weights' kind
    once: a ``Fraction``, or the exact sum rounded once to an mpf (at the
    ambient precision) or to binary64.
    """
    profiles = block_profiles(n)  # refuses n < 1, and n past the cap, first
    if len(weights) < n:
        raise ValueError(f"need the weights of block sizes 1..{n}, got {len(weights)}")
    (ws,), back = integer_weights(weights[:n])
    total = 0
    for sizes, ways in profiles.items():
        term = ways * mobius_top(len(sizes)) if signed else ways
        for s in sizes:
            term = term * ws[s - 1]
        total += term
    return back(total, n)


def join_sum(weights: Sequence[Sequence], n: int):
    """sum over tuples (sigma_1,...,sigma_m) in P(n)^m whose join is 1_n of
    prod_i prod_{V in sigma_i} weights[i][|V| - 1].

    The literal oracle of the pi-sum of ``cumulants.boxtimes_cumulants``;
    m = len(weights).  Factor i's partitions (``partition_masks``, which
    refuses n > 6) enter ``_count_connected`` as their non-singleton blocks,
    weighted by their block products on ints: the tuples are summed by the
    components they reach, and the int total goes back to the weights' kind
    once, as in ``block_sum``.
    """
    if not weights or any(len(ws) < n for ws in weights):
        raise ValueError(f"need the weights of block sizes 1..{n} for each factor")
    parts = list(partition_masks(n, cap=6))
    tables, back = integer_weights(*(ws[:n] for ws in weights))
    pools = [[(tuple(m for m in masks if m & (m - 1)),
               math.prod(ws[m.bit_count() - 1] for m in masks)) for masks in parts]
             for ws in tables]
    return back(_count_connected([1 << x for x in range(n)], pools), len(weights) * n)


# ---------------------------------------------------------------------------
# tuple-family counting
# ---------------------------------------------------------------------------

def _interval_masks(lengths: Sequence[int]) -> list[int]:
    """The block masks of the consecutive intervals of [sum(lengths)] with
    the given (positive) lengths, from 1 up."""
    ends = list(accumulate(lengths, initial=0))
    return [(1 << b) - (1 << a) for a, b in zip(ends, ends[1:])]


def _check_positive(**groups: Sequence[int]) -> None:
    """Every tuple-family count takes only positive n, sizes and lengths."""
    for name, values in groups.items():
        if not values or any(v < 1 for v in values):
            raise ValueError(f"{name} must be positive, got {tuple(values)}")


def _subset_pools(n: int, sizes: tuple, cap: int, what: str) -> list[list[tuple]]:
    """For each size m, all m-subsets W of [n] as the pairs ((W,), 1) of
    ``_count_states``, W a bitmask; refused past the cap."""
    if n > cap:
        raise CapExceededError(what, n, cap)
    bits = [1 << x for x in range(n)]
    return [[((sum(c),), 1) for c in combinations(bits, m)] for m in sizes]


def _count_states(start, pools: list[list[tuple]], step) -> dict:
    """The tuples taking one (blocks, weight) pair from each pool in turn,
    summed by the state they reach from ``start`` when ``step(state, blocks)``
    folds each pair's block masks in: a dict from each state to the sum of
    the products of its tuples' weights (their number, for weights 1).  Each
    pool folds each state reached so far once, not each prefix."""
    states = {start: 1}
    for pool in pools:
        nxt: dict = {}
        for state, ways in states.items():
            for blocks, weight in pool:
                key = step(state, blocks)
                nxt[key] = nxt.get(key, 0) + ways * weight
        states = nxt
    return states


def _count_connected(comps: list[int], pools: list[list[tuple]]):
    """The sum of the weight products of the tuples, one (blocks, weight)
    pair from each pool, whose blocks joined with the partition of [n] with
    the block masks ``comps`` give 1_n.

    The prefixes are summed by their components, a sorted tuple of disjoint
    masks (``_count_states``); the last pool is only tested for a join of
    1_n, with no state kept.
    """
    states = _count_states(tuple(sorted(comps)), pools[:-1],
                           lambda state, blocks: tuple(sorted(_fold(state, blocks))))
    return sum(ways * sum(w for blocks, w in pools[-1] if _joins_to_top(state, blocks))
               for state, ways in states.items())


def count_R(n: int, sizes: Sequence[int], cap: int = DEFAULT_TUPLE_CAP,
            method: str = "brute") -> int:
    """Tuples (W_1,...,W_k) of subsets of [n] with |W_i|=sizes[i] covering [n].

    ``method="brute"`` enumerates tuples (capped); ``method="formula"`` uses
    inclusion-exclusion over the union's size, the n-th forward difference
    at 0 of l -> prod_i C(l, m_i), which has no size cap and vanishes past
    sum(m_i), the polynomial's degree.
    """
    sizes = tuple(sizes)
    _check_positive(n=(n,), sizes=sizes)
    if method == "formula":
        if n > sum(sizes):
            return 0
        return differences([math.prod(binom(l, m) for m in sizes) for l in range(n + 1)])[n]
    if method != "brute":
        raise ValueError(f"unknown method {method!r}")
    if any(m > n for m in sizes):
        return 0
    pools = _subset_pools(n, sizes, cap, "covering-tuple count")
    # the tuples counted by their union
    return _count_states(0, pools, lambda union, blocks: union | blocks[0]).get((1 << n) - 1, 0)


def count_S(n: int, sizes: Sequence[int], cap: int = DEFAULT_TUPLE_CAP) -> int:
    """Essential tuples: |W_i|=sizes[i] and the W_i join to 1_n.

    Each W_i is read as the partition with the one block W_i and singletons
    elsewhere.  Duplicates among the W_i are allowed.  The join condition
    forces the union to cover [n], so no separate covering check is needed.
    """
    sizes = tuple(sizes)
    _check_positive(n=(n,), sizes=sizes)
    if any(m > n for m in sizes):
        return 0
    # degree bound: no essential tuples beyond sum(m_i) - (k-1)
    if n > sum(sizes) - (len(sizes) - 1):
        return 0
    pools = _subset_pools(n, sizes, cap, "essential-tuple count")
    return _count_connected([1 << x for x in range(n)], pools)


def _check_lengths(sizes: tuple, lengths: tuple) -> None:
    _check_positive(sizes=sizes, lengths=lengths)
    need = sum(sizes) - (len(sizes) - 1)
    if len(lengths) != need:
        raise ValueError(f"need {need} lengths for sizes {sizes}, got {len(lengths)}")


def count_T(sizes: Sequence[int], lengths: Sequence[int],
            cap: int = DEFAULT_TUPLE_CAP) -> int:
    """Brute-force count of the interval-join tuple family.

    Tuples (W_1,...,W_k) of subsets of [L], |W_i|=sizes[i], whose
    partitions (W_i plus singletons) joined with the interval partition of
    ``lengths`` give 1_L.  ``lengths`` must have sum(sizes) - (k-1) entries.
    """
    sizes = tuple(sizes)
    lengths = tuple(lengths)
    _check_lengths(sizes, lengths)
    pools = _subset_pools(sum(lengths), sizes, cap, "interval-join tuple count")
    return _count_connected(_interval_masks(lengths), pools)


def count_T_closed(sizes: Sequence[int], lengths: Sequence[int]) -> int:
    """Closed form: (prod l_i) * multinomial(M-k; m_i - 1) * (sum l_i)^(k-1)."""
    sizes = tuple(sizes)
    lengths = tuple(lengths)
    _check_lengths(sizes, lengths)
    k = len(sizes)
    return (math.prod(lengths) * multinomial(sum(sizes) - k, [m - 1 for m in sizes])
            * sum(lengths) ** (k - 1))


def count_join_full(sizes: Sequence[int], cap: int = DEFAULT_TUPLE_CAP) -> int:
    """Partitions of [M] joining the size-interval partition to 1_M.

    Counts sigma in P(M) with M-(k-1) blocks, the largest block count at
    which such sigma exist, whose join with the interval partition of
    ``sizes`` is 1_M.
    Brute force over the partitions of [M] with that many blocks, walked by
    block count (``partition_masks`` with ``blocks``), not over all of P(M);
    the cap bounds M.  ``count_join_full_closed`` is the formula.
    """
    sizes = tuple(sizes)
    _check_positive(sizes=sizes)
    M = sum(sizes)
    lattice = partition_masks(M, cap=cap, blocks=M - (len(sizes) - 1))
    intervals = _interval_masks(sizes)
    return sum(_joins_to_top(intervals, sigma) for sigma in lattice)


def count_join_full_closed(sizes: Sequence[int]) -> int:
    """Closed form (M-(k-1))^(k-2) * prod(m_i), valid at |sigma| = M-(k-1).

    For k = 1 the exponent is -1 and the expression is prod(m_i)/M = 1,
    matching the single qualifying partition 0_M.
    """
    sizes = tuple(sizes)
    _check_positive(sizes=sizes)
    k = len(sizes)
    if k == 1:
        return 1
    return (sum(sizes) - (k - 1)) ** (k - 2) * math.prod(sizes)
