"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the package's own code paths: enumeration on
element lists, a stack scan for crossings, graph-based join, textbook
recurrences.  A partition is passed in and out as the package encodes it, a
tuple of block bitmasks ordered by their minimum (``masks_of``), and the
lattice oracles read its elements back with ``mask_elements``.  The
exceptions are the tuple oracles ``connected_by_product`` and
``join_sum_by_product``: they list every tuple, where the package sums by
state, but test each with the package's join fold (P(n) itself they take
from ``partitions_by_insertion``); and ``sy_limit_t_per_n``, one series log
per n, where the package takes one for the whole column.
"""

import math
from fractions import Fraction
from itertools import chain, combinations, product

import mpmath as mp

from finfree.partitions import _fold, _joins_to_top, mask_elements
from finfree.series import PowerSeries


def bell_oracle(n: int) -> int:
    """Bell number from the binomial recurrence B(n+1) = sum C(n,k) B(k)."""
    from math import comb

    b = [1]
    for m in range(n):
        b.append(sum(comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]


def catalan_oracle(n: int) -> int:
    from math import comb

    return comb(2 * n, n) // (n + 1)


def partitions_by_insertion(n: int):
    """All partitions of [n] by inserting n into partitions of [n-1]."""
    if n == 1:
        yield [[1]]
        return
    for smaller in partitions_by_insertion(n - 1):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [n]] + smaller[i + 1:]
        yield smaller + [[n]]


def masks_of(blocks) -> tuple[int, ...]:
    """The partition with the element lists ``blocks``, as block bitmasks
    (bit x-1 for element x) ordered by their minimum."""
    return tuple(sorted((sum(1 << (x - 1) for x in b) for b in blocks), key=lambda m: m & -m))


def insertion_masks(n: int) -> list[tuple[int, ...]]:
    """P(n) from ``partitions_by_insertion``, each partition as ``masks_of``."""
    return [masks_of(pp) for pp in partitions_by_insertion(n)]


def _ground(masks) -> int:
    """n, for the block masks of a partition of [n]."""
    return sum(masks).bit_length()


def join_bfs(*parts):
    """Join of one or more partitions of [n], by breadth-first search on the
    union of their block graphs."""
    n = _ground(parts[0])
    adj: dict[int, set[int]] = {x: set() for x in range(1, n + 1)}
    for part in parts:
        for b in map(mask_elements, part):
            for x in b:
                adj[x].update(y for y in b if y != x)
    seen: set[int] = set()
    blocks = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    frontier.append(y)
        seen |= comp
        blocks.append(sorted(comp))
    return masks_of(blocks)


def _owner(blocks) -> dict[int, int]:
    """Element -> index of its block."""
    return {x: i for i, b in enumerate(blocks) for x in b}


def noncrossing_by_quadruples(blocks) -> bool:
    """The definition: no a<b<c<d with a,c in one block and b,d in another."""
    owner = _owner(blocks)
    return not any(owner[a] == owner[c] != owner[b] == owner[d]
                   for a, b, c, d in combinations(range(1, len(owner) + 1), 4))


def noncrossing_by_stack(masks: tuple[int, ...]) -> bool:
    """No a<b<c<d with a,c in one block and b,d in another, for block masks
    ordered by their minimum.

    The blocks are met in that order, with a stack of the blocks still open
    at the current block's minimum, innermost on top; those that closed
    before it (no element above the minimum) are popped.  The block passes
    only if it lies strictly between two consecutive elements of the
    innermost open block, which then holds nothing from its minimum to its
    maximum.
    """
    stack: list[int] = []
    for mask in masks:
        low = mask & -mask
        while stack and stack[-1] < low:
            stack.pop()
        if stack and stack[-1] & ((1 << mask.bit_length()) - low):
            return False
        stack.append(mask)
    return True


def subset_pools(n: int, sizes) -> list[list[int]]:
    """For each size m, every m-subset of [n] as a bitmask (none when m > n)."""
    return [[sum(1 << (x - 1) for x in c) for c in combinations(range(1, n + 1), m)]
            for m in sizes]


def connected_by_product(comps, n: int, sizes) -> int:
    """Literal oracle of the connected tuple counts (``count_S``, ``count_T``):
    every tuple (W_1,...,W_k), |W_i| = sizes[i], is listed and tested one by
    one for a join with the partition of [n] with block masks ``comps`` that
    is 1_n.  The join test is the package's fold, itself checked against
    ``join_bfs``."""
    return sum(_joins_to_top(comps, tup) for tup in product(*subset_pools(n, sizes)))


def join_sum_by_product(weights, n: int):
    """Literal oracle of ``join_sum``: every tuple (sigma_1,...,sigma_m) of
    P(n)^m, m = len(weights), is listed and tested for a join of 1_n, and
    prod_i prod_{V in sigma_i} weights[i][|V| - 1] is added in the weights'
    own arithmetic.  Each head (sigma_1,...,sigma_{m-1}) is folded, and its
    weight multiplied, once for all its last factors."""
    parts = insertion_masks(n)
    tables = [[math.prod(ws[m.bit_count() - 1] for m in masks) for masks in parts]
              for ws in weights]
    *heads, last = tables
    bottom = [1 << x for x in range(n)]
    total = 0
    for head in product(range(len(parts)), repeat=len(heads)):
        comps = _fold(bottom, chain.from_iterable(parts[j] for j in head))
        weight = math.prod(table[j] for table, j in zip(heads, head))
        for masks, w in zip(parts, last):
            if _joins_to_top(comps, masks):
                total += weight * w
    return total


def covering_by_product(n: int, sizes) -> int:
    """Literal oracle of ``count_R``: every tuple of subsets with the given
    sizes, listed and tested one by one for a union equal to [n]."""
    full = (1 << n) - 1
    total = 0
    for tup in product(*subset_pools(n, sizes)):
        union = 0
        for w in tup:
            union |= w
        total += union == full
    return total


def _check_same_ground(pi, sigma) -> None:
    n, m = _ground(pi), _ground(sigma)
    if n != m:
        raise ValueError(f"partitions live on different ground sets ({n} vs {m})")


def is_refinement(pi, sigma) -> bool:
    """True iff pi <= sigma, i.e. every block of pi sits inside a block of sigma."""
    _check_same_ground(pi, sigma)
    owner = _owner(map(mask_elements, sigma))
    for b in map(mask_elements, pi):
        first = owner[b[0]]
        if any(owner[x] != first for x in b[1:]):
            return False
    return True


def mobius(pi, sigma) -> int:
    """Mobius value of the interval [pi, sigma] in P(n).

    Closed form: a block of sigma containing c blocks of pi contributes
    (-1)^(c-1) (c-1)!, and the interval value is the product over blocks.
    """
    if not is_refinement(pi, sigma):
        raise ValueError("mobius(pi, sigma) requires pi <= sigma")
    owner = _owner(map(mask_elements, sigma))
    per_block = [0] * len(sigma)
    for b in map(mask_elements, pi):
        per_block[owner[b[0]]] += 1
    out = 1
    for c in per_block:
        out *= (-1) ** (c - 1) * math.factorial(c - 1)
    return out


def mobius_recursive(pi, sigma) -> int:
    """Interval Mobius value by direct recursion over the insertion
    enumeration; slow, kept as the oracle of ``mobius`` up to n = 6."""
    if not is_refinement(pi, sigma):
        raise ValueError("mobius_recursive(pi, sigma) requires pi <= sigma")
    interval = [rho for rho in insertion_masks(_ground(pi))
                if is_refinement(pi, rho) and is_refinement(rho, sigma)]
    # defining recursion mu(pi,rho) = -sum over pi <= lo < rho, evaluated
    # bottom-up (more blocks first, since finer partitions come first)
    interval.sort(key=lambda r: -len(r))
    mu: dict[tuple[int, ...], int] = {}
    for rho in interval:
        if rho == pi:
            mu[rho] = 1
            continue
        mu[rho] = -sum(mu[lo] for lo in interval
                       if lo != rho and lo in mu and is_refinement(lo, rho))
    return mu[sigma]


def _mobius_top(num_blocks: int) -> int:
    """mu(pi, 1_n) = (-1)^(r-1) (r-1)! for a partition with r blocks."""
    from math import factorial

    return (-1) ** (num_blocks - 1) * factorial(num_blocks - 1)


def s_literal(fs, n: int) -> Fraction:
    """The partition sum term by term in Fraction arithmetic, over the
    insertion enumeration: sum_pi mu(pi, 1_n) prod_i sum_V f_i(|V|)."""
    tables = [[f(s) for s in range(n + 1)] for f in fs]
    total = Fraction(0)
    for pi in partitions_by_insertion(n):
        sizes = [len(b) for b in pi]
        term = Fraction(_mobius_top(len(pi)))
        for tab in tables:
            term *= sum(tab[s] for s in sizes)
        total += term
    return total


def faa_di_bruno_literal(derivs, n: int) -> Fraction:
    """n-th derivative of exp(u) at a point where u = 0: the sum over P(n)
    of prod_V derivs[|V|-1], in Fraction arithmetic."""
    total = Fraction(0)
    for pi in partitions_by_insertion(n):
        term = Fraction(1)
        for b in pi:
            term *= derivs[len(b) - 1]
        total += term
    return total


def block_sum_literal(weights, n: int, signed: bool = False):
    """sum over P(n) of prod_V weights[|V|-1], each term times mu(pi, 1_n)
    when ``signed``, one term per partition of the insertion enumeration,
    in the weights' own arithmetic."""
    total = 0
    for pi in partitions_by_insertion(n):
        term = _mobius_top(len(pi)) if signed else 1
        for b in pi:
            term = term * weights[len(b) - 1]
        total = total + term
    return total


def cumulants_literal(d: int, atilde, n_max: int) -> list:
    """kappa_n = (-d)^(n-1)/(n-1)! sum_pi mu(pi, 1_n) prod_V atilde_|V|,
    in Fraction arithmetic, for n = 1..n_max."""
    from math import factorial

    out = []
    for n in range(1, n_max + 1):
        total = Fraction(0)
        for pi in partitions_by_insertion(n):
            term = Fraction(_mobius_top(len(pi)))
            for b in pi:
                term *= atilde[len(b)]
            total += term
        out.append((-d) ** (n - 1) * total / factorial(n - 1))
    return out


def newton_power_sums(coeffs, k_max: int) -> list:
    """Root power sums p_1..p_k_max of sum_i coeffs[i] x^(d-i), coeffs[0] = 1,
    by Newton's identities p_k = -(k a_k + sum_{i<k} a_i p_{k-i}), a_i = 0
    past the degree."""
    a = list(coeffs) + [0] * k_max
    sums = []
    for k in range(1, k_max + 1):
        acc = k * a[k]
        for i in range(1, k):
            acc += a[i] * sums[k - i - 1]
        sums.append(-acc)
    return sums


def lagrange_power_oracle(S, N: int) -> list:
    """kappa_n = [z^(n-1)] S^(-n) / n, n = 1..N, by the textbook route: the
    reciprocal of S by its own recurrence, then N repeated truncated products
    (O(N^3)).  Uses only S.coeffs, so it is independent of the series engine;
    mpf input runs at the caller's precision."""
    c = list(S.coeffs[:N])
    inv = [1 / c[0]]
    for j in range(1, N):
        acc = inv[0] * 0
        for i in range(1, j + 1):
            acc += c[i] * inv[j - i]
        inv.append(-acc / c[0])
    power = [inv[0] ** 0] + [inv[0] * 0] * (N - 1)
    out = []
    for n in range(1, N + 1):
        power = [sum(power[i] * inv[k - i] for i in range(k + 1)) for k in range(N)]
        out.append(power[n - 1] / n)
    return out


# Literal left-to-right loops of the series and convolution recurrences, in
# the multiplication and summation order the fast routes promise to keep, so
# binary64 results can be compared with == (bit for bit).

def exp_literal(u, g0) -> list:
    """exp of a series with exp(u[0]) = g0: g_j = (1/j) sum_i i u_i g_{j-i}."""
    g = [g0]
    for j in range(1, len(u)):
        acc = g[0] * 0
        for i in range(1, j + 1):
            acc += i * u[i] * g[j - i]
        g.append(acc / j)
    return g


def log_literal(f) -> list:
    """log of a series with f[0] = 1: g_j = (j f_j - sum_{i<j} i g_i f_{j-i}) / j."""
    g = [f[0] * 0]
    for j in range(1, len(f)):
        acc = j * f[j]
        for i in range(1, j):
            acc -= i * g[i] * f[j - i]
        g.append(acc / j)
    return g


# The same recurrences on real mpf values (ints allowed): each coefficient's
# sum is taken exactly in Fraction, over products rounded in mpf as ``i * u_i``
# rounds, and rounded once to the nearest mpf, then divided by j in mpf.  The
# sum is dyadic, so it is rounded by the mpf constructor on its (numerator,
# exponent) pair: mpmath converts a Fraction by rounding toward zero.

def _exact_mpf(x) -> Fraction:
    if isinstance(x, int):
        return Fraction(x)
    man, e = x.man_exp
    man = -man if x < 0 else man
    return Fraction(man << e) if e >= 0 else Fraction(man, 1 << -e)


def _nearest_mpf(q: Fraction):
    return mp.mpf((q.numerator, 1 - q.denominator.bit_length()))


def exp_mpf_literal(u) -> list:
    """exp of a real mpf series: g_0 = exp(u_0), g_j = (1/j) sum_i (i u_i) g_{j-i}."""
    g = [mp.exp(u[0])]
    for j in range(1, len(u)):
        acc = sum(_exact_mpf(i * u[i]) * _exact_mpf(g[j - i]) for i in range(1, j + 1))
        g.append(_nearest_mpf(acc) / j)
    return g


def log_mpf_literal(f) -> list:
    """log of a real mpf series with f_0 = 1: g_j = (j f_j + sum_{i<j} (-i g_i) f_{j-i}) / j."""
    g = [f[0] * 0]
    for j in range(1, len(f)):
        acc = _exact_mpf(j * f[j])
        acc += sum(_exact_mpf(-i * g[i]) * _exact_mpf(f[j - i]) for i in range(1, j))
        g.append(_nearest_mpf(acc) / j)
    return g


def boxplus_literal(ap, aq) -> list:
    """atilde_k = sum_{i+j=k} C(k,i) atilde_i(p) atilde_j(q), summed by ``sum``.

    With mpf input each C(k,i) atilde_i(p) is rounded at the ambient
    precision, multiplied by atilde_j(q) exactly, and the sum is rounded once.
    """
    from math import comb

    import mpmath as mp

    out = []
    for k in range(len(ap)):
        terms = [(comb(k, i) * ap[i], aq[k - i]) for i in range(k + 1)]
        if isinstance(ap[0], mp.mpf):
            with mp.workdps(3 * mp.mp.dps):
                prods = [x * y for x, y in terms]
            out.append(mp.fsum(prods))
        else:
            out.append(sum([x * y for x, y in terms]))
    return out


def product_tree_per_merge(roots, one) -> tuple:
    """prod (x - lam) by the balanced product tree as it merged before its
    real mpf factors stayed on ints: one public ``convolve`` per merge, and
    each merge's coefficients held as values (mpfs for mpf roots) until the
    next one."""
    from finfree.scalars import convolve

    polys = [(one, -lam * one) for lam in roots]
    while len(polys) > 1:
        merged = [convolve(a, b) for a, b in zip(polys[::2], polys[1::2])]
        polys = merged + polys[len(merged) * 2:]
    return polys[0]


# Per-entry formulas of the special families, one entry at a time, against
# which the column builders are pinned.

def laguerre_hat_falling(d: int, lam: Fraction, k: int) -> Fraction:
    """atilde_k of the normalized Laguerre polynomial, (d lam)_k / d^k, from
    the falling factorial written out."""
    out = Fraction(1)
    for j in range(k):
        out *= d * lam - j
    return out / Fraction(d) ** k


def _mpf(x):
    return mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mp.mpf(x)


def exp_family_per_k(d: int, t, sign: int, k: int, digits: int):
    """exp(sign t k (d-k) / 2d) as one exp at ``digits``."""
    with mp.workdps(digits):
        return mp.exp(sign * _mpf(t) * k * (d - k) / (2 * d))


def sy_limit_t_per_n(n: int, t, kappa2, digits: int):
    """The fixed-ratio limit at one n: n! [z^n] log of the block-weight egf of
    order n, times (-1)^(n-1) / (t^(n-1) (n-1)!)."""
    with mp.workdps(digits):
        tt, k2 = _mpf(t), _mpf(kappa2)
        weights = [mp.exp(-tt * math.comb(j, 2) * k2) for j in range(n + 1)]
        log = PowerSeries.egf(weights).log()
        return (-1) ** (n - 1) * n * log.coeffs[n] / tt ** (n - 1)
