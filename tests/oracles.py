"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the package's own code paths: different
enumeration algorithm, graph-based join, textbook recurrences.
"""

from fractions import Fraction

from finfree.partitions import SetPartition


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


def join_bfs(pi: SetPartition, sigma: SetPartition) -> SetPartition:
    """Join via breadth-first search on the union of block graphs."""
    n = pi.n
    adj: dict[int, set[int]] = {x: set() for x in range(1, n + 1)}
    for part in (pi, sigma):
        for b in part.blocks:
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
    return SetPartition(n, blocks)


def finite_difference_coeffs(values):
    """Forward-difference table top row: Delta^j f(0) for j = 0..len-1.

    values[j] = f(j).  Exact over Fractions.
    """
    row = [Fraction(v) for v in values]
    out = [row[0]]
    while len(row) > 1:
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
        out.append(row[0])
    return out


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
