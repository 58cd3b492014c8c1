"""Scalar kinds and the one sum kernel.

Three scalar kinds are used throughout the package:

* ``EXACT``   - ``fractions.Fraction`` (and plain ``int``), for identity work;
* ``MPF``     - ``mpmath`` multiprecision floats, default 50 decimal digits,
  for the limit experiments whose coefficients are transcendental;
* ``FLOAT64`` - machine floats, for root finding and quick numerics.

Kinds are never mixed silently: ``common_kind`` refuses heterogeneous
inputs, and promotion happens only through ``one_kind``, which reads a value
list's kind once and recasts its ints in it, and ``to_mpf``.  A caller opens
its precision scope as ``mp.workdps(digits)`` whatever the kind: exact and
binary64 arithmetic do not read it.  Every per-kind decision lives here: the
exponential (``exp``), the dot product under every mp sum (``dot``, for mp
terms one exact integer accumulator rounded once), the series recurrences
exp, log and the Lagrange step (``recurrence``, on ints for real mpf series),
the one coefficient product, truncated or binomial (``convolve``, one big-int
multiply for real mpf operands) and the root product tree on it
(``product_tree``, on ints between real mpf merges), conversion into mpmath
(``to_mpf``), printing (``format_scalar``), the common denominator putting
exact values on ints (``integer_scaled``) and the unit putting block weights
on ints and taking their sum back to its kind once (``integer_weights``).
It alone reads mpf values as mantissa and exponent, each where it is
summed: every mpf sum of products is the exact sum rounded once.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import mpmath as mp
from mpmath.libmp import from_man_exp

EXACT = "exact"
MPF = "mpf"
FLOAT64 = "float64"

DEFAULT_DIGITS = 50


def kind_of(x) -> str:
    if isinstance(x, (int, Fraction)):
        return EXACT
    if isinstance(x, (mp.mpf, mp.mpc)):
        return MPF
    if isinstance(x, (float, complex)):
        return FLOAT64
    raise TypeError(f"unsupported scalar type {type(x).__name__}")


def common_kind(values: Iterable, where: str) -> str:
    """Kind of a homogeneous collection; raises on silent kind mixing.

    Plain ints embed exactly in every kind, so a mix of ints and one other
    kind resolves to that other kind.
    """
    values = list(values)
    if not values:
        raise ValueError(f"{where}: empty value collection")
    kinds = {kind_of(v) for v in values}
    if len(kinds) > 1 and EXACT in kinds:
        if all(isinstance(v, int) for v in values if kind_of(v) == EXACT):
            kinds.discard(EXACT)
    if len(kinds) > 1:
        raise TypeError(
            f"{where}: mixed scalar kinds {sorted(kinds)}; convert inputs explicitly first"
        )
    return kinds.pop()


def one_kind(values: Iterable, where: str) -> list:
    """The values in their common kind (``common_kind``, which refuses a mix
    and names ``where``), each int recast in it: ints alone as ``Fraction``s,
    since an int divided by an int is a binary64 float.  Values of one
    scalar type other than int, read from their type set, come back as
    they are."""
    values = list(values)
    types = set(map(type, values))
    if len(types) == 1 and types <= {Fraction, float, complex, mp.mpf, mp.mpc}:
        return values
    to = {EXACT: Fraction, MPF: mp.mpf}.get(common_kind(values, where), float)
    return [to(v) if isinstance(v, int) else v for v in values]


def to_mpf(x, digits: int = DEFAULT_DIGITS):
    """x in mpmath at ``digits``: an mpf, or an mpc when x is complex."""
    if not isinstance(x, (Fraction, complex, mp.mpc)):
        return mp.mpf(x, dps=digits)  # no precision scope to enter on the common path
    with mp.workdps(digits):
        if isinstance(x, Fraction):
            return mp.mpf(x.numerator) / x.denominator
        return mp.mpc(x)


def integer_scaled(values: Sequence) -> tuple[list, int]:
    """Exact values as the ints v * D, with D the lcm of their denominators, and
    D; any other kind (read once, from the set of value types) comes back
    unchanged with D = 1, as does a ring element that is not a scalar."""
    values = list(values)
    if not set(map(type, values)) <= {int, Fraction}:
        return values, 1
    D = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (D // v.denominator) for v in values], D


def integer_weights(*factors: Sequence) -> tuple[list, Callable]:
    """Block weights on ints over one unit u, for sums over P(n), and ``back``.

    In each factor, the weight w of a block of size s becomes the int w / u^s:
    u = 1/D for exact weights, D the lcm of their denominators, and u = 2^E
    for real mpf and binary64 ones, read as the dyadics m * 2^e they are
    (``_pair``), E the least floor(e / s).  A product of weights whose block
    sizes add up to N is an int times u^N; ``back(total, N)`` takes a sum of
    such ints to the kind once: a ``Fraction``, or the exact sum rounded once,
    to an mpf at the ambient precision or to binary64.  Complex, inf and nan
    weights come back as they are, to be summed in their own kind, rounding
    at each operation, and ``back`` returns that sum.  Mixed kinds raise.
    """
    kind = common_kind([w for ws in factors for w in ws], "block weights")
    if kind == EXACT:
        D = math.lcm(*(w.denominator for ws in factors for w in ws))
        return ([[w.numerator * (D // w.denominator) * D ** (s - 1) for s, w in enumerate(ws, 1)]
                 for ws in factors], lambda total, N: Fraction(total, D ** N))
    pairs = [[_pair(w) if type(w) in (int, float, mp.mpf) else (w, None) for w in ws]
             for ws in factors]
    if any(e is None for ps in pairs for _, e in ps):
        return list(factors), lambda total, N: total
    E = min((e // s for ps in pairs for s, (m, e) in enumerate(ps, 1) if m), default=0)
    ints = [[m << (e - s * E) if m else 0 for s, (m, e) in enumerate(ps, 1)] for ps in pairs]
    return ints, lambda total, N: (_rounded if kind == MPF else _nearest_float)((total, E * N))


def _nearest_float(pair: tuple) -> float:
    """The pair (m, e) as m * 2^e rounded once to binary64 (int division does), or +-inf."""
    m, e = pair
    try:
        return (m << max(e, 0)) / (1 << max(-e, 0))
    except OverflowError:
        return math.inf if m > 0 else -math.inf


def exp(x):
    """exp in the kind of x; the only exact value with an exact exp is 0."""
    if kind_of(x) == EXACT:
        if x != 0:
            raise ValueError(f"exp({x}) is not exact; convert the argument first")
        return Fraction(1)
    if isinstance(x, (mp.mpf, mp.mpc)):
        return mp.exp(x)
    return cmath.exp(x) if isinstance(x, complex) else math.exp(x)


def dot(xs: Sequence, ys: Sequence, start=None):
    """start + sum_i xs[i] * ys[i] in the kind of the terms; a pair with a
    zero factor adds nothing.  Empty ``xs`` gives ``start``, or the int 0.

    The kind is read once per call, from the set of operand types: ints
    alone give an int; ints and ``Fraction``s are summed on ints over one
    running denominator and reduced once, to a ``Fraction``; any mpf or mpc
    gives the correctly rounded exact sum at the ambient precision, an mpf,
    or an mpc when a term is complex.  Each mp term, and each int or
    binary64 term beside one, is read exactly as m * 2^e where it is summed,
    the products are summed on ints and rounded once (``_round_reads``), and
    complex terms go by real and imaginary part.  A ``Fraction`` among mp
    terms raises ``TypeError``: it has no exact read, and rounding it first
    would round the sum twice.  An inf or a nan that meets no zero factor
    decides the sum by mpf arithmetic.  Anything else is added left to right
    from ``start``, or ``xs[0] * 0``, as ``acc += x * y``, skipping pairs
    with a zero factor.
    """
    if not xs:
        return 0 if start is None else start
    types = {*map(type, xs), *map(type, ys), int if start is None else type(start)}
    if types == {int}:
        return sum(map(operator.mul, xs, ys), 0 if start is None else start)
    if types <= {int, Fraction}:
        num, den = (0, 1) if start is None else (start.numerator, start.denominator)
        for x, y in zip(xs, ys):
            p = x.numerator * y.numerator
            if p:
                q = x.denominator * y.denominator
                g = math.gcd(den, q)
                num, den = num * (q // g) + p * (den // g), den * (q // g)
        return Fraction(num, den)
    if not types & {mp.mpf, mp.mpc}:
        acc = xs[0] * 0 if start is None else start
        for x, y in zip(xs, ys):
            if x and y:
                acc += x * y
        return acc
    if Fraction in types:
        raise TypeError("dot: mixed scalar kinds ['exact', 'mpf']; convert inputs explicitly first")
    if types & {mp.mpc, complex}:
        (a, b), (c, d) = _parts(xs), _parts(ys)
        sr, si = _parts([0 if start is None else start])
        # (a + bi)(c + di) = ac - bd + (ad + bc)i
        neg_b = [(-m, e) for m, e in b]
        return mp.mpc(_round_reads(a + neg_b, c + d, sr[0]), _round_reads(a + b, d + c, si[0]))
    return _round_reads([*map(_pair, xs)], [*map(_pair, ys)],
                        (0, 0) if start is None else _pair(start))


def _pair(x) -> tuple:
    """A real int, binary64 or mpf value as the ints (m, e) with
    x = m * 2^e, read exactly: an int is (x, 0), a float goes through
    mpmath's conversion, which keeps its 53 bits.  An inf or a nan is
    (x, None)."""
    if type(x) is int:
        return x, 0
    if type(x) is not mp.mpf:
        x = mp.mp.convert(x)
    sign, man, e, _ = x._mpf_
    if not man and e:
        return x, None
    return (-int(man) if sign else int(man)), e


def _parts(values: Sequence) -> tuple:
    """The reads of the real and of the imaginary parts of the values."""
    re, im = [], []
    for v in values:
        if type(v) in (mp.mpc, complex):
            v = mp.mpc(v)
            re.append(_pair(v.real))
            im.append(_pair(v.imag))
        else:
            re.append(_pair(v))
            im.append((0, 0))
    return re, im


def _round_reads(xs: Sequence, ys: Sequence, s: tuple):
    """s + sum xs[i] * ys[i] over reads, rounded once: an mpf.

    A pair with a zero factor adds nothing; an inf or a nan among the other
    factors decides the sum, which no finite term (here its mantissa) can
    change.  The finite products are summed exactly: on one int over their
    least exponent while their exponents span at most ``_SUM_SPAN`` times
    the precision, and past that, before any shift, by ``_far_sum``.
    """
    live = [(x, y) for x, y in zip(xs, ys) if x[0] and y[0]]
    if s[1] is None or any(x[1] is None or y[1] is None for x, y in live):
        return sum((x[0] * y[0] for x, y in live), s[0])
    terms = [(mx * my, ex + ey) for (mx, ex), (my, ey) in live] + ([s] if s[0] else [])
    lo = min((e for _, e in terms), default=0)
    if max((e for _, e in terms), default=lo) - lo > _SUM_SPAN * mp.mp.prec:
        return _rounded(_far_sum(terms))
    return _rounded((sum(m << (e - lo) for m, e in terms), lo))


def _rounded(pair: tuple) -> mp.mpf:
    """m * 2^e for the pair (m, e), rounded once at the ambient precision."""
    return mp.mp.make_mpf(from_man_exp(*pair, *mp.mp._prec_rounding))


def _round(m: int, e: int, prec: int) -> tuple:
    """The pair (m, e) rounded to prec bits, to nearest with ties to even,
    as mpmath's ``normalize`` rounds; the mantissa may come out as 2^prec."""
    shift = m.bit_length() - prec
    if shift <= 0:
        return m, e
    n = abs(m)
    t = n >> (shift - 1)  # the kept bits and the half bit
    if t & 1 and (t & 2 or n & ((1 << (shift - 1)) - 1)):
        t += 2
    return (-(t >> 1) if m < 0 else t >> 1), e + shift


def _div(m: int, e: int, j: int, prec: int) -> tuple:
    """The pair (m, e) divided by the int j > 0, rounded once to prec bits:
    the quotient to at least prec + 2 bits, and any remainder as a sticky bit
    below it, which no rounding boundary separates from the exact quotient."""
    s = max(prec + j.bit_length() + 2 - m.bit_length(), 0)
    q, r = divmod(abs(m) << s, j)
    q = q << 1 | (r > 0)
    return _round(-q if m < 0 else q, e - s - 1, prec)


# the widest sum kept on one int: the exponents of its terms span at most
# this many times the ambient precision in bits.  Below it one wide int costs
# less than ``_far_sum``'s sort (measured on products of roots 10^+-30 and
# 10^+-300 apart); past it ``_far_sum`` keeps every int small
_SUM_SPAN = 256


def _far_sum(terms: list) -> tuple:
    """A pair (M, E) of ints whose value M * 2^E rounds, at the ambient
    precision, as the sum of the terms m * 2^e does, given as pairs (m, e)
    with m != 0, when they lie far apart: no int is wider than a cluster of
    overlapping terms (Demmel-Hida 2003; Rump-Ogita-Oishi 2008).

    With the terms sorted by their top bit t = e + bitlen(m), the head is
    the run from the top down to the first term whose top lies g bits below
    every exponent in the run and g + prec + 3 bits below the run's top,
    with g = bitlen(len(terms)).  The rest then sums to less than 2^(t + g)
    in magnitude.  The head's exact sum H lies on the grid 2^E, the largest
    power of two no more than the head's least exponent and prec + 3 bits
    below H's top bit.  If E >= t + g, every rounding boundary near H + rest
    is a multiple of 2^E, none lies strictly within 2^E of H, and H + rest
    rounds as H plus the sign of the rest's sum times 2^(E - 2): the rest
    folds in as a sticky bit, its sign found the same way.  If not, the head
    cancelled, and its sum joins the rest as one term (the count falls by at
    least one).  With no such gap, every term overlaps its neighbours within
    g + prec + 3 bits and the sum is taken whole.
    """
    prec = mp.mp.prec
    while True:
        g = len(terms).bit_length()
        tops = sorted(((e + m.bit_length(), m, e) for m, e in terms), reverse=True)
        top, _, lo = tops[0]
        for j in range(1, len(tops)):
            t, _, e = tops[j]
            if t + g <= lo and t + g + prec + 3 <= top:
                break
            lo = min(lo, e)
        else:
            return sum(m << (e - lo) for _, m, e in tops), lo
        head = sum(m << (e - lo) for _, m, e in tops[:j])
        grid = min(lo, lo + head.bit_length() - prec - 3)
        rest = [(m, e) for _, m, e in tops[j:]]
        if head and grid >= t + g:
            sign = _far_sum(rest)[0]
            return (head << (lo - grid)) * 4 + (sign > 0) - (sign < 0), grid - 2
        terms = [(head, lo)] + rest if head else rest


def recurrence(c: Sequence, op: str) -> list:
    """The coefficients of exp(c) (op "exp") or log(c) (op "log", c_0 = 1)
    for the series c_0 + c_1 z + ... + c_N z^N, or the Lagrange step
    [z^(n-1)] exp(n c(z)) for n = 1..N+1 (op "lagrange"), by the classical
    recurrences g' = u'g and g' = f'/f (Brent-Kung 1978):

        exp:  g_0 = exp(u_0),  g_j = (1/j) sum_{i=1..j} (i u_i) g_{j-i},
        log:  g_0 = f_0 * 0,   g_j = (1/j) (j f_j + sum_{i=1..j-1} (-i g_i) f_{j-i}),

    with u = c, or u_i = n c_i cut at z^(n-1).  Each int product, each sum
    and each division by j is one operation of the kind, with its rounding.
    A series is one kind: ``one_kind`` recasts the ints among its values
    (ints alone as ``Fraction``s) and refuses a mix of kinds, naming
    "series".  A finite real mpf series runs on ints (``_fixed``), with
    every rounding made as mpf arithmetic makes it; only the values returned
    become mpfs.  Past a span of ``_SUM_SPAN`` times the precision, and in
    any other kind, each sum is one ``dot``, binary64 left to right.
    """
    c = one_kind(c, "series")
    prec = mp.mp.prec
    reads = [*map(_pair, c)] if set(map(type, c)) == {mp.mpf} else None
    if reads and any(e is None for _, e in reads):
        reads = None
    if op != "lagrange":
        return _series(c, reads, None, op == "log", prec, len(c))
    return [_series(c[:n], reads and [_round(n * m, e, prec) for m, e in reads[:n]],
                    n, False, prec, 1)[0] for n in range(1, len(c) + 1)]


def _series(c: Sequence, reads, n, log: bool, prec: int, keep: int) -> list:
    """The last ``keep`` values of ``recurrence`` on c, or on n c when n is
    set, given the pairs (m, e) of those values as ``reads``, or None."""
    head = c[0] * 0 if log else exp(c[0] if n is None else n * c[0])
    g = _fixed(reads, head, log, prec) if reads else None
    if g is None:
        u = c if n is None else [n * x for x in c]
        f, g, G = (u if log else [i * x for i, x in enumerate(u)]), [head], []
        for j in range(1, len(u)):
            if log:  # G holds -i g_i for i < j
                g.append(dot(G, f[j - 1:0:-1], start=j * u[j]) / j)
                G.append(-j * g[j])
            else:
                g.append(dot(f[1:j + 1], g[::-1]) / j)
    return [_rounded(x) if type(x) is tuple else x for x in g[-keep:]]


def _fixed(reads: list, head, log: bool, prec: int) -> list | None:
    """``_series`` on pairs, as [head, (m_1, e_1), ...], or None past the span.

    rf holds i u_i (exp) or f_i (log), i = N..1, on ints over 2^ef; G holds
    g_i (exp) or -i g_i (log, G_0 = 0) for i < j on ints over 2^lo, lo <= 0,
    shifted when a new value lowers lo.  Step j sums rf[N-j:] times G.
    """
    bound, N = _SUM_SPAN * prec, len(reads) - 1
    F = reads[1:] if log else [_round(i * m, e, prec) for i, (m, e) in enumerate(reads[1:], 1)]
    ef = min((e for m, e in F if m), default=0)
    if max((e + m.bit_length() for m, e in F if m), default=ef) - ef > bound:
        return None
    rf = [m << (e - ef) if m else 0 for m, e in reversed(F)]
    G, lo, hi, out = [], 0, 0, [head]
    m, e = (0, 0) if log else _pair(head)
    for j in range(1, N + 1):
        if m:
            if e < lo:
                G, lo = [*map((lo - e).__rlshift__, G)], e
            hi = max(hi, e + m.bit_length())
            if hi - lo > bound:
                return None
            m <<= e - lo
        G.append(m)
        acc, E = sum(map(operator.mul, rf[N - j:], G)), ef + lo
        if log and reads[j][0]:  # j f_j lies on the grid 2^E: ef <= its exponent, lo <= 0
            ms, es = _round(j * reads[j][0], reads[j][1], prec)
            if es - E > bound:
                return None
            acc += ms << (es - E)
        m, e = _div(*_round(acc, E, prec), j, prec)
        out.append((m, e))
        if log:
            m, e = _round(-j * m, e, prec)
    return out


def convolve(a: Sequence, b: Sequence, top: int | None = None, binomial: bool = False) -> tuple:
    """c_k = sum_{i+j=k} a_i b_j for k <= top (default: the full product);
    ``binomial`` weights each term by C(k, i), formed in kind as C(k, i) * a_i:
    the product of exponential generating functions.  An empty operand gives
    the empty product, ().

    The route is read from the operands, with no option.  A product of real
    mpf operands (ints allowed among them) is packed: each operand goes on
    ints over one power of two (``_dyadic``), the two are multiplied as one
    int each (``_kronecker``), and each c_k is read back exactly and rounded
    once at the ambient precision, the value ``dot`` gives too.  It keeps
    ``dot`` when it is binomial, when an operand holds inf or nan, or when
    the spans of the two operands add up to more than ``_pack_span`` of the
    shorter one's length: past that one ``dot`` per c_k is faster, and a
    limit point at t = 1e308 would ask for ints of gigabits.  Every other
    product is one ``dot`` per c_k with i ascending.  With any mpf or mpc
    operand every c_k is an mpf, or an mpc, also where its terms are all
    ints, and a ``Fraction`` operand raises ``TypeError`` (``dot``).  Ints
    alone give ints; with any ``Fraction``, each operand goes on ints
    (``integer_scaled``) and each c_k is divided once, to a ``Fraction``;
    either way each c_k is one sum of int products.  In every kind the
    weights C(k, i) are the ints of a running Pascal row (row k + 1 is row k
    added to itself shifted by one).  Exact products are not packed: by
    exponential generating functions they win only on Laguerre-like inputs.
    """
    na, nb = len(a), len(b)
    if not (na and nb):
        return ()
    n_out = na + nb - 1 if top is None else min(top + 1, na + nb - 1)
    types = {*map(type, a), *map(type, b)}
    zero = None
    if types & {mp.mpf, mp.mpc}:
        zero = mp.mpc(0) if mp.mpc in types else mp.mpf(0)  # each c_k's start
        if not binomial and types <= {mp.mpf, int}:
            da, db = _dyadic(a[:n_out]), _dyadic(b[:n_out])
            if _packs(da, db):
                return tuple(map(_rounded, _kronecker(da, db, n_out)))
    exact = types <= {int, Fraction}
    if exact and Fraction in types:
        (a, Da), (b, Db) = integer_scaled(a), integer_scaled(b)
    rb, row, out = b[::-1], [1], []
    for k in range(n_out):
        lo = max(0, k - nb + 1)
        xs, ys = a[lo:k + 1], rb[nb - 1 - k + lo:na + nb - 1 - k]  # rb[nb-1-j] is b_j
        if binomial:
            xs = [*map(operator.mul, row[lo:], xs)]
            row = [1, *map(operator.add, row, row[1:]), 1]
        out.append(sum(map(operator.mul, xs, ys)) if exact else dot(xs, ys, zero))
    return tuple(Fraction(c, Da * Db) for c in out) if Fraction in types else tuple(out)


def product_tree(roots: Sequence, one) -> tuple:
    """Coefficients of prod (x - lam) in the kind of ``one``, by a balanced
    product tree (von zur Gathen-Gerhard, Modern Computer Algebra, 10.1):
    neighbouring factors merge pairwise, and an odd one out waits for the
    next round.  Each merge gives what ``convolve`` gives, but a packed
    merge keeps its coefficients as the list of their rounded pairs
    (``_kronecker``), which the next merge packs as they are; only the final
    coefficients become mpfs.  A merge past ``_pack_span``, or with a
    complex factor, is ``convolve`` on values, the ``dot`` route."""
    polys = [(one, -lam * one) for lam in roots]
    while len(polys) > 1:
        merged = [_merge(a, b) for a, b in zip(polys[::2], polys[1::2])]
        polys = merged + polys[len(merged) * 2:]
    return _values(polys[0])


def _merge(a, b):
    """The product of two factors of ``product_tree``, each a tuple of values
    or a list of pairs, packed when both are real mpf and their spans allow."""
    da, db = (_spanned(x) if type(x) is list else _dyadic(x) if {*map(type, x)} == {mp.mpf}
              else None for x in (a, b))
    if _packs(da, db):
        return _kronecker(da, db, len(a) + len(b) - 1)
    return convolve(_values(a), _values(b))


def _values(poly) -> tuple:
    return tuple(map(_rounded, poly)) if type(poly) is list else poly  # exact: pairs are rounded


def _packs(da, db) -> bool:
    """Whether two ``_dyadic`` operands, each None past inf or nan, go packed."""
    return bool(da and db) and da[2] + db[2] <= _pack_span(min(len(da[0]), len(db[0])))


def _pack_span(n: int) -> int:
    """The widest packed product, in bits of its two operands' spans added
    up, when the shorter operand holds n values.  Below it packing beat one
    ``dot`` per c_k at 103 to 700 bits of precision for n from 2 to 201; at
    1000 bits it lost at 1280 + 128 bitlen(n) for n from 5 to 33 (ROADMAP.md)."""
    return max(mp.mp.prec, 1024) + 128 * n.bit_length()


def _dyadic(values: Sequence) -> tuple | None:
    """Real mpf or int values v_i = m_i 2^(e_i) as ``_spanned`` pairs
    (m_i, e_i): the dyadic counterpart of ``integer_scaled``, shifted onto
    2^e0 only once the span is accepted.  None when a value is inf or nan."""
    pairs = [*map(_pair, values)]
    return None if any(e is None for _, e in pairs) else _spanned(pairs)


def _spanned(pairs: list) -> tuple:
    """The pairs, then e0, the least exponent of a nonzero value, and the
    span, the bit length of the largest |m_i| 2^(e_i - e0)."""
    live = [(e, e + m.bit_length()) for m, e in pairs if m]
    if not live:
        return pairs, 0, 0
    e0 = min(e for e, _ in live)
    return pairs, e0, max(t for _, t in live) - e0


def _kronecker(da: tuple, db: tuple, n_out: int) -> list:
    """The first ``n_out`` coefficients of the product of two ``_dyadic``
    operands by one big-int multiply (Kronecker substitution), each the exact
    sum rounded once at the ambient precision (``_round``), as the pair
    (m, e) of the mpf it rounds to: m odd, or (0, 0).

    Each operand goes on the ints m_i 2^(e_i - e0), all below 2^span.  Every
    c_k is a sum of at most min(len) products of such ints, so a slot of
    span_a + span_b + bitlen(min(len)) + 2 bits, rounded up to whole bytes,
    holds it with its sign.  Operands and product go in and out through
    bytes, each slot biased by half its range so that every slot is
    nonnegative.
    """
    (pa, ea, sa), (pb, eb, sb) = da, db
    width = (sa + sb + min(len(pa), len(pb)).bit_length() + 2 + 7) // 8
    half = 1 << (8 * width - 1)
    unit = half.to_bytes(width, "little")

    def pack(pairs, e0):
        raw = b"".join(((m << (e - e0) if m else 0) + half).to_bytes(width, "little")
                       for m, e in pairs)
        return int.from_bytes(raw, "little") - int.from_bytes(unit * len(pairs), "little")

    nbytes = width * n_out
    c = pack(pa, ea) * pack(pb, eb) + int.from_bytes(unit * n_out, "little")
    raw = (c & ((1 << (8 * nbytes)) - 1)).to_bytes(nbytes, "little")
    e, prec, out = ea + eb, mp.mp.prec, []
    for i in range(0, nbytes, width):
        m, x = _round(int.from_bytes(raw[i:i + width], "little") - half, e, prec)
        z = (m & -m).bit_length() - 1  # trailing zeros; -1 for m = 0
        out.append((m >> z, x + z) if m else (0, 0))
    return out


def format_scalar(x, digits: int = DEFAULT_DIGITS) -> str:
    """Decimal string with no more significant digits than the kind carries.

    Exact values print as ``p/q`` (``p`` when q = 1), mpf and mpc values at
    ``digits`` significant digits, rounded once from all they carry, binary64
    values as the shortest string that reads back to the same value (at most
    17 significant digits).  A non-finite value, a binary64 overflow, raises
    ``OverflowError``.  An mpf or mpc prints as ``mp.nstr(x, digits,
    strip_zeros=True)`` does: a finite nonzero real mpf within 2^+-3500 on
    ints (``_mpf_text``), anything else by ``mp.nstr`` itself.
    """
    if type(x) is mp.mpf and digits >= 1:
        sign, man, e, bc = x._mpf_
        if man and abs(e + bc) <= 3500:
            try:
                return _mpf_text(sign, man, e, bc, digits)
            except ValueError:  # a digit string past Python's int-to-str limit
                pass
    kind = kind_of(x)
    if kind == EXACT:
        return str(x)
    if not mp.isfinite(x):
        raise OverflowError(f"non-finite value {x} past the binary64 range; "
                            'give the input as exact strings, such as "1e400"')
    if kind == FLOAT64:
        return repr(x)
    return mp.nstr(x, digits, strip_zeros=True)


# log2(10) as mpmath 1.3.0's to_digits_exp takes it, and 10^k, each k computed
# once (k < digits + 1060 for the values ``_mpf_text`` takes)
_LOG2_10 = math.log(10, 2)
_pow10 = functools.cache((10).__pow__)


def _mpf_text(sign: int, man: int, e: int, bc: int, dps: int) -> str:
    """``mp.nstr`` of the mpf (-1)^sign man 2^e, man of bc bits, at dps >= 1
    digits with zeros stripped: mpmath 1.3.0's to_digits_exp and to_str
    replayed on ints.

    |x| is floored to a fixed point of int((dps + 3) log2 10) + 10 bits and
    that to as many decimal digits as it holds.  Digit dps + 1 rounds the
    first dps half up, carrying through 9s.  The decimal exponent picks fixed
    notation strictly between min(-(dps // 3), -5) and dps, and scientific
    notation outside; trailing zeros go.
    """
    fixprec = max(int((dps + 3) * _LOG2_10) + 10 - e - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = e + fixprec
    text = str((man << shift if shift >= 0 else man >> -shift) * _pow10(fixdps) >> fixprec)
    exponent = len(text) - fixdps - 1
    head = text[:dps]
    if len(text) > dps and text[dps] >= "5":
        kept = head.rstrip("9")
        if kept:
            head = kept[:-1] + chr(ord(kept[-1]) + 1) + "0" * (dps - len(kept))
        else:  # carried into a new power of ten
            head, exponent = "1" + "0" * (dps - 1), exponent + 1
    fixed = min(-(dps // 3), -5) < exponent < dps
    if fixed and exponent < 0:
        head = "0" * -exponent + head
    split = exponent + 1 if fixed and exponent > 0 else 1
    text = f"{'-' if sign else ''}{head[:split]}.{head[split:].rstrip('0') or '0'}"
    return text if fixed else f"{text}e{exponent:+d}"


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def differences(values: Sequence) -> list:
    """Forward differences at 0, Delta^j v(0) = sum_l C(j, l) (-1)^(j-l) v_l
    for j < len(values); past the degree of a polynomial v they vanish."""
    row, out = list(values), []
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def multinomial(n: int, parts: Sequence[int]) -> int:
    if any(p < 0 for p in parts) or sum(parts) != n:
        raise ValueError(f"multinomial parts {tuple(parts)} do not sum to {n}")
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out

