import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finfree import partitions
from finfree.errors import CapExceededError
from finfree.identities import ZeroConstPoly, composition_identity, s_bruteforce
from finfree.partitions import (
    block_profiles,
    block_sum,
    count_R,
    count_S,
    count_T,
    count_T_closed,
    count_join_full,
    count_join_full_closed,
    join_sum,
    _joins_to_top,
    mask_elements,
    mobius_top,
    noncrossing_masks,
    partition_masks,
)
from finfree.series import PowerSeries

from .oracles import (bell_oracle, block_sum_literal, catalan_oracle, connected_by_product,
                      covering_by_product, is_refinement, join_bfs, join_sum_by_product,
                      masks_of, mobius, mobius_recursive, noncrossing_by_quadruples,
                      noncrossing_by_stack, partitions_by_insertion)


def top(n):
    """1_n: one block."""
    return ((1 << n) - 1,)


def bottom(n):
    """0_n: all singletons."""
    return tuple(1 << x for x in range(n))


def elements(p):
    """The blocks of a partition as increasing element tuples."""
    return tuple(map(mask_elements, p))


def rgs_partitions(draw_n=st.integers(min_value=1, max_value=7)):
    """Hypothesis strategy: a random partition via a random growth string."""

    @st.composite
    def strat(draw):
        n = draw(draw_n)
        rgs = [0]
        for i in range(1, n):
            rgs.append(draw(st.integers(min_value=0, max_value=max(rgs) + 1)))
        return _partition_of_rgs(rgs)

    return strat()


@st.composite
def join_families(draw):
    """(n, 0-3 partitions of [n], an interval partition of [n] or None), n <= 7."""
    n = draw(st.integers(min_value=1, max_value=7))
    parts = draw(st.lists(rgs_partitions(st.just(n)), max_size=3))
    cuts = draw(st.none() | st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    if cuts is None:
        return n, parts, None
    ends = [x for x, cut in enumerate(cuts, start=1) if cut] + [n]
    return n, parts, masks_of(range(a + 1, b + 1) for a, b in zip([0] + ends, ends))


def _joins(*parts):
    """The mask fold on a family of partitions of one [n]."""
    return _joins_to_top(parts[0], [m for p in parts[1:] for m in p])


def _partition_of_rgs(rgs):
    """The partition of [len(rgs)] whose block labels (0-based) are rgs."""
    groups = {}
    for i, label in enumerate(rgs, start=1):
        groups.setdefault(label, []).append(i)
    return masks_of(groups.values())


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

class TestEnumeration:
    def test_n1_single_partition(self):
        assert list(partition_masks(1)) == [(1,)]

    def test_bell_counts_small(self):
        assert sum(1 for _ in partition_masks(3)) == 5

    def test_bell_count_n10(self):
        # frozen from the Bell-number recurrence oracle
        assert bell_oracle(10) == 115975
        assert sum(1 for _ in partition_masks(10)) == 115975

    def test_rgs_lexicographic_order(self):
        got = [elements(p) for p in partition_masks(3)]
        assert got == [
            ((1, 2, 3),),
            ((1, 2), (3,)),
            ((1, 3), (2,)),
            ((1,), (2, 3)),
            ((1,), (2,), (3,)),
        ]
        # first element is 1_n, last is 0_n
        stream = list(partition_masks(5))
        assert stream[0] == top(5)
        assert stream[-1] == bottom(5)

    def test_matches_insertion_oracle(self):
        for n in range(1, 9):
            ours = {elements(p) for p in partition_masks(n)}
            oracle = {
                tuple(sorted((tuple(sorted(b)) for b in pp), key=lambda b: b[0]))
                for pp in partitions_by_insertion(n)
            }
            assert ours == oracle

    def test_mask_walk_matches_insertion_oracle_in_order(self):
        for n in range(1, 9):
            walk = list(partition_masks(n))
            assert walk == [tuple(sum(1 << (x - 1) for x in b) for b in pp)
                            for pp in partitions_by_insertion(n)]
            for masks in walk:
                assert all(a & b == 0 for a, b in combinations(masks, 2))
                assert sum(masks) == (1 << n) - 1  # disjoint, so they cover [n]
                lows = [m & -m for m in masks]
                assert lows == sorted(lows)  # ordered by their minimum

    def test_walk_by_block_count_is_the_filtered_walk_in_order(self):
        for n in range(1, 10):
            full = list(partition_masks(n))
            for lo in range(1, n + 1):
                for hi in range(lo, n + 1):
                    assert list(partitions._walk(n, lo, hi)) == [
                        p for p in full if lo <= len(p) <= hi]
            for k in range(n + 2):
                assert list(partition_masks(n, blocks=k)) == [p for p in full if len(p) == k]

    def test_sums_by_block_count_visit_only_what_they_keep(self, monkeypatch):
        # every level of the walk is recorded: a partition of [m] with r
        # blocks is visited only when n - m more elements can end it at k
        stirling = Counter(len(p) for p in partition_masks(8))  # S(8, k) at k
        walk, seen = partitions._walk, []

        def spy(n, lo, hi):
            for p in walk(n, lo, hi):
                seen.append((n, len(p)))
                yield p

        def visited(n, k):
            assert all(k - (n - m) <= r <= k for m, r in seen), (n, k)
            top = [r for m, r in seen if m == n]
            seen.clear()
            return top

        monkeypatch.setattr(partitions, "_walk", spy)
        for k in range(1, 9):
            left, right = composition_identity(9, k)
            assert left == right and visited(8, k) == [k] * stirling[k]
        for sizes in ((3, 3, 2), (1, 7), (2, 2, 2, 2), (8,)):
            assert count_join_full(sizes) == count_join_full_closed(sizes)
            k = 8 - (len(sizes) - 1)
            assert visited(8, k) == [k] * stirling[k]
        assert stirling[6] == 266  # of Bell(8) = 4140
        with pytest.raises(CapExceededError, match="size 9 exceeds the cap 8"):
            count_join_full((4, 5))
        assert seen == []

    def test_rgs_strings_strictly_increasing(self):
        for n in range(1, 9):
            strings = []
            for p in partition_masks(n):
                owner = {x: i for i, b in enumerate(elements(p)) for x in b}
                strings.append(tuple(owner[x] for x in range(1, n + 1)))
            assert len(strings) == bell_oracle(n)
            assert all(a < b for a, b in zip(strings, strings[1:]))

    def test_cap_refused_with_message(self):
        # at the call, before any next(): a caller need not advance the stream
        for walk in (partition_masks, noncrossing_masks):
            with pytest.raises(CapExceededError, match="size 13 exceeds the cap 12"):
                walk(13)
            with pytest.raises(CapExceededError, match="cap 4"):
                walk(5, cap=4)
        assert sum(1 for _ in partition_masks(5, cap=5)) == 52

    def test_block_profiles_count_the_walk(self):
        for n in range(1, 10):
            profiles = block_profiles(n)
            assert profiles == Counter(tuple(sorted(m.bit_count() for m in p))
                                       for p in partition_masks(n)), n
            assert sum(profiles.values()) == bell_oracle(n)
        for n in (0, -1):
            with pytest.raises(ValueError):
                block_profiles(n)
        with pytest.raises(CapExceededError, match="size 13 exceeds the cap 12") as got:
            block_profiles(13)
        with pytest.raises(CapExceededError) as want:
            partition_masks(13)
        assert str(got.value) == str(want.value)

    def test_streams_are_independent(self):
        for walk in (partition_masks, noncrossing_masks):
            a = walk(4)
            b = walk(4)
            next(a)
            next(a)
            assert next(b) == top(4)

    def test_first_partition_at_n64_needs_no_table(self):
        # nothing of size 2^n is built: the first partition is one walk step
        for walk in (partition_masks, noncrossing_masks):
            tracemalloc.start()
            try:
                first = next(walk(64, cap=64))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert first == ((1 << 64) - 1,)
            assert peak < 1 << 20


# ---------------------------------------------------------------------------
# order, join, Mobius
# ---------------------------------------------------------------------------

class TestLattice:
    def test_join_examples(self):
        a = masks_of([(1, 2), (3,)])
        b = masks_of([(1,), (2, 3)])
        assert _joins(a, b) and not _joins(a, a)
        c = masks_of([(1, 3), (2,), (4,)])
        d = masks_of([(1,), (2, 4), (3,)])
        assert join_bfs(c, d) == masks_of([(1, 3), (2, 4)])
        assert not _joins(c, d)

    def test_join_bounds(self):
        for p in partition_masks(5):
            assert _joins(p, bottom(5)) == (p == top(5))
            assert _joins(p, top(5))
        assert _joins(bottom(1))  # 0_1 = 1_1

    @settings(max_examples=200, deadline=None)
    @given(join_families())
    def test_join_matches_bfs_oracle(self, family):
        """The mask fold says the join is 1_n exactly when the BFS join is."""
        n, parts, base = family
        start = base or bottom(n)
        assert _joins(start, *parts) == (join_bfs(start, *parts) == top(n))

    @settings(max_examples=40, deadline=None)
    @given(rgs_partitions())
    def test_join_characterizes_refinement(self, a):
        for b in partition_masks(sum(a).bit_length()):
            assert is_refinement(a, b) == (join_bfs(a, b) == b)

    def test_is_refinement_examples(self):
        for sigma in partition_masks(4):
            assert is_refinement(bottom(4), sigma)
        assert not is_refinement(masks_of([(1, 2), (3,)]), masks_of([(1, 3), (2,)]))
        assert is_refinement(masks_of([(1,), (2,), (3, 4)]), masks_of([(1, 2), (3, 4)]))

    def test_mobius_values(self):
        assert mobius(bottom(4), top(4)) == -6
        for n in (1, 3, 5):
            assert mobius(top(n), top(n)) == 1
        sigma = masks_of([(1, 2, 3), (4,)])
        assert mobius(bottom(4), sigma) == 2

    def test_mobius_specializations_agree(self):
        for n in range(1, 6):
            for p in partition_masks(n):
                assert mobius(p, top(n)) == mobius_top(len(p))
                assert mobius(bottom(n), p) == math.prod(
                    (-1) ** (m.bit_count() - 1) * math.factorial(m.bit_count() - 1) for m in p
                )
                assert mobius_top(len(p)) == (-1) ** (len(p) - 1) * math.factorial(len(p) - 1)

    def test_mobius_requires_comparable(self):
        a = masks_of([(1, 2), (3,)])
        b = masks_of([(1, 3), (2,)])
        with pytest.raises(ValueError):
            mobius(a, b)

    def test_mobius_against_recursive_oracle(self):
        for n in range(1, 6):
            parts = list(partition_masks(n))
            for a in parts:
                for b in parts:
                    if is_refinement(a, b):
                        assert mobius(a, b) == mobius_recursive(a, b)

    def test_mobius_sum_lemma(self):
        # sum over sigma >= pi of mu(sigma, 1_n) vanishes except at the top
        for n in range(1, 7):
            parts = list(partition_masks(n))
            for p in parts:
                s = sum(mobius_top(len(sig)) for sig in parts if is_refinement(p, sig))
                assert s == (1 if p == top(n) else 0)
        # [pi, 1_n] is isomorphic to P(|pi|), so larger n reduce to sums over P(r)
        for r in range(1, 9):
            s = sum(mobius_top(len(rho)) for rho in partition_masks(r))
            assert s == (1 if r == 1 else 0)

    def test_mobius_inversion_roundtrip(self):
        rng = random.Random(20240817)
        for n in range(1, 8):
            parts = list(partition_masks(n))
            g = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in parts]
            checked = range(len(parts)) if n < 7 else rng.sample(range(len(parts)), 40)
            # r <= s iff every pair sharing a block of r shares one of s
            pairs = [sum(1 << (i * n + j) for b in elements(p) for i, j in combinations(b, 2))
                     for p in parts]
            # refinement lists (by index) of the checked partitions and of
            # everything below them; those of s <= p are found among those of p
            below = {}
            for p in checked:
                below[p] = [s for s in range(len(parts)) if pairs[s] | pairs[p] == pairs[p]]
                for s in below[p]:
                    if s not in below:
                        below[s] = [r for r in below[p] if pairs[r] | pairs[s] == pairs[s]]
            f = {p: sum(g[s] for s in below[p]) for p in below}
            for p in checked:
                recovered = sum(f[s] * mobius(parts[s], parts[p]) for s in below[p])
                assert recovered == g[p]


# ---------------------------------------------------------------------------
# non-crossing
# ---------------------------------------------------------------------------

class TestNonCrossing:
    def test_n3_all_noncrossing(self):
        assert sum(1 for _ in noncrossing_masks(3)) == 5

    def test_n4_catalan(self):
        assert catalan_oracle(4) == 14
        assert sum(1 for _ in noncrossing_masks(4)) == 14

    def test_canonical_crossing_excluded(self):
        crossing = masks_of([(1, 3), (2, 4)])
        assert not noncrossing_by_stack(crossing)
        assert crossing not in set(noncrossing_masks(4))

    def test_counts_match_catalan(self):
        for n in range(1, 9):
            assert sum(1 for _ in noncrossing_masks(n)) == catalan_oracle(n)

    def test_noncrossing_matches_quadruple_definition(self):
        # the walk and the insertion oracle list P(n) in the same order
        for n in range(1, 9):
            for masks, blocks in zip(partition_masks(n), partitions_by_insertion(n),
                                     strict=True):
                assert noncrossing_by_stack(masks) == noncrossing_by_quadruples(blocks)

    def test_equals_the_quadruple_filter_of_all_partitions(self):
        for n in range(1, 9):
            assert list(noncrossing_masks(n)) == [
                p for p in partition_masks(n) if noncrossing_by_quadruples(elements(p))]

    def test_masks_equal_the_stack_filter_of_the_walk_in_order(self):
        for n in range(1, 11):
            assert list(noncrossing_masks(n)) == list(
                filter(noncrossing_by_stack, partition_masks(n)))

    def test_never_walks_all_partitions(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"walked P({n})")

        monkeypatch.setattr(partitions, "_walk", refuse)
        assert sum(1 for _ in noncrossing_masks(10)) == catalan_oracle(10) == 16796

    def test_builds_only_the_noncrossing_partitions(self, monkeypatch):
        # every level of the walk is recorded: level m yields the Catalan(m)
        # partitions of NC(m), and no crossing one
        walk, seen = partitions._noncrossing_walk, Counter()

        def spy(m):
            for p in walk(m):
                assert noncrossing_by_stack(p)
                seen[m] += 1
                yield p

        monkeypatch.setattr(partitions, "_noncrossing_walk", spy)
        for n in range(1, 10):
            seen.clear()
            assert sum(1 for _ in noncrossing_masks(n)) == catalan_oracle(n)
            assert seen == {m: catalan_oracle(m) for m in range(1, n + 1)}


# ---------------------------------------------------------------------------
# block-multiplicative sums
# ---------------------------------------------------------------------------

def _egf(weights, n):
    """1 + sum_s weights[s-1] z^s / s!, truncated at z^n."""
    return PowerSeries.egf([weights[0] ** 0] + list(weights[:n]))


class TestBlockSum:
    def test_counts(self):
        for n in range(1, 9):
            assert block_sum([1] * n, n) == bell_oracle(n)
            assert block_sum([1] * n, n, signed=True) == (1 if n == 1 else 0)
            # weight 1 on singletons only: the one partition 0_n
            assert block_sum([1] + [0] * (n - 1), n, signed=True) == mobius_top(n)

    def test_exact_matches_series(self):
        rng = random.Random(61)
        for n in range(1, 9):
            ws = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
            W = _egf(ws, n)
            unsigned = PowerSeries((W.coeffs[0] - 1,) + W.coeffs[1:]).exp()
            got, got_signed = block_sum(ws, n), block_sum(ws, n, signed=True)
            assert type(got) is Fraction and type(got_signed) is Fraction
            assert got == unsigned.coeff(n) * math.factorial(n)
            assert got_signed == W.log().coeff(n) * math.factorial(n)

    def test_float_kinds_match_series(self):
        rng = random.Random(62)
        n = 7
        with mp.workdps(50):
            ws = [mp.mpf(rng.randint(-9, 9)) / 7 for _ in range(n)]
            ref = _egf(ws, n).log().coeff(n) * math.factorial(n)
            got = block_sum(ws, n, signed=True)
        assert isinstance(got, mp.mpf) and abs(got - ref) <= mp.mpf("1e-45") * abs(ref)
        fl = [float(w) for w in ws]
        got = block_sum(fl, n, signed=True)
        assert isinstance(got, float) and abs(got - float(ref)) <= 1e-12 * abs(float(ref))

    def test_mpf_terms_sum_exactly_rounded_once(self):
        # the terms cancel to a value 400 bits below them; a sum that drops
        # a term far below its running sum returns 0
        with mp.workdps(50):
            tiny = mp.ldexp(mp.mpf(1), -200)
            assert block_sum([mp.mpf(1), tiny ** 2, mp.mpf(-1)], 3) == 3 * tiny ** 2
            assert join_sum([[mp.mpf(1), mp.mpf(-1)], [tiny, mp.mpf(-1)]], 2) == -tiny ** 2

    def test_in_kind_weights_match_the_per_partition_literal(self):
        # exact sums equal the literal, mpf and binary64 ones are its exact
        # value rounded once; complex, inf and nan weights are summed in kind
        rng = random.Random(68)
        outcomes = set()
        for n in range(1, 7):
            for signed in (False, True):
                ex = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
                assert block_sum(ex, n, signed) == block_sum_literal(ex, n, signed)
                for kind in ("mpf", "float"):
                    ws = _draws(rng, n, kind)
                    exact = block_sum_literal(list(map(_exact, ws)), n, signed)
                    with mp.workdps(50):
                        want, got = _rounded_once(exact, kind), block_sum(ws, n, signed)
                    assert type(got) is type(want) and got == want, (kind, n, signed)
                with mp.workdps(50):
                    ws = [mp.mpc(rng.randint(-9, 9), rng.randint(1, 9)) / 7 for _ in range(n)]
                    got, ref = block_sum(ws, n, signed), block_sum_literal(ws, n, signed)
                    assert isinstance(got, mp.mpc) and abs(got - ref) <= mp.mpf("1e-40") * abs(ref)
                    # every block size occurs, so the literal is nan or an inf
                    for bad, s in product((mp.inf, -mp.inf, mp.nan), range(n)):
                        for ws in (_draws(rng, n, "mpf"), _draws(rng, n, "float")):
                            ws[s] = type(ws[0])(bad)
                            got, ref = block_sum(ws, n, signed), block_sum_literal(ws, n, signed)
                            if mp.isnan(ref):
                                assert mp.isnan(got), (ws, signed)
                            else:
                                assert mp.isinf(ref) and got == ref, (ws, signed)
                            outcomes.add("nan" if mp.isnan(ref) else "+inf" if ref > 0 else "-inf")
        assert outcomes == {"nan", "+inf", "-inf"}

    def test_needs_a_weight_per_block_size(self):
        with pytest.raises(ValueError):
            block_sum([Fraction(1)], 2)
        with pytest.raises(ValueError):
            block_sum([Fraction(1)], 0)


class TestJoinSum:
    def test_equals_the_per_tuple_oracle(self):
        rng = random.Random(66)
        for m in (1, 2, 3):
            for n in range(1, 6):
                ws = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                      for _ in range(m)]
                got = join_sum(ws, n)
                assert type(got) is Fraction and got == join_sum_by_product(ws, n), (m, n)

    def test_three_factors_at_the_cap_take_under_half_a_second(self):
        rng = random.Random(67)
        ws = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
              for _ in range(3)]
        start = time.perf_counter()
        join_sum(ws, 6)
        assert time.perf_counter() - start < 0.5


def _draws(rng, count: int, kind: str) -> list:
    """``count`` signed weights p/q, mpf at 50 digits or binary64."""
    with mp.workdps(50):
        ws = [mp.mpf(rng.randint(-9, 9)) / rng.randint(1, 7) for _ in range(count)]
    return ws if kind == "mpf" else [float(w) for w in ws]


def _exact(w) -> Fraction:
    """The exact value of a binary64 or mpf weight."""
    if isinstance(w, float):
        return Fraction(w)
    man, e = w.man_exp
    return Fraction(-man if w < 0 else man) * Fraction(2) ** e


def _rounded_once(x: Fraction, kind: str):
    """x rounded once, to an mpf at the ambient precision or to binary64."""
    return mp.fdiv(x.numerator, x.denominator) if kind == "mpf" else float(x)


class TestFloatKindsRoundOnce:
    """An mpf or binary64 literal sum is the exact sum of the weights' exact
    values, rounded once to the kind."""

    def test_block_sum(self):
        rng = random.Random(63)
        for kind in ("mpf", "float"):
            for n in range(1, 9):
                ws = _draws(rng, n, kind)
                for signed in (False, True):
                    with mp.workdps(50):
                        got = block_sum(ws, n, signed)
                        want = _rounded_once(block_sum(list(map(_exact, ws)), n, signed), kind)
                    assert type(got) is type(want) and got == want, (kind, n, signed)

    def test_join_sum(self):
        rng = random.Random(64)
        for kind in ("mpf", "float"):
            for m in (1, 2, 3):
                for n in range(1, 5):
                    ws = [_draws(rng, n, kind) for _ in range(m)]
                    exact = join_sum_by_product([list(map(_exact, f)) for f in ws], n)
                    with mp.workdps(50):
                        got = join_sum(ws, n)
                        want = _rounded_once(Fraction(exact), kind)
                    assert type(got) is type(want) and got == want, (kind, m, n)

    def test_complex_weights_sum_in_kind(self):
        rng = random.Random(65)
        n = 6
        with mp.workdps(50):
            ws = [mp.mpc(rng.randint(-9, 9), rng.randint(-9, 9)) / 7 for _ in range(n)]
            ref = _egf(ws, n).log().coeff(n) * math.factorial(n)
            got = block_sum(ws, n, signed=True)
        assert isinstance(got, mp.mpc) and abs(got - ref) <= mp.mpf("1e-40") * abs(ref)

    def test_factors_of_different_kinds_raise(self):
        with mp.workdps(50):
            with pytest.raises(TypeError, match="mixed scalar kinds"):
                join_sum([[Fraction(1, 2), Fraction(1, 3)], [mp.mpf(1), mp.mpf(2)]], 2)
            with pytest.raises(TypeError, match="mixed scalar kinds"):
                join_sum([[0.5, 0.25], [mp.mpf(1), mp.mpf(2)]], 2)

    def test_mpf_block_sum_streams(self):
        with mp.workdps(50):
            ws = [mp.mpf(1) / (k + 2) for k in range(9)]
            tracemalloc.start()
            try:
                block_sum(ws, 9, signed=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1_000_000


# ---------------------------------------------------------------------------
# tuple-family counting
# ---------------------------------------------------------------------------

class TestTupleCounts:
    def test_count_R_examples(self):
        assert count_R(2, (1, 1)) == 2
        assert count_R(3, (2,)) == 0
        # n = M: disjoint covering tuples, M!/prod(m_i!)
        for sizes in [(1, 1), (2, 1), (2, 2), (3, 2, 1)]:
            M = sum(sizes)
            expect = math.factorial(M)
            for m in sizes:
                expect //= math.factorial(m)
            assert count_R(M, sizes) == expect

    def test_count_R_brute_equals_formula(self):
        for k in (1, 2, 3):
            for sizes in combinations_with_replacement_sizes(k, 3):
                for n in range(1, 9):
                    assert count_R(n, sizes) == count_R(n, sizes, method="formula")

    def test_count_R_formula_vanishes_past_the_degree(self):
        # no tuple of sizes m_i covers more than sum(m_i) points
        assert count_R(6, (2, 3)) == count_R(6, (2, 3), method="formula") == 0
        start = time.perf_counter()
        assert count_R(20000, (2, 3), method="formula") == 0
        assert time.perf_counter() - start < 1.0

    def test_count_S_examples(self):
        assert count_S(1, (1, 1)) == 1
        assert count_S(2, (1, 1)) == 0
        # frozen from brute force; equals the interval-join closed form
        # multinomial(2;1,1) * 3 = 6
        assert count_S(3, (2, 2)) == 6
        assert count_S(3, (2, 2)) == count_T_closed((2, 2), (1, 1, 1))

    def test_count_S_zero_band(self):
        for sizes in [(2,), (2, 2), (3, 2), (2, 1, 1)]:
            M, k = sum(sizes), len(sizes)
            for n in range(M - (k - 1) + 1, 9):
                assert count_S(n, sizes) == 0

    def test_count_T_examples(self):
        assert count_T((2,), (3, 4)) == 12  # k=1: product of lengths
        assert count_T((3,), (1, 2, 3)) == 6
        assert count_T((2, 2), (1, 1, 1)) == 6
        assert count_T((1, 1), (1,)) == 1

    def test_count_T_brute_equals_closed(self):
        cases = []
        for sizes in [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 2), (1, 1, 1), (2, 1, 1), (2, 2, 1)]:
            k, M = len(sizes), sum(sizes)
            slots = M - (k - 1)
            for lengths in compositions_up_to(slots, 8):
                cases.append((sizes, lengths))
        assert len(cases) > 50
        for sizes, lengths in cases:
            assert count_T(sizes, lengths) == count_T_closed(sizes, lengths)

    def test_count_T_symmetric_in_sizes(self):
        assert count_T((3, 2), (1, 2, 1, 1)) == count_T((2, 3), (1, 2, 1, 1))

    def test_counts_equal_the_literal_tuple_oracles(self):
        # every instance with n <= 6 and k <= 3: repeated sizes, k = 1, and
        # sizes past n, where no tuple exists
        for k in (1, 2, 3):
            for sizes in combinations_with_replacement_sizes(k, 7):
                for n in range(1, 7):
                    assert count_R(n, sizes) == covering_by_product(n, sizes)
                    assert count_S(n, sizes) == connected_by_product(
                        [1 << x for x in range(n)], n, sizes)
        cases = 0
        for k in (1, 2, 3):
            for sizes in product(range(1, 7), repeat=k):
                for lengths in compositions_up_to(sum(sizes) - (k - 1), 6):
                    expect = connected_by_product(partitions._interval_masks(lengths),
                                                  sum(lengths), sizes)
                    assert count_T(sizes, lengths) == expect
                    cases += 1
        assert cases > 200

    def test_counts_past_the_product_loop(self):
        # tuples the product loop listed one by one number 28^4 and 84^3 here
        def timed(count, *args):
            start = time.perf_counter()
            value = count(*args)
            assert time.perf_counter() - start < 0.25
            return value

        for sizes, slots in (((2, 2, 2, 2), 5), ((3, 3, 3), 7)):
            for lengths in compositions_up_to(slots, 8):
                if sum(lengths) == 8:
                    assert timed(count_T, sizes, lengths) == count_T_closed(sizes, lengths)
        for sizes in ((1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2)):
            fam = [ZeroConstPoly.binomial_basis(m) for m in sizes]
            for n in range(1, 9):
                assert timed(count_S, n, sizes) == s_bruteforce(fam, n)

    def test_non_positive_inputs_rejected(self):
        bad = [
            lambda: count_R(0, (1,)),
            lambda: count_R(2, (0, 1), method="formula"),
            lambda: count_S(3, (2, -1)),
            lambda: count_T((2,), (-1, 4)),
            lambda: count_T_closed((2,), (-1, 4)),
            lambda: count_T_closed((0, 3), (1, 1)),
            lambda: count_join_full((0, 3)),
            lambda: count_join_full_closed((0, 3)),
            lambda: count_join_full_closed((-2, 5)),
            lambda: count_join_full_closed(()),
        ]
        for call in bad:
            with pytest.raises(ValueError, match="must be positive"):
                call()

    def test_count_join_full_examples(self):
        assert count_join_full((2, 2)) == 4
        assert count_join_full_closed((2, 2)) == 4
        assert count_join_full((4,)) == 1
        assert count_join_full_closed((4,)) == 1
        assert count_join_full((1, 1)) == 1

    def test_count_join_full_brute_equals_closed(self):
        for M in range(2, 9):
            for sizes in size_multisets(M):
                assert count_join_full(sizes) == count_join_full_closed(sizes)


def combinations_with_replacement_sizes(k, max_m):
    from itertools import combinations_with_replacement

    return list(combinations_with_replacement(range(1, max_m + 1), k))


def size_multisets(M):
    """All nonincreasing tuples of positive ints summing to M."""
    out = []

    def rec(prefix, remaining, bound):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for v in range(min(remaining, bound), 0, -1):
            prefix.append(v)
            rec(prefix, remaining - v, v)
            prefix.pop()

    rec([], M, M)
    return out


def compositions_up_to(slots, max_total):
    """All positive compositions with `slots` parts and sum <= max_total."""
    out = []

    def rec(prefix, remaining_slots, budget):
        if remaining_slots == 0:
            out.append(tuple(prefix))
            return
        for v in range(1, budget - (remaining_slots - 1) + 1):
            prefix.append(v)
            rec(prefix, remaining_slots - 1, budget - v)
            prefix.pop()

    rec([], slots, max_total)
    return out


class TestJoinAll:
    """Joins of a whole family of partitions of [n], through the mask fold."""

    def test_empty_family_is_bottom(self):
        # nothing folded onto 0_n leaves 0_n, which is 1_n only for n = 1
        for n in range(1, 6):
            assert _joins_to_top(bottom(n), []) == (n == 1)
            assert _joins(bottom(n)) == (n == 1)
        assert _joins_to_top([0b1111], [])

    def test_three_way(self):
        parts = [
            masks_of([(1, 2), (3,), (4,), (5,)]),
            masks_of([(1,), (2, 3), (4,), (5,)]),
            masks_of([(1,), (2,), (3,), (4, 5)]),
        ]
        assert join_bfs(*parts) == masks_of([(1, 2, 3), (4, 5)])
        assert not _joins(*parts)
        assert _joins(*parts, masks_of([(1,), (2,), (3, 4), (5,)]))
        assert not _joins(*parts, masks_of([(1, 3), (2,), (4, 5)]))
