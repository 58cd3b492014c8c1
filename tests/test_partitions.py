import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finfree.errors import CapExceededError
from finfree.partitions import (
    OrderedPartition,
    SetPartition,
    Subset,
    bell_number,
    count_R,
    count_S,
    count_T,
    count_T_closed,
    count_join_full,
    count_join_full_closed,
    enumerate_coarsenings,
    enumerate_noncrossing,
    enumerate_partitions,
    enumerate_refinements,
    hat_embed,
    interval_partition,
    is_noncrossing,
    is_refinement,
    join,
    join_all,
    mobius,
    mobius_bottom,
    mobius_recursive,
    mobius_subset,
    mobius_top,
    tau_embed,
)

from .oracles import bell_oracle, catalan_oracle, join_bfs, partitions_by_insertion


def rgs_partitions(draw_n=st.integers(min_value=1, max_value=7)):
    """Hypothesis strategy: a random partition via a random growth string."""

    @st.composite
    def strat(draw):
        n = draw(draw_n)
        rgs = [0]
        for i in range(1, n):
            rgs.append(draw(st.integers(min_value=0, max_value=max(rgs) + 1)))
        return SetPartition.from_rgs(rgs)

    return strat()


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

class TestEnumeration:
    def test_n1_single_partition(self):
        assert [p.blocks for p in enumerate_partitions(1)] == [((1,),)]

    def test_bell_counts_small(self):
        assert sum(1 for _ in enumerate_partitions(3)) == 5

    def test_bell_count_n10(self):
        # frozen from the Bell-number recurrence oracle
        assert bell_oracle(10) == 115975
        assert sum(1 for _ in enumerate_partitions(10)) == 115975

    def test_bell_helper_matches_oracle(self):
        for n in range(1, 14):
            assert bell_number(n) == bell_oracle(n)

    def test_rgs_lexicographic_order(self):
        got = [p.blocks for p in enumerate_partitions(3)]
        assert got == [
            ((1, 2, 3),),
            ((1, 2), (3,)),
            ((1, 3), (2,)),
            ((1,), (2, 3)),
            ((1,), (2,), (3,)),
        ]
        # first element is 1_n, last is 0_n
        stream = list(enumerate_partitions(5))
        assert stream[0] == SetPartition.top(5)
        assert stream[-1] == SetPartition.bottom(5)

    def test_matches_insertion_oracle(self):
        for n in range(1, 9):
            ours = {p.blocks for p in enumerate_partitions(n)}
            oracle = {
                tuple(sorted((tuple(sorted(b)) for b in pp), key=lambda b: b[0]))
                for pp in partitions_by_insertion(n)
            }
            assert ours == oracle

    def test_equals_validated_construction(self):
        for n in range(1, 9):
            for p in enumerate_partitions(n):
                q = SetPartition(n, p.blocks)
                assert p == q and hash(p) == hash(q) and p.blocks == q.blocks

    def test_rgs_strings_strictly_increasing(self):
        for n in range(1, 9):
            strings = []
            for p in enumerate_partitions(n):
                owner = p.block_of()
                strings.append(tuple(owner[x] for x in range(1, n + 1)))
            assert len(strings) == bell_oracle(n)
            assert all(a < b for a, b in zip(strings, strings[1:]))

    def test_cap_refused_with_message(self):
        with pytest.raises(CapExceededError, match="cap 12"):
            list(enumerate_partitions(13))
        with pytest.raises(CapExceededError):
            list(enumerate_partitions(5, cap=4))
        assert sum(1 for _ in enumerate_partitions(5, cap=5)) == 52

    def test_streams_are_independent(self):
        a = enumerate_partitions(4)
        b = enumerate_partitions(4)
        next(a)
        next(a)
        assert next(b) == SetPartition.top(4)


# ---------------------------------------------------------------------------
# order, join, Mobius
# ---------------------------------------------------------------------------

class TestLattice:
    def test_join_examples(self):
        a = SetPartition(3, [(1, 2), (3,)])
        b = SetPartition(3, [(1,), (2, 3)])
        assert join(a, b) == SetPartition.top(3)
        assert join(a, a) == a
        c = SetPartition(4, [(1, 3), (2,), (4,)])
        d = SetPartition(4, [(1,), (2, 4), (3,)])
        expected = join_bfs(c, d)  # union-find result checked against BFS oracle
        assert expected == SetPartition(4, [(1, 3), (2, 4)])
        assert join(c, d) == expected

    def test_join_bounds(self):
        for p in enumerate_partitions(5):
            assert join(p, SetPartition.bottom(5)) == p
            assert join(p, SetPartition.top(5)) == SetPartition.top(5)

    def test_join_mismatched_n(self):
        with pytest.raises(ValueError):
            join(SetPartition.top(3), SetPartition.top(4))

    @settings(max_examples=60, deadline=None)
    @given(rgs_partitions(), rgs_partitions())
    def test_join_matches_bfs_oracle(self, a, b):
        if a.n != b.n:
            b = SetPartition.from_rgs([0] * a.n)
        assert join(a, b) == join_bfs(a, b)

    @settings(max_examples=40, deadline=None)
    @given(rgs_partitions())
    def test_join_characterizes_refinement(self, a):
        for b in enumerate_partitions(a.n):
            assert is_refinement(a, b) == (join(a, b) == b)

    def test_is_refinement_examples(self):
        for sigma in enumerate_partitions(4):
            assert is_refinement(SetPartition.bottom(4), sigma)
        assert not is_refinement(
            SetPartition(3, [(1, 2), (3,)]), SetPartition(3, [(1, 3), (2,)])
        )
        assert is_refinement(
            SetPartition(4, [(1,), (2,), (3, 4)]), SetPartition(4, [(1, 2), (3, 4)])
        )

    def test_mobius_values(self):
        assert mobius(SetPartition.bottom(4), SetPartition.top(4)) == -6
        for n in (1, 3, 5):
            assert mobius(SetPartition.top(n), SetPartition.top(n)) == 1
        sigma = SetPartition(4, [(1, 2, 3), (4,)])
        assert mobius(SetPartition.bottom(4), sigma) == 2

    def test_mobius_specializations_agree(self):
        for n in range(1, 6):
            top = SetPartition.top(n)
            for p in enumerate_partitions(n):
                assert mobius(p, top) == mobius_top(p)
                assert mobius(SetPartition.bottom(n), p) == mobius_bottom(p)
                assert mobius_top(p) == (-1) ** (p.num_blocks - 1) * math.factorial(
                    p.num_blocks - 1
                )

    def test_mobius_requires_comparable(self):
        a = SetPartition(3, [(1, 2), (3,)])
        b = SetPartition(3, [(1, 3), (2,)])
        with pytest.raises(ValueError):
            mobius(a, b)

    def test_mobius_against_recursive_oracle(self):
        for n in range(1, 6):
            parts = list(enumerate_partitions(n))
            for a in parts:
                for b in enumerate_coarsenings(a):
                    assert mobius(a, b) == mobius_recursive(a, b)

    def test_mobius_sum_lemma(self):
        # sum over sigma >= pi of mu(sigma, 1_n) vanishes except at the top
        for n in range(1, 9):
            top = SetPartition.top(n)
            for p in enumerate_partitions(n):
                s = sum(mobius_top(sig) for sig in enumerate_coarsenings(p))
                assert s == (1 if p == top else 0)

    def test_mobius_inversion_roundtrip(self):
        rng = random.Random(20240817)
        for n in range(1, 8):
            parts = list(enumerate_partitions(n))
            g = {p: Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for p in parts}
            f = {
                p: sum(g[s] for s in enumerate_refinements(p))
                for p in parts
            }
            for p in parts if n < 7 else rng.sample(parts, 40):
                recovered = sum(f[s] * mobius(s, p) for s in enumerate_refinements(p))
                assert recovered == g[p]

    def test_mobius_subset(self):
        v = Subset(3, (1, 2, 3))
        assert mobius_subset(v, v) == 1
        assert mobius_subset(Subset(3, ()), v) == -1
        assert mobius_subset(Subset(4, (1,)), Subset(4, (1, 2, 4))) == 1
        with pytest.raises(ValueError):
            mobius_subset(Subset(3, (1,)), Subset(3, (2, 3)))


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

class TestEmbeddings:
    def test_tau(self):
        assert tau_embed(Subset(5, (1, 4))) == SetPartition(
            5, [(1, 4), (2,), (3,), (5,)]
        )
        assert tau_embed(Subset(4, (1, 2, 3, 4))) == SetPartition.top(4)
        assert tau_embed(Subset(4, (3,))) == SetPartition.bottom(4)
        with pytest.raises(ValueError):
            tau_embed(Subset(3, ()))

    def test_hat_examples(self):
        assert hat_embed(SetPartition.bottom(2), (2, 2)) == SetPartition(
            4, [(1, 2), (3, 4)]
        )
        assert hat_embed(SetPartition.top(3), (2, 1, 2)) == SetPartition.top(5)
        assert hat_embed(SetPartition(3, [(1,), (2, 3)]), (1, 2, 2)) == SetPartition(
            5, [(1,), (2, 3, 4, 5)]
        )

    def test_hat_is_poset_isomorphism(self):
        sizes = (2, 1, 2)
        k, M = 3, 5
        images = {hat_embed(p, sizes) for p in enumerate_partitions(k)}
        base = interval_partition(sizes)
        upper = {p for p in enumerate_partitions(M) if is_refinement(base, p)}
        assert images == upper
        ps = list(enumerate_partitions(k))
        for a in ps:
            for b in ps:
                assert is_refinement(a, b) == is_refinement(
                    hat_embed(a, sizes), hat_embed(b, sizes)
                )

    def test_ordered_partition_natural(self):
        p = SetPartition(5, [(2, 5), (1, 3), (4,)])
        nat = OrderedPartition.natural_of(p)
        assert nat.blocks == ((1, 3), (2, 5), (4,))
        assert nat.is_natural
        assert not OrderedPartition(5, [(2, 5), (1, 3), (4,)]).is_natural
        assert nat.unordered() == p


# ---------------------------------------------------------------------------
# non-crossing
# ---------------------------------------------------------------------------

class TestNonCrossing:
    def test_n3_all_noncrossing(self):
        assert sum(1 for _ in enumerate_noncrossing(3)) == 5

    def test_n4_catalan(self):
        assert catalan_oracle(4) == 14
        assert sum(1 for _ in enumerate_noncrossing(4)) == 14

    def test_canonical_crossing_excluded(self):
        crossing = SetPartition(4, [(1, 3), (2, 4)])
        assert not is_noncrossing(crossing)
        assert crossing not in set(enumerate_noncrossing(4))

    def test_counts_match_catalan(self):
        for n in range(1, 9):
            assert sum(1 for _ in enumerate_noncrossing(n)) == catalan_oracle(n)

    def test_noncrossing_matches_quadruple_definition(self):
        def naive(pi):
            owner = pi.block_of()
            for a, b, c, d in combinations(range(1, pi.n + 1), 4):
                if owner[a] == owner[c] and owner[b] == owner[d] and owner[a] != owner[b]:
                    return False
            return True

        for p in enumerate_partitions(6):
            assert is_noncrossing(p) == naive(p)


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

    def test_count_join_full_general_block_counts(self):
        # no closed form asserted away from |sigma| = M-(k-1); brute data only
        sizes = (2, 2)
        total = sum(
            count_join_full(sizes, num_blocks=r) for r in range(1, 5)
        )
        top = SetPartition.top(4)
        base = interval_partition(sizes)
        expect = sum(1 for s in enumerate_partitions(4) if join(s, base) == top)
        assert total == expect


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
    def test_empty_family_is_bottom(self):
        assert join_all([], 4) == SetPartition.bottom(4)

    def test_nonpositive_ground_set_refused(self):
        with pytest.raises(ValueError):
            join_all([], 0)

    def test_equals_validated_rebuild(self):
        rng = random.Random(17)
        for n in range(1, 9):
            for _ in range(20):
                parts = [SetPartition.from_rgs(_random_rgs(rng, n))
                         for _ in range(rng.randint(0, 3))]
                j = join_all(parts, n)
                q = SetPartition(n, j.blocks)
                assert j == q and hash(j) == hash(q) and j.blocks == q.blocks

    def test_three_way(self):
        parts = [
            SetPartition(5, [(1, 2), (3,), (4,), (5,)]),
            SetPartition(5, [(1,), (2, 3), (4,), (5,)]),
            SetPartition(5, [(1,), (2,), (3,), (4, 5)]),
        ]
        assert join_all(parts, 5) == SetPartition(5, [(1, 2, 3), (4, 5)])


def _random_rgs(rng, n):
    rgs = [0]
    for _ in range(1, n):
        rgs.append(rng.randint(0, max(rgs) + 1))
    return rgs
