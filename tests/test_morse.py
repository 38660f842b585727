from collections import Counter
from itertools import accumulate
from math import comb

import pytest

from todatopo import (
    IncidenceError,
    MorseEdge,
    betti_one,
    build_chain_complex,
    cartan_matrix,
    conjectured_betti,
    generate_weyl_group,
    homology_of,
    incidence,
    index,
    is_abelian_unstable,
    is_transversal,
    label,
    morse_complex,
    morse_smale_edges,
    poincare_polynomial,
    principal_graph,
    toda_graph,
)
from todatopo.errors import ConfigError, CorruptComplexError
from todatopo.morse import MAX_PRINCIPAL_RANK, stable_set, unstable_set


def s_word(W, i, j):
    """Consecutive product s_i s_(i+-1) ... s_j."""
    stepdir = 1 if j >= i else -1
    return W.from_word(range(i, j + stepdir, stepdir))


class TestLabels:
    def test_a5_worked_example(self):
        W = generate_weyl_group(cartan_matrix("A", 5))
        w = W.from_word([2, 1, 4, 3])
        assert label(w) == "0*0**"
        assert index(w) == 3

    def test_identity_all_stars(self, W_A3):
        assert label(W_A3.identity) == "***"
        assert index(W_A3.identity) == 3

    def test_longest_all_zeros(self, W_A3):
        assert label(W_A3.longest_element) == "000"
        assert index(W_A3.longest_element) == 0

    @pytest.mark.parametrize("fix", ["W_A2", "W_A3", "W_B2", "W_G2"])
    def test_unstable_stable_partition(self, fix, request):
        W = request.getfixturevalue(fix)
        full = frozenset(range(1, W.rank + 1))
        for w in W:
            assert unstable_set(w) | stable_set(w) == full
            assert not unstable_set(w) & stable_set(w)

    @pytest.mark.parametrize("fix", ["W_A2", "W_A3", "W_B3"])
    def test_index_counts_symmetric(self, fix, request):
        W = request.getfixturevalue(fix)
        counts = [0] * (W.rank + 1)
        for w in W:
            counts[index(w)] += 1
        assert counts == counts[::-1]


class TestTodaGraph:
    def test_a1(self, W_A1):
        g = toda_graph(W_A1)
        assert len(g.vertices) == 2
        assert len(g.edges) == 1
        a, b, i = g.edges[0]
        assert a is W_A1.identity and i == 1 and b.length == 1

    def test_a2_edge_count(self, W_A2):
        assert len(toda_graph(W_A2).edges) == 2 * 6 // 2

    @pytest.mark.parametrize("fix", ["W_A3", "W_B2", "W_G2"])
    def test_edge_count_formula_and_regularity(self, fix, request):
        W = request.getfixturevalue(fix)
        g = toda_graph(W)
        assert len(g.edges) == W.rank * len(W) // 2
        degree = {w: 0 for w in W}
        for a, b, _ in g.edges:
            assert a.length < b.length
            degree[a] += 1
            degree[b] += 1
        assert all(d == W.rank for d in degree.values())


class TestTransversality:
    def test_self_pairs_a2(self, W_A2):
        for a in W_A2:
            assert is_transversal(a, a)

    def test_e_to_s1_a2(self, W_A2):
        assert is_transversal(W_A2.identity, W_A2.simple_reflection(1))

    @pytest.mark.parametrize("fix", ["W_A2", "W_A3"])
    def test_index_increase_never_transversal(self, fix, request):
        W = request.getfixturevalue(fix)
        for a in W:
            for b in W:
                if index(a) < index(b):
                    assert not is_transversal(a, b)


def transversal_by_coset_intersection(a, b):
    """Reference: the cosets a W_A and b W_B, as sets, share |W_(A&B)| elements."""
    W = a.group
    ua, sb = unstable_set(a), stable_set(b)
    if len(ua & sb) != index(a) - index(b):
        return False
    if W.parabolic_order(ua | sb) != len(W):
        return False
    A = frozenset(W.multiply(a, x) for x in W.parabolic_elements(ua))
    B = frozenset(W.multiply(b, x) for x in W.parabolic_elements(sb))
    return len(A & B) == W.parabolic_order(ua & sb)


class TestTransversalityReference:
    @pytest.mark.parametrize("fix", ["W_A3", "W_B3", "W_G2"])
    def test_every_pair(self, fix, request):
        W = request.getfixturevalue(fix)
        for a in W:
            for b in W:
                assert is_transversal(a, b) == transversal_by_coset_intersection(a, b), (a, b)


SCAN_TYPES = [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)]


class TestScanReference:
    # "value" in the ids names the one incidence reading (sigma counts signs that end at -1)
    @pytest.mark.parametrize("label,rank", SCAN_TYPES, ids=[f"{t}-{r}-value" for t, r in SCAN_TYPES])
    def test_every_index_drop_one_pair(self, label, rank):
        # every pair in (falling source index, source, target) order, tested
        # and valued by the public functions
        W = generate_weyl_group(cartan_matrix(label, rank))
        want = [
            MorseEdge(a, b, incidence(a, b))
            for k in range(W.rank, 0, -1)
            for a in W
            if index(a) == k
            for b in W
            if index(b) == k - 1 and is_transversal(a, b)
        ]
        assert list(morse_smale_edges(W)) == want


class TestIncidence:
    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_closed_form_first_family(self, l):
        W = generate_weyl_group(cartan_matrix("A", l))
        e = W.identity
        for i in range(1, l + 1):
            got = incidence(e, s_word(W, i, 1))
            assert got == 2 * (-1) ** (i + 1) * (1 - (i == l))

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_closed_form_mirror_family(self, l):
        W = generate_weyl_group(cartan_matrix("A", l))
        e = W.identity
        for i in range(1, l + 1):
            got = incidence(e, s_word(W, l - i + 1, l))
            assert got == 2 * (-1) ** (i + 1) * (1 - (i == l))

    def test_values_in_allowed_set(self, W_A3):
        for e in morse_smale_edges(W_A3):
            assert e.incidence in (-2, 0, 2)

    def test_precondition_errors(self, W_A2):
        with pytest.raises(IncidenceError):
            incidence(W_A2.identity, W_A2.longest_element)  # index gap 2
        with pytest.raises(IncidenceError):
            incidence(W_A2.simple_reflection(1), W_A2.identity)  # index increases

    def test_two_shared_directions_rejected(self, W_A3):
        with pytest.raises(IncidenceError, match="single shared direction"):
            incidence(W_A3.from_word([1]), W_A3.from_word([2, 3, 2]))

    def test_non_transversal_connection_rejected(self, W_A3):
        with pytest.raises(IncidenceError, match="not transversal"):
            incidence(W_A3.from_word([1]), W_A3.from_word([2, 1, 3]))


class TestMorseComplex:
    def test_a1(self, W_A1):
        cx = morse_complex(W_A1)
        assert cx.ranks() == (1, 1)
        assert cx.boundary(1).is_zero()
        assert [g.free_rank for g in homology_of(cx)] == [1, 1]

    def test_a2_boundary_and_gold_homology(self, W_A2):
        cx = morse_complex(W_A2)
        assert cx.ranks() == (1, 4, 1)
        col = [v for _, _, v in cx.boundary(2).triplets()]
        assert sorted(col) == [2, 2]
        assert cx.boundary(1).is_zero()
        groups = homology_of(cx)
        assert [(g.free_rank, g.torsion) for g in groups] == [(1, ()), (3, (2,)), (0, ())]

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_square_zero_and_matches_cellular(self, l):
        W = generate_weyl_group(cartan_matrix("A", l))
        mcx = morse_complex(W)
        mcx.validate()
        assert homology_of(mcx) == homology_of(build_chain_complex(W))

    def test_a3_h1_rank(self, W_A3):
        groups = homology_of(morse_complex(W_A3))
        assert groups[1].free_rank == 6

    def test_a4_edge_set_is_not_a_complex(self, W_A4):
        # beyond rank 3 the transversality conditions no longer pin down a
        # consistent boundary; the failure is reported, not hidden
        with pytest.raises(CorruptComplexError):
            morse_complex(W_A4)


class TestAbelianUnstable:
    def test_examples(self, W_A2):
        assert not is_abelian_unstable(W_A2.identity)
        assert is_abelian_unstable(W_A2.longest_element)
        assert is_abelian_unstable(W_A2.simple_reflection(1))

    def test_matches_nonadjacency(self, W_A3):
        C = W_A3.cartan
        for w in W_A3:
            u = sorted(unstable_set(w))
            expect = all(C.entry(i, j) == 0 for i in u for j in u if i != j)
            assert is_abelian_unstable(w) == expect


class TestPrincipalGraph:
    def test_l3_components(self):
        pg = principal_graph(3)
        assert len(pg.seeds) == 6
        dims = sorted(pg.seed_cube_dim(s) for s in pg.seeds)
        assert dims == [0, 0, 0, 1, 1, 2]

    def test_l1_single_vertex(self):
        pg = principal_graph(1)
        assert len(pg.seeds) == 1
        assert pg.counts() == (1,)

    def test_l2_counts(self):
        pg = principal_graph(2)
        assert len(pg.seeds) == 3
        assert pg.counts() == (4, 1)  # four grade-1 cells, one grade-2

    def test_seed_labels(self):
        pg = principal_graph(3)
        assert pg.seed_label((0, 0)) == "***"
        assert pg.seed_label((1, 0)) == "0**"
        assert pg.seed_label((1, 1)) == "0*0"

    @pytest.mark.parametrize("l", range(1, 7))
    def test_counts_match_polynomial(self, l):
        assert principal_graph(l).counts() == poincare_polynomial(l)

    @pytest.mark.parametrize("l", range(1, 7))
    def test_square_zero(self, l):
        pg = principal_graph(l)
        for k in range(2, l + 1):
            assert pg.boundary_matrix(k - 1).matmul(pg.boundary_matrix(k)).is_zero()

    def test_grade_one_cells_are_cycles(self):
        pg = principal_graph(4)
        for cell in pg.cells_of_grade(1):
            assert pg.boundary_coefficients(cell) == []

    @pytest.mark.parametrize("l", [13, 20])
    def test_rank_cap(self, l):
        # About 0.75 * 3^l faces: the cap is checked before any is built.
        with pytest.raises(ConfigError, match="capped at rank 12"):
            principal_graph(l)


def count_exact_ascent_set(l, T):
    """Reference: elements of the rank-l A-series Weyl group whose unstable set is the mask T
    (bit p - 1 for root p), by the descent-set recursion on permutations of l+1 letters:
    f[j] counts the arrangements of the first letters whose last letter ranks j among them."""
    f = [1]
    for p in range(l):
        pre = [0, *accumulate(f)]
        f = pre if T >> p & 1 else [pre[-1] - s for s in pre]
    return sum(f)


def whisker_sum_by_masks(l, k):
    """Reference: the signed whisker sum over all 2^l masks T with k maximal blocks
    (T & ~(T << 1) keeps the first root of each block)."""
    return sum(
        (-1) ** (T.bit_count() - k) * count_exact_ascent_set(l, T)
        for T in range(1 << l)
        if (T & ~(T << 1)).bit_count() == k
    )


def euler_zigzag(n):
    """E_0..E_n, the Euler zigzag numbers, by Seidel's boustrophedon: each row starts at 0 and
    adds the row before it read backwards; E_m ends row m."""
    row, out = [1], [1]
    for _ in range(n):
        nxt = [0]
        for x in reversed(row):
            nxt.append(nxt[-1] + x)
        row = nxt
        out.append(row[-1])
    return out


class TestBettiFormulas:
    def test_poincare_small(self):
        assert poincare_polynomial(2) == (4, 1)  # q + 4
        assert poincare_polynomial(3) == (11, 6, 1)  # q^2 + 6q + 11

    def test_rank_above_the_cap_rejected(self):
        with pytest.raises(ConfigError, match=f"capped at rank {MAX_PRINCIPAL_RANK}"):
            poincare_polynomial(MAX_PRINCIPAL_RANK + 1)

    @pytest.mark.parametrize("l", range(1, 7))
    def test_constant_term(self, l):
        assert poincare_polynomial(l)[0] == 2 ** (l + 1) - (l + 2)

    @pytest.mark.parametrize("l,val", [(1, 1), (2, 3), (3, 6), (4, 10), (5, 15), (6, 21)])
    def test_betti_one(self, l, val):
        assert betti_one(l) == val

    @pytest.mark.parametrize("l", range(1, 7))
    def test_conjecture_reduces_to_betti_one(self, l):
        assert conjectured_betti(l, 1) == l * (l + 1) // 2

    def test_k_beyond_half(self):
        assert conjectured_betti(2, 2) == 0
        assert conjectured_betti(3, 3) == 0
        assert conjectured_betti(5, 4) == 0

    def test_integral_float_degree_is_read_as_int(self):
        value = conjectured_betti(3, 2.0)
        assert value == conjectured_betti(3, 2) == 5 and type(value) is int
        assert conjectured_betti(3, 3.0) == 0

    def test_a3_second_betti_matches_cellular(self, W_A3):
        groups = homology_of(build_chain_complex(W_A3))
        assert conjectured_betti(3, 2) == groups[2].free_rank

    def test_a2_second_betti_matches_cellular(self, W_A2):
        groups = homology_of(build_chain_complex(W_A2))
        assert conjectured_betti(2, 2) == groups[2].free_rank

    def test_a4_conjecture_matches_cellular(self, W_A4):
        groups = homology_of(build_chain_complex(W_A4))
        values = [conjectured_betti(4, k) for k in range(2, 5)]
        assert values == [g.free_rank for g in groups[2:]] == [25, 0, 0]

    @pytest.mark.slow
    def test_a5_conjecture_matches_cellular(self):
        groups = homology_of(build_chain_complex(generate_weyl_group(cartan_matrix("A", 5))))
        values = [conjectured_betti(5, k) for k in range(2, 6)]
        assert values == [g.free_rank for g in groups[2:]] == [75, 61, 0, 0]

    @pytest.mark.parametrize("fix,l", [("W_A2", 2), ("W_A3", 3), ("W_A4", 4), ("A5", 5)])
    def test_whisker_counts_against_enumeration(self, fix, l, request):
        if fix == "A5":
            W = generate_weyl_group(cartan_matrix("A", 5))
        else:
            W = request.getfixturevalue(fix)
        by_set = Counter(sum(1 << (i - 1) for i in unstable_set(w)) for w in W)
        for T, count in by_set.items():
            assert count_exact_ascent_set(l, T) == count

    @pytest.mark.parametrize("l", range(1, 13))
    def test_transfer_sum_matches_mask_sum(self, l):
        assert [conjectured_betti(l, k) for k in range(1, l + 1)] == [
            whisker_sum_by_masks(l, k) for k in range(1, l + 1)
        ]

    def test_zigzag_numbers(self):
        assert euler_zigzag(10) == [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]

    @pytest.mark.parametrize("l", range(1, MAX_PRINCIPAL_RANK + 1))
    def test_henderson_identity(self, l):
        # Henderson: the k-th Betti number of the real toric variety of type A_l is C(l+1, 2k) E_2k
        E = euler_zigzag(2 * l)
        assert [conjectured_betti(l, k) for k in range(1, l + 1)] == [
            comb(l + 1, 2 * k) * E[2 * k] for k in range(1, l + 1)
        ]

    @pytest.mark.parametrize("l", range(1, 6))
    def test_conjecture_against_enumeration(self, l):
        # group A_l by unstable mask and count the blocks of each set on tuples
        W = generate_weyl_group(cartan_matrix("A", l))
        full = (1 << l) - 1
        by_mask = Counter(full ^ d for d in W._descents)
        for k in range(1, l + 1):
            want = 0
            for T, count in by_mask.items():
                roots = tuple(p for p in range(1, l + 1) if T >> (p - 1) & 1)
                blocks = sum(1 for p in roots if p - 1 not in roots)
                if blocks == k:
                    want += (-1) ** (len(roots) - k) * count
            assert conjectured_betti(l, k) == want, (l, k)

    @pytest.mark.parametrize(
        "l,values",
        [
            (6, [21, 175, 427, 0, 0, 0]),
            (8, [36, 630, 5124, 12465, 0, 0, 0, 0]),
            (11, [66, 2475, 56364, 685575, 3334386, 2702765, 0, 0, 0, 0, 0]),
        ],
    )
    def test_conjecture_pinned_values(self, l, values):
        assert [conjectured_betti(l, k) for k in range(1, l + 1)] == values
