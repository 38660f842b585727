import functools
import math
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from todatopo import (
    CartanMatrix,
    CorruptComplexError,
    HomologyGroup,
    IntMatrix,
    build_chain_complex,
    cartan_matrix,
    conjectured_betti,
    generate_weyl_group,
    homology_of,
    invariant_factors,
)
from todatopo import homology
from todatopo.cells import ChainComplex

from dense_reference import composes_to_zero, dense, from_dense, mul, triplets


def det(M):
    M = [row[:] for row in M]
    n = len(M)
    from fractions import Fraction

    M = [[Fraction(x) for x in row] for row in M]
    sign = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            f = M[i][k] / M[k][k]
            for j in range(k, n):
                M[i][j] -= f * M[k][j]
    out = sign
    for k in range(n):
        out *= M[k][k]
    return out


def minor_factors(M):
    """Invariant factors from their definition: d_1 ... d_k = gcd of the k x k minors.

    Rational determinants only, so this shares no code with any elimination.
    """
    m, n = len(M), len(M[0]) if M else 0
    factors, prev = [], 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = math.gcd(g, int(det([[M[i][j] for j in cols] for i in rows])))
        if not g:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def factors(M):
    return invariant_factors(from_dense(M))


class TestSmith:
    def test_diag_2_3(self):
        # Stalls at g = 1: row 0 gains row 1, then a column step makes the 1.
        assert factors([[2, 0], [0, 3]]) == (1, 6)

    def test_diag_4_6(self):
        assert factors([[4, 0], [0, 6]]) == (2, 12)  # stalls at g = 2

    def test_zero_matrix(self):
        assert factors([[0, 0], [0, 0]]) == ()

    def test_identity(self):
        assert factors([[1, 0], [0, 1]]) == (1, 1)

    def test_empty(self):
        assert factors([]) == ()

    @pytest.mark.parametrize(
        "M",
        [
            [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
            [[1, 2], [3, 4]],
            [[6, 10], [15, 25]],
            [[0, 1], [-1, 0]],
            [[2, 0], [0, 4]],  # two gcd rounds: factors 2, 4
            [[2, 4], [4, 2]],  # the 2-pivot leaves -6: factors 2, 6
            # No entry equals the gcd, so the round stalls until a step makes one.
            [[2, 3], [3, 2]],  # factors 1, 5
            [[2, 3]],  # a column step
            [[2], [3]],  # a row step
            [[-5, 0], [0, 4]],
            [[6, 10, 15]],
        ],
    )
    def test_decomposition_exact(self, M):
        d = factors(M)
        assert d == minor_factors(M)
        for a, b in zip(d, d[1:]):
            assert b % a == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    def test_random_matrices(self, m, n, data):
        M = [
            [data.draw(st.integers(min_value=-9, max_value=9)) for _ in range(n)]
            for _ in range(m)
        ]
        assert factors(M) == minor_factors(M)
        assert factors([list(col) for col in zip(*M)]) == factors(M)  # the transpose

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([2, 3, 6]),
        st.data(),
    )
    def test_random_multiples(self, m, n, s, data):
        # All entries multiples of s: rounds stall at a gcd above 1.
        M = [
            [s * data.draw(st.integers(min_value=-7, max_value=7)) for _ in range(n)]
            for _ in range(m)
        ]
        assert factors(M) == minor_factors(M)
        assert factors([list(col) for col in zip(*M)]) == factors(M)  # the transpose

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_permutation_invariance(self, data):
        m, n = 3, 4
        M = [
            [data.draw(st.integers(min_value=-6, max_value=6)) for _ in range(n)]
            for _ in range(m)
        ]
        rows = data.draw(st.permutations(range(m)))
        cols = data.draw(st.permutations(range(n)))
        P = [[M[r][c] for c in cols] for r in rows]
        assert factors(M) == factors(P)


class TestHomology:
    @pytest.mark.parametrize("torsion,message", [((1,), "ints >= 2"), ((2, 3), "divisibility chain")])
    def test_malformed_torsion_rejected(self, torsion, message):
        with pytest.raises(ValueError, match=message):
            HomologyGroup(0, torsion)

    def test_a2_gold(self, W_A2):
        groups = homology_of(build_chain_complex(W_A2))
        assert groups[0] == HomologyGroup(1, ())
        assert groups[1] == HomologyGroup(3, (2,))
        assert groups[2] == HomologyGroup(0, ())

    def test_a1_circle(self, W_A1):
        groups = homology_of(build_chain_complex(W_A1))
        assert [g.free_rank for g in groups] == [1, 1]
        assert all(not g.torsion for g in groups)

    def test_zero_boundaries_all_free(self):
        bases = ((object(), object()), (object(), object(), object()))
        cx = ChainComplex(bases, (IntMatrix(0, 2, {}), IntMatrix(2, 3, {})))
        groups = homology_of(cx)
        assert [g.free_rank for g in groups] == [2, 3]

    def test_complex_with_no_degrees(self):
        assert homology_of(ChainComplex((), ())) == []

    def test_corrupt_complex_rejected(self):
        # d1 * d2 != 0: the complex refuses to exist, so no homology is computed
        bases = ((1, 2), (3, 4))
        with pytest.raises(CorruptComplexError):
            bad = ChainComplex(
                (bases[0], bases[1], ("x",)),
                (
                    IntMatrix(0, 2, {}),
                    IntMatrix(2, 2, {(0, 0): 1}),
                    IntMatrix(2, 1, {(0, 0): 1}),
                ),
            )
            homology_of(bad)

    def test_matched_pair_joined_by_two_rejected(self):
        with pytest.raises(CorruptComplexError, match="not joined by"):
            homology_of(ChainComplex(((0,), (0,)),
                                     (IntMatrix(0, 1, {}), IntMatrix(1, 1, {(0, 0): 2})), ({0: 0},)))

    def test_cell_in_two_pairs_rejected(self):
        d1 = IntMatrix(2, 1, {(0, 0): 1, (1, 0): -1})  # both points of C_0 onto one edge
        with pytest.raises(CorruptComplexError, match="two pairs"):
            homology_of(ChainComplex(((0, 1), (0,)), (IntMatrix(0, 2, {}), d1), ({0: 0, 1: 0},)))
        # an edge paired with the point below it and the face above it
        d1 = IntMatrix(1, 2, {(0, 0): 1, (0, 1): -1})
        d2 = IntMatrix(2, 1, {(0, 0): 1, (1, 0): 1})
        with pytest.raises(CorruptComplexError, match="two pairs"):
            homology_of(ChainComplex(((0,), (0, 1), (0,)), (IntMatrix(0, 1, {}), d1, d2), ({0: 0}, {0: 0})))

    def test_matching_of_wrong_length_rejected(self):
        d1 = IntMatrix(1, 1, {(0, 0): 1})
        with pytest.raises(CorruptComplexError, match="one dict per degree below the top"):
            homology_of(ChainComplex(((0,), (0,)), (IntMatrix(0, 1, {}), d1), ({0: 0}, {})))

    @pytest.mark.parametrize("partner", [1, -1])
    def test_partner_out_of_range_rejected(self, partner):
        d1 = IntMatrix(1, 1, {(0, 0): 1})
        with pytest.raises(CorruptComplexError, match="a partner is not a cell of degree 1"):
            homology_of(ChainComplex(((0,), (0,)), (IntMatrix(0, 1, {}), d1), ({0: partner},)))

    @pytest.mark.parametrize("cell", [5, -1])
    def test_matched_cell_out_of_range_rejected(self, cell):
        d1 = IntMatrix(1, 1, {(0, 0): 1})
        with pytest.raises(CorruptComplexError, match="a matched cell is not a cell of degree 0"):
            homology_of(ChainComplex(((0,), (0,)), (IntMatrix(0, 1, {}), d1), ({cell: 0},)))

    def test_cyclic_matching_rejected(self):
        # d a = d b = x + y, pairs x-a and y-b: x -> a -> y -> b -> x is a gradient cycle
        d1 = IntMatrix(2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
        cx = ChainComplex(((0, 1), (0, 1)), (IntMatrix(0, 2, {}), d1), ({0: 0, 1: 1},))
        with pytest.raises(CorruptComplexError, match="cycle"):
            homology_of(cx)

    def test_matching_reduces_to_the_same_groups(self):
        # the acyclic pairs x-a and y-b of d a = x + y, d b = y, d c = x + y
        d1 = IntMatrix(2, 3, {(0, 0): 1, (1, 0): 1, (1, 1): 1, (0, 2): 1, (1, 2): 1})
        bases = ((0, 1), (0, 1, 2))
        matched = homology_of(ChainComplex(bases, (IntMatrix(0, 2, {}), d1), ({0: 0, 1: 1},)))
        assert matched == homology_of(ChainComplex(bases, (IntMatrix(0, 2, {}), d1)))
        assert matched == [HomologyGroup(0), HomologyGroup(1)]
        # the same pairs listed against the gradient path x -> a -> y
        reversed_pairs = ChainComplex(bases, (IntMatrix(0, 2, {}), d1), ({1: 1, 0: 0},))
        with pytest.raises(CorruptComplexError, match="gradient order"):
            homology_of(reversed_pairs)

    def test_torus(self):
        W = generate_weyl_group(CartanMatrix.from_entries([[2, 0], [0, 2]]))
        groups = homology_of(build_chain_complex(W))
        assert [(g.free_rank, g.torsion) for g in groups] == [(1, ()), (2, ()), (1, ())]

    def test_three_torus(self):
        W = generate_weyl_group(
            CartanMatrix.from_entries([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        )
        groups = homology_of(build_chain_complex(W))
        assert [g.free_rank for g in groups] == [1, 3, 3, 1]
        assert all(not g.torsion for g in groups)

    @pytest.mark.parametrize(
        "fix", ["W_A1", "W_A2", "W_A3", "W_A4", "W_B2", "W_B3", "W_G2", "W_D4"]
    )
    def test_connected_h0_and_euler(self, fix, request):
        W = request.getfixturevalue(fix)
        cx = build_chain_complex(W)
        groups = homology_of(cx)
        assert groups[0] == HomologyGroup(1, ())
        euler = sum((-1) ** k * g.free_rank for k, g in enumerate(groups))
        assert euler == cx.euler_characteristic()

    def test_f4_homology_smoke(self):
        W = generate_weyl_group(cartan_matrix("F", 4))
        cx = build_chain_complex(W)
        groups = homology_of(cx)
        assert groups[0] == HomologyGroup(1, ())
        euler = sum((-1) ** k * g.free_rank for k, g in enumerate(groups))
        assert euler == cx.euler_characteristic() == 208

    @pytest.mark.parametrize("fix", ["W_A2", "W_A3"])
    def test_top_homology_vanishes_nonorientable(self, fix, request):
        W = request.getfixturevalue(fix)
        groups = homology_of(build_chain_complex(W))
        assert groups[-1] == HomologyGroup(0, ())

    def test_a3_free_ranks(self, W_A3):
        groups = homology_of(build_chain_complex(W_A3))
        assert [g.free_rank for g in groups] == [1, 6, 5, 0]


def _per_degree_groups(cx):
    """H_k from the Smith factors of every full boundary, with no reduction."""
    factors = [()] + [invariant_factors(cx.boundary(k)) for k in range(1, cx.top_degree + 1)] + [()]
    return [
        HomologyGroup(cx.rank(k) - len(factors[k]) - len(factors[k + 1]),
                      tuple(d for d in factors[k + 1] if d > 1))
        for k in range(cx.top_degree + 1)
    ]


def _primary_parts(ds):
    """Sorted prime-power parts of a list of cyclic orders."""
    parts = []
    for d in ds:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            if q > 1:
                parts.append(q)
            p += 1
    return sorted(parts)


def _unimodular_pair(n, ops):
    """P and P^-1 as products of elementary operations (add, swap, negate)."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    for kind, i, j, q in ops:
        i, j = i % n, j % n
        if kind == "add" and i != j:  # P <- E P, P^-1 <- P^-1 E^-1
            P[i] = [x + q * y for x, y in zip(P[i], P[j])]
            for row in Pinv:
                row[j] -= q * row[i]
        elif kind == "swap":
            P[i], P[j] = P[j], P[i]
            for row in Pinv:
                row[i], row[j] = row[j], row[i]
        elif kind == "negate":
            P[i] = [-x for x in P[i]]
            for row in Pinv:
                row[i] = -row[i]
    return P, Pinv


LIE_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
             ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]


def relabelled(letter, rank, order):
    """The (letter, rank) Cartan matrix whose vertex a is the standard vertex order[a - 1]."""
    C = cartan_matrix(letter, rank).entries
    return CartanMatrix.from_entries([[C[i - 1][j - 1] for j in order] for i in order])


@functools.cache
def standard_groups(letter, rank):
    return homology_of(build_chain_complex(generate_weyl_group(cartan_matrix(letter, rank))))


# Every vertex order at rank 2 and 3, and a fixed sample of the 24 at rank 4.
RELABELLINGS = [(letter, rank, order) for letter, rank in (("A", 3), ("B", 3), ("C", 3), ("G", 2))
                for order in permutations(range(1, rank + 1))] + [
    (letter, 4, order) for letter in "ADBF"
    for order in ((4, 3, 2, 1), (2, 1, 4, 3), (3, 1, 4, 2), (2, 4, 1, 3), (1, 3, 4, 2))]


class TestRelabelling:
    @pytest.mark.parametrize("letter,rank,order", RELABELLINGS,
                             ids=[f"{l}{r}-{''.join(map(str, o))}" for l, r, o in RELABELLINGS])
    def test_homology_does_not_see_the_vertex_order(self, letter, rank, order):
        # The boundary signs count uncolored vertices in vertex order, so a
        # relabelled diagram has other boundary matrices; the groups must agree.
        C = relabelled(letter, rank, order)
        assert homology_of(build_chain_complex(generate_weyl_group(C))) == standard_groups(letter, rank)


class TestReduction:
    @pytest.mark.parametrize("letter,rank", LIE_TYPES)
    def test_matches_per_degree_route(self, letter, rank):
        cx = build_chain_complex(generate_weyl_group(cartan_matrix(letter, rank)))
        assert homology_of(cx) == _per_degree_groups(cx)

    @pytest.mark.parametrize("letter,rank", LIE_TYPES)
    def test_critical_cells_are_named_by_descents(self, letter, rank):
        # Unmatched cells: one per w, colored on the vertices outside Desc(w), all Red.
        W = generate_weyl_group(cartan_matrix(letter, rank))
        cx = build_chain_complex(W)
        full = (1 << rank) - 1
        paired = [set() for _ in cx.bases]
        for k, pairs in enumerate(cx.matching):
            paired[k].update(pairs)
            paired[k + 1].update(pairs.values())
        critical = {
            (cell.diagram.mask, cell.diagram.red, cell.rep.position)
            for k, basis in enumerate(cx.bases)
            for c, cell in enumerate(basis)
            if c not in paired[k]
        }
        S = [full & ~W._descents[w] for w in range(len(W))]
        assert critical == {(S[w], S[w], w) for w in range(len(W))}
        per_degree = [len(basis) - len(paired[k]) for k, basis in enumerate(cx.bases)]
        descents = [d.bit_count() for d in W._descents]
        assert per_degree == [descents.count(k) for k in range(rank + 1)]
        if (letter, rank) == ("A", 3):
            assert per_degree == [1, 11, 11, 1]
        if (letter, rank) == ("B", 4):
            assert per_degree == [1, 76, 230, 76, 1]

    @pytest.mark.parametrize("letter,rank", LIE_TYPES)
    def test_matching_is_listed_by_the_gradient_key(self, letter, rank):
        # Key (-l(w), min A) from the labels, A the vertices that are Blue, or
        # uncolored and not a right descent of w.
        W = generate_weyl_group(cartan_matrix(letter, rank))
        cx = build_chain_complex(W)

        def key(cell):
            desc = W._descents[cell.rep.position]
            A = [v for v in cell.diagram.colored_vertices if cell.diagram.eta(v) == 1]
            A += [v for v in cell.diagram.uncolored if not desc >> (v - 1) & 1]
            return -cell.rep.length, min(A)

        steps = 0
        for k, pairs in enumerate(cx.matching):
            keys = {t: key(cx.bases[k][t]) for t in pairs}
            listed = [(keys[t], p) for t, p in pairs.items()]
            assert listed == sorted(listed)  # equal keys by ascending partner
            for t, p in pairs.items():  # a gradient step t -> p -> t2
                for t2 in cx.boundary(k + 1).columns[p]:
                    if t2 != t and t2 in pairs:
                        assert keys[t2] > keys[t]
                        steps += 1
        recorded = {("A", 3): 69, ("B", 4): 3101, ("F", 4): 10060}
        if (letter, rank) in recorded:
            assert steps == recorded[letter, rank]

    @pytest.mark.parametrize("letter,rank", LIE_TYPES)
    def test_morse_differentials(self, letter, rank, monkeypatch):
        # The sweep's own output: d'_k maps the w with k descents to those with
        # k - 1, d'_(k-1) d'_k = 0, d'_1 = 0, and every entry is even.
        W = generate_weyl_group(cartan_matrix(letter, rank))
        reduced = []
        sweep = homology._morse_differential

        def recording(*args):
            reduced.append(sweep(*args))
            return reduced[-1]

        monkeypatch.setattr(homology, "_morse_differential", recording)
        homology_of(build_chain_complex(W))
        descents = [d.bit_count() for d in W._descents]
        counts = [descents.count(k) for k in range(rank + 1)]
        assert [(d.rows, d.cols) for d in reduced] == [(counts[k - 1], counts[k]) for k in range(1, rank + 1)]
        assert triplets(reduced[0]) == []
        for lower, upper in zip(reduced, reduced[1:]):
            assert composes_to_zero(lower, upper)
        assert all(v % 2 == 0 for d in reduced for col in d.columns for v in col.values())
        recorded = {("A", 2): 4, ("A", 3): 44, ("G", 2): 10}
        if (letter, rank) in recorded:
            assert sum(d.nnz for d in reduced) == recorded[letter, rank]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_complexes_with_known_homology(self, data):
        top = data.draw(st.integers(min_value=1, max_value=4))
        free = data.draw(st.lists(st.integers(0, top), max_size=4))
        arrows = data.draw(st.lists(st.tuples(st.integers(1, top), st.integers(1, 6)), max_size=6))
        # Z in degree k for each free entry; Z --m--> Z from degree k to k-1 for each arrow
        sizes = [free.count(k) for k in range(top + 1)]
        entries = [{} for _ in range(top + 1)]
        for k, m in arrows:
            entries[k][(sizes[k - 1], sizes[k])] = m
            sizes[k - 1] += 1
            sizes[k] += 1
        op = st.tuples(st.sampled_from(["add", "swap", "negate"]),
                       st.integers(0, 63), st.integers(0, 63), st.integers(-2, 2))
        conj = [_unimodular_pair(n, data.draw(st.lists(op, max_size=3 * n))) for n in sizes]
        for P, Pinv in conj:
            assert mul(P, Pinv) == [[int(i == j) for j in range(len(P))] for i in range(len(P))]
        boundaries = [IntMatrix(0, sizes[0], {})]
        for k in range(1, top + 1):
            d = dense(IntMatrix(sizes[k - 1], sizes[k], entries[k]))
            if sizes[k - 1] and sizes[k]:
                d = mul(mul(conj[k - 1][0], d), conj[k][1])  # P_(k-1) d_k P_k^-1
            boundaries.append(from_dense(d) if d else IntMatrix(sizes[k - 1], sizes[k], {}))
        cx = ChainComplex(tuple(tuple(range(n)) for n in sizes), tuple(boundaries))
        groups = homology_of(cx)
        assert [g.free_rank for g in groups] == [free.count(k) for k in range(top + 1)]
        for k, g in enumerate(groups):
            assert _primary_parts(g.torsion) == _primary_parts(m for j, m in arrows if j == k + 1)

    @pytest.mark.slow
    def test_b5_groups(self):
        # recorded from a unit-pivot Gaussian reduction, an independent route
        cx = build_chain_complex(generate_weyl_group(cartan_matrix("B", 5)))
        groups = homology_of(cx)
        assert [g.free_rank for g in groups] == [1, 35, 395, 361, 0, 0]
        assert [len(g.torsion) for g in groups] == [0, 202, 1085, 236, 1, 0]
        assert all(d == 2 for g in groups for d in g.torsion)

    @pytest.mark.slow
    def test_a6_groups(self):
        # the A6 rung; the free ranks above degree 0 are also the conjectured Betti numbers
        cx = build_chain_complex(generate_weyl_group(cartan_matrix("A", 6)))
        groups = homology_of(cx)
        free = [g.free_rank for g in groups]
        assert free == [1, 21, 175, 427, 0, 0, 0]
        assert free[1:] == [conjectured_betti(6, k) for k in range(1, 7)]
        assert [len(g.torsion) for g in groups] == [0, 99, 917, 1072, 119, 1, 0]
        assert all(d == 2 for g in groups for d in g.torsion)

    @pytest.mark.slow
    def test_d5_groups(self):
        cx = build_chain_complex(generate_weyl_group(cartan_matrix("D", 5)))
        groups = homology_of(cx)
        assert [g.free_rank for g in groups] == [1, 20, 219, 200, 0, 0]
        assert [len(g.torsion) for g in groups] == [0, 137, 446, 156, 1, 0]
        assert all(d == 2 for g in groups for d in g.torsion)
