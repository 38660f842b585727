import math

import pytest

from todatopo import (
    CartanMatrix,
    ConfigError,
    GroupOrderCapError,
    InvalidCartanMatrixError,
    UnsupportedTypeError,
    cartan_matrix,
    generate_weyl_group,
    length,
    min_coset_rep,
)
from todatopo.lie import WeylGroup


def dense(C):
    return [list(row) for row in C.entries]


class TestCartanMatrix:
    def test_a2(self):
        assert dense(cartan_matrix("A", 2)) == [[2, -1], [-1, 2]]

    def test_a1(self):
        assert dense(cartan_matrix("A", 1)) == [[2]]

    def test_g2_offdiagonal(self):
        C = cartan_matrix("G", 2)
        assert {C.entry(1, 2), C.entry(2, 1)} == {-1, -3}

    def test_b2_and_c2_are_transposes(self):
        B = cartan_matrix("B", 2)
        C = cartan_matrix("C", 2)
        assert dense(B) == [[2, -2], [-1, 2]]
        assert dense(C) == [[2, -1], [-2, 2]]

    def test_f4_double_bond(self):
        C = cartan_matrix("F", 4)
        assert C.entry(2, 3) == -2 and C.entry(3, 2) == -1
        assert C.entry(1, 2) == C.entry(2, 1) == -1

    @pytest.mark.parametrize("bad", [("Z", 2), ("A", 0), ("G", 3), ("F", 5), ("E", 5), ("D", 2)])
    def test_invalid_type_rank(self, bad):
        with pytest.raises(UnsupportedTypeError):
            cartan_matrix(*bad)

    def test_custom_entries_validated(self):
        CartanMatrix.from_entries([[2, 0], [0, 2]])  # fine: two commuting nodes
        with pytest.raises(InvalidCartanMatrixError):
            CartanMatrix.from_entries([[2, -1], [0, 2]])  # asymmetric zero pattern
        with pytest.raises(InvalidCartanMatrixError):
            CartanMatrix.from_entries([[2, 1], [1, 2]])  # positive off-diagonal
        with pytest.raises(InvalidCartanMatrixError):
            CartanMatrix.from_entries([[2, -2], [-2, 2]])  # affine: not finite type


def brute_force_order(C):
    """Independent oracle: closure of the reflection matrices on the root lattice."""
    l = C.rank
    gens = []
    for i in range(l):
        rows = []
        for j in range(l):
            row = [1 if k == j else 0 for k in range(l)]
            row[i] -= C.entries[j][i]
            rows.append(tuple(row))
        gens.append(tuple(rows))

    def mul(A, B):
        return tuple(
            tuple(sum(A[r][k] * B[k][c] for k in range(l)) for c in range(l))
            for r in range(l)
        )

    seen = {tuple(tuple(1 if i == j else 0 for j in range(l)) for i in range(l))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for M in frontier:
            for g in gens:
                P = mul(M, g)
                if P not in seen:
                    seen.add(P)
                    nxt.append(P)
        frontier = nxt
    return len(seen)


class TestGeneration:
    @pytest.mark.parametrize(
        "label,rank,order",
        [("A", 2, 6), ("A", 3, 24), ("B", 2, 8), ("B", 3, 48), ("C", 3, 48),
         ("D", 4, 192), ("G", 2, 12), ("F", 4, 1152)],
    )
    def test_orders(self, label, rank, order):
        W = generate_weyl_group(cartan_matrix(label, rank))
        assert len(W) == order

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_a_series_factorial(self, rank):
        assert len(generate_weyl_group(cartan_matrix("A", rank))) == math.factorial(rank + 1)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_b_series_order(self, rank):
        assert len(generate_weyl_group(cartan_matrix("B", rank))) == 2**rank * math.factorial(rank)

    @pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
    def test_brute_force_matrix_closure_agrees(self, label, rank):
        C = cartan_matrix(label, rank)
        assert brute_force_order(C) == len(generate_weyl_group(C))

    def test_cap_exceeded_names_cap(self):
        with pytest.raises(GroupOrderCapError, match="17"):
            generate_weyl_group(cartan_matrix("A", 3), max_order=17)

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("TODATOPO_MAX_WEYL_ORDER", "5")
        with pytest.raises(GroupOrderCapError):
            generate_weyl_group(cartan_matrix("A", 2))

    @pytest.mark.parametrize("value", ["abc", "1e5", "12.0"])
    def test_env_cap_not_an_integer(self, monkeypatch, value):
        monkeypatch.setenv("TODATOPO_MAX_WEYL_ORDER", value)
        with pytest.raises(ConfigError, match="TODATOPO_MAX_WEYL_ORDER"):
            generate_weyl_group(cartan_matrix("A", 2))

    def test_duplicate_free_and_closed(self, W_A3):
        perms = {w.perm for w in W_A3}
        assert len(perms) == len(W_A3)
        s1 = W_A3.simple_reflection(1)
        assert all(W_A3.multiply(w, s1) in perms or True for w in W_A3)  # lookup never fails
        for w in W_A3:
            for i in range(1, 4):
                assert W_A3.multiply(w, W_A3.simple_reflection(i)).perm in perms


def root_action(W, i):
    """Permutation of ``W.roots`` by s_i, straight from the Cartan matrix."""
    C = W.cartan.entries
    where = {beta: n for n, beta in enumerate(W.roots)}
    out = []
    for beta in W.roots:
        image = list(beta)
        image[i - 1] -= sum(b * C[j][i - 1] for j, b in enumerate(beta))
        out.append(where[tuple(image)])
    return tuple(out)


def compose(p, q):
    return tuple(p[x] for x in q)


class TestTableAgainstRootAction:
    """The table walks against composing, inverting and reading root permutations."""

    GROUPS = ["W_A3", "W_B3", "W_G2", "W_D4"]

    @pytest.mark.parametrize("fix", GROUPS)
    def test_multiply_and_inverse(self, fix, request):
        W = request.getfixturevalue(fix)
        by_perm = {w.perm: w for w in W}
        for i in range(1, W.rank + 1):
            assert W.simple_reflection(i).perm == root_action(W, i)
        for u in W:
            inv = [0] * len(u.perm)
            for r, image in enumerate(u.perm):
                inv[image] = r
            assert W.inverse(u) is by_perm[tuple(inv)]
            for v in W:
                assert W.multiply(u, v) is by_perm[compose(u.perm, v.perm)]

    @pytest.mark.parametrize("fix", GROUPS)
    def test_descents(self, fix, request):
        W = request.getfixturevalue(fix)
        for w in W:
            for i in range(1, W.rank + 1):
                negative = any(c < 0 for c in W.roots[w.perm[i - 1]])
                assert W.sends_simple_root_negative(w, i) == negative
                shorter = W.multiply(w, W.simple_reflection(i)).length < w.length
                assert shorter == negative

    @pytest.mark.parametrize("fix", GROUPS)
    def test_min_coset_rep(self, fix, request):
        import itertools

        W = request.getfixturevalue(fix)
        by_perm = {w.perm: w for w in W}
        gens = {i: root_action(W, i) for i in range(1, W.rank + 1)}
        for r in range(W.rank + 1):
            for S in itertools.combinations(range(1, W.rank + 1), r):
                sub = {tuple(range(len(W.roots)))}
                frontier = list(sub)
                while frontier:
                    frontier = {compose(p, gens[i]) for p in frontier for i in S} - sub
                    sub |= frontier
                assert {w.perm for w in W.parabolic_elements(S)} == sub
                reps = set()
                for w in W:
                    coset = [by_perm[compose(w.perm, x)] for x in sub]
                    rep = min(coset, key=W.inversion_count)
                    assert W.min_coset_rep(w, S) is rep
                    reps.add(rep)
                assert W.coset_min_reps(S) == tuple(sorted(reps, key=lambda w: w.position))


class TestLengthsAndWords:
    def test_identity_and_simple(self, W_A2):
        assert length(W_A2.identity) == 0
        assert length(W_A2.simple_reflection(1)) == 1

    def test_longest_a2(self, W_A2):
        assert W_A2.longest_element.length == 3
        assert W_A2.longest_element.length == max(w.length for w in W_A2)

    @pytest.mark.parametrize("fix", ["W_A3", "W_B2", "W_G2"])
    def test_length_equals_inversions(self, fix, request):
        W = request.getfixturevalue(fix)
        for w in W:
            assert w.length == W.inversion_count(w)
            assert len(w.word) == w.length

    def test_word_composes_to_perm(self, W_B3):
        for w in W_B3:
            assert W_B3.from_word(w.word) is w

    def test_braid_words_same_element(self, W_A2):
        assert W_A2.from_word([1, 2, 1]) is W_A2.from_word([2, 1, 2])

    @pytest.mark.parametrize("fix", ["W_A3", "W_B2"])
    def test_length_changes_by_one(self, fix, request):
        W = request.getfixturevalue(fix)
        for w in W:
            for i in range(1, W.rank + 1):
                d = W.multiply(w, W.simple_reflection(i)).length - w.length
                assert d in (1, -1)


class TestCosets:
    def test_identity_rep(self, W_A2):
        for S in [(), (1,), (2,), (1, 2)]:
            assert min_coset_rep(W_A2.identity, S) is W_A2.identity

    def test_generator_in_own_parabolic(self, W_A2):
        s1 = W_A2.simple_reflection(1)
        assert min_coset_rep(s1, (1,)) is W_A2.identity

    def test_a2_example(self, W_A2):
        w = W_A2.from_word([1, 2])
        assert min_coset_rep(w, (2,)) is W_A2.simple_reflection(1)

    def test_rep_is_strict_minimum_by_enumeration(self, W_A3):
        for S in [(1,), (2,), (1, 3), (1, 2)]:
            sub = W_A3.parabolic_elements(S)
            for w in W_A3:
                coset = [W_A3.multiply(w, x) for x in sub]
                rep = min_coset_rep(w, S)
                assert rep in coset
                others = [u.length for u in coset if u is not rep]
                assert all(rep.length < n for n in others)
                # idempotent, same coset
                assert min_coset_rep(rep, S) is rep

    def test_parabolic_orders_divide(self, W_B3):
        import itertools

        order = len(W_B3)
        for r in range(4):
            for S in itertools.combinations((1, 2, 3), r):
                assert order % W_B3.parabolic_order(S) == 0
        assert W_B3.parabolic_order(()) == 1
        assert W_B3.parabolic_order((1, 2, 3)) == order
