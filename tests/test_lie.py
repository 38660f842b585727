import math

import pytest

from todatopo import (
    CartanMatrix,
    ConfigError,
    GroupOrderCapError,
    InvalidCartanMatrixError,
    NotInSubgroupError,
    UnsupportedTypeError,
    cartan_matrix,
    generate_weyl_group,
    incidence,
    is_transversal,
)
from todatopo.lie import _RANK_RANGES, DEFAULT_MAX_ORDER, WeylGroup

from test_homology import LIE_TYPES, det


def dense(C):
    return [list(row) for row in C.entries]


# det C of each simple type: A_l l + 1, B_l and C_l 2, D_l 4, E_l 9 - l, F4 and G2 1.
DETERMINANT = {"A": lambda l: l + 1, "B": lambda l: 2, "C": lambda l: 2, "D": lambda l: 4,
               "E": lambda l: 9 - l, "F": lambda l: 1, "G": lambda l: 1}
SUPPORTED = [(t, l) for t, (lo, hi) in _RANK_RANGES.items() for l in range(lo, hi + 1)]


class TestCartanMatrix:
    def test_supported_table_size(self):
        assert len(SUPPORTED) == 65

    @pytest.mark.parametrize("letter,rank", SUPPORTED, ids=[f"{t}{l}" for t, l in SUPPORTED])
    def test_every_supported_type_has_its_determinant(self, letter, rank):
        # The constructor checks finite type; the determinant tells the type apart.
        C = cartan_matrix(letter, rank)
        assert (C.type_label, C.rank) == (letter, rank)
        assert det(dense(C)) == DETERMINANT[letter](rank)

    @pytest.mark.parametrize("entries,message", [
        ([], "empty matrix"), ([[2, -1], [-1]], "not square"), ([[2, -1], [-1, 3]], "diagonal"),
    ], ids=["empty", "not-square", "diagonal"])
    def test_malformed_entries_rejected(self, entries, message):
        with pytest.raises(InvalidCartanMatrixError, match=message):
            CartanMatrix.from_entries(entries)

    def test_declared_rank_must_match(self):
        with pytest.raises(InvalidCartanMatrixError, match="declared rank"):
            CartanMatrix("A", 3, ((2, -1), (-1, 2)))

    def test_a2(self):
        assert dense(cartan_matrix("A", 2)) == [[2, -1], [-1, 2]]

    def test_a1(self):
        assert dense(cartan_matrix("A", 1)) == [[2]]

    def test_str_is_type_and_rank(self):
        assert str(cartan_matrix("B", 3)) == "B3"

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
        # d_1 = 1 gives d_2 = 1/2 and d_3 = 1; the edge 2-3 then needs d_2 = d_3
        with pytest.raises(InvalidCartanMatrixError, match="not symmetrizable"):
            CartanMatrix.from_entries([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])


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
         ("D", 4, 192), ("D", 5, 1920), ("G", 2, 12), ("F", 4, 1152)],
    )
    def test_orders(self, label, rank, order):
        W = generate_weyl_group(cartan_matrix(label, rank))
        assert len(W) == order

    @pytest.mark.slow
    def test_e6_fills_default_cap(self, monkeypatch):
        monkeypatch.delenv("TODATOPO_MAX_WEYL_ORDER", raising=False)
        W = generate_weyl_group(cartan_matrix("E", 6))
        assert len(W) == 51840 == DEFAULT_MAX_ORDER
        assert W.longest_element.length == 36

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

    def test_cap_exceeded_names_cap(self, monkeypatch):
        monkeypatch.setenv("TODATOPO_MAX_WEYL_ORDER", "17")
        with pytest.raises(GroupOrderCapError, match="17"):
            generate_weyl_group(cartan_matrix("A", 3))

    @pytest.mark.parametrize("max_order", [0, -3])
    def test_cap_below_one_names_the_parameter(self, monkeypatch, max_order):
        monkeypatch.setenv("TODATOPO_MAX_WEYL_ORDER", str(max_order))
        with pytest.raises(ConfigError, match="TODATOPO_MAX_WEYL_ORDER must be at least 1"):
            generate_weyl_group(cartan_matrix("A", 1))

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("TODATOPO_MAX_WEYL_ORDER", "5")
        with pytest.raises(GroupOrderCapError):
            generate_weyl_group(cartan_matrix("A", 2))

    @pytest.mark.parametrize("value", ["abc", "1e5", "12.0", "0", "-3"])
    def test_env_cap_not_an_integer(self, monkeypatch, value):
        monkeypatch.setenv("TODATOPO_MAX_WEYL_ORDER", value)
        with pytest.raises(ConfigError, match="TODATOPO_MAX_WEYL_ORDER"):
            generate_weyl_group(cartan_matrix("A", 2))

    def test_env_cap_reaches_the_class(self, monkeypatch):
        monkeypatch.setenv("TODATOPO_MAX_WEYL_ORDER", "17")
        with pytest.raises(GroupOrderCapError, match="17"):
            WeylGroup(cartan_matrix("A", 3))
        monkeypatch.setenv("TODATOPO_MAX_WEYL_ORDER", "abc")
        with pytest.raises(ConfigError, match="TODATOPO_MAX_WEYL_ORDER"):
            WeylGroup(cartan_matrix("A", 3))

    def test_duplicate_free_and_closed(self, W_A3):
        model = RootModel(W_A3)
        perms = set(model.perm.values())
        assert len(perms) == len(W_A3)
        assert model.perm[W_A3.identity] == model.identity
        # Closed under the generators and holding the identity: the whole group.
        for w in W_A3:
            for i, g in model.gens.items():
                image = compose(model.perm[w], g)
                assert image in perms
                assert model.perm[W_A3.multiply(w, W_A3.simple_reflection(i))] == image


def reflect(C, beta, i):
    """Image of the root ``beta`` (simple-root coordinates) under s_(i+1)."""
    image = list(beta)
    image[i] -= sum(b * C[j][i] for j, b in enumerate(beta))
    return tuple(image)


def compose(p, q):
    return tuple(p[x] for x in q)


class RootModel:
    """W acting on its roots, built here from the Cartan matrix alone.

    The roots are the closure of the simple roots under the reflections;
    an element's permutation composes the generators along its word.  No
    part of it reads the group's table, descent masks or walks.
    """

    def __init__(self, W):
        C = W.cartan.entries
        l = W.rank
        roots = [tuple(int(j == i) for j in range(l)) for i in range(l)]
        where = {beta: n for n, beta in enumerate(roots)}
        for beta in roots:  # grows while walked
            for i in range(l):
                image = reflect(C, beta, i)
                if image not in where:
                    where[image] = len(roots)
                    roots.append(image)
        self.positive = [all(c >= 0 for c in beta) for beta in roots]
        self.gens = {i + 1: tuple(where[reflect(C, beta, i)] for beta in roots) for i in range(l)}
        self.identity = tuple(range(len(roots)))
        self.perm = {}
        for w in W:
            p = self.identity
            for i in w.word:
                p = compose(p, self.gens[i])
            self.perm[w] = p
        self.by_perm = {p: w for w, p in self.perm.items()}

    def inversions(self, w):
        p = self.perm[w]
        return sum(1 for r, image in enumerate(p) if self.positive[r] and not self.positive[image])


class TestTableAgainstRootAction:
    """The table walks against composing, inverting and reading root permutations."""

    GROUPS = ["W_A3", "W_B3", "W_G2", "W_D4"]

    @pytest.mark.parametrize("fix", GROUPS)
    def test_multiply_and_inverse(self, fix, request):
        W = request.getfixturevalue(fix)
        model = RootModel(W)
        assert len(model.by_perm) == len(W)
        for i in range(1, W.rank + 1):
            assert model.perm[W.simple_reflection(i)] == model.gens[i]
        for u in W:
            pu = model.perm[u]
            inv = [0] * len(pu)
            for r, image in enumerate(pu):
                inv[image] = r
            assert W.inverse(u) is model.by_perm[tuple(inv)]
            for v in W:
                assert W.multiply(u, v) is model.by_perm[compose(pu, model.perm[v])]

    @pytest.mark.parametrize("fix", GROUPS)
    def test_descents(self, fix, request):
        W = request.getfixturevalue(fix)
        model = RootModel(W)
        for w in W:
            for i in range(1, W.rank + 1):
                negative = not model.positive[model.perm[w][i - 1]]
                assert W.sends_simple_root_negative(w, i) == negative
                shorter = W.multiply(w, W.simple_reflection(i)).length < w.length
                assert shorter == negative

    @pytest.mark.parametrize("fix", GROUPS)
    def test_min_coset_rep(self, fix, request):
        import itertools

        W = request.getfixturevalue(fix)
        model = RootModel(W)
        for r in range(W.rank + 1):
            for S in itertools.combinations(range(1, W.rank + 1), r):
                sub = {model.identity}
                frontier = list(sub)
                while frontier:
                    frontier = {compose(p, model.gens[i]) for p in frontier for i in S} - sub
                    sub |= frontier
                assert {model.perm[w] for w in W.parabolic_elements(S)} == sub
                reps = set()
                for w in W:
                    coset = [model.by_perm[compose(model.perm[w], x)] for x in sub]
                    rep = min(coset, key=model.inversions)
                    assert W.min_coset_rep(w, S) is rep
                    reps.add(rep)
                assert W.coset_min_reps(S) == tuple(sorted(reps, key=lambda w: w.position))


class TestLengthsAndWords:
    def test_identity_and_simple(self, W_A2):
        assert W_A2.identity.length == 0
        assert W_A2.simple_reflection(1).length == 1

    @pytest.mark.parametrize("fix", ["W_B3", "W_G2"])
    def test_element_inverse_is_the_groups(self, fix, request):
        W = request.getfixturevalue(fix)
        for w in W:
            assert w.inverse() == W.inverse(w)
            assert w * w.inverse() == W.identity

    def test_element_repr_is_its_word(self, W_B3):
        assert repr(W_B3.from_word((1, 2))) == "WeylElement(1-2)"

    def test_longest_a2(self, W_A2):
        assert W_A2.longest_element.length == 3
        assert W_A2.longest_element.length == max(w.length for w in W_A2)

    @pytest.mark.parametrize("fix", ["W_A3", "W_B2", "W_G2"])
    def test_length_equals_inversions(self, fix, request):
        W = request.getfixturevalue(fix)
        model = RootModel(W)
        for w in W:
            assert w.length == model.inversions(w)
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
            assert W_A2.min_coset_rep(W_A2.identity, S) is W_A2.identity

    def test_generator_in_own_parabolic(self, W_A2):
        s1 = W_A2.simple_reflection(1)
        assert W_A2.min_coset_rep(s1, (1,)) is W_A2.identity

    def test_a2_example(self, W_A2):
        w = W_A2.from_word([1, 2])
        assert W_A2.min_coset_rep(w, (2,)) is W_A2.simple_reflection(1)

    def test_rep_is_strict_minimum_by_enumeration(self, W_A3):
        for S in [(1,), (2,), (1, 3), (1, 2)]:
            sub = W_A3.parabolic_elements(S)
            for w in W_A3:
                coset = [W_A3.multiply(w, x) for x in sub]
                rep = W_A3.min_coset_rep(w, S)
                assert rep in coset
                others = [u.length for u in coset if u is not rep]
                assert all(rep.length < n for n in others)
                # idempotent, same coset
                assert W_A3.min_coset_rep(rep, S) is rep

    def test_parabolic_orders_divide(self, W_B3):
        import itertools

        order = len(W_B3)
        for r in range(4):
            for S in itertools.combinations((1, 2, 3), r):
                assert order % W_B3.parabolic_order(S) == 0
        assert W_B3.parabolic_order(()) == 1
        assert W_B3.parabolic_order((1, 2, 3)) == order


class TestSearchOrder:
    """The breadth-first search lists the elements in (length, word) order."""

    @pytest.mark.parametrize("letter,rank", LIE_TYPES + [
        pytest.param(t, r, marks=pytest.mark.slow) for t, r in [("A", 6), ("D", 6), ("E", 6)]
    ])
    def test_positions_follow_length_and_smallest_word(self, monkeypatch, letter, rank):
        monkeypatch.setenv("TODATOPO_MAX_WEYL_ORDER", "51840")
        W = WeylGroup(cartan_matrix(letter, rank))
        keys = [(w.length, w.word) for w in W]
        assert all(p < q for p, q in zip(keys, keys[1:]))
        assert [w.position for w in W] == list(range(len(W)))
        for w in W[1:]:
            down = [i for i in range(1, rank + 1) if W.sends_simple_root_negative(w, i)]
            assert w.word == min(W.multiply(w, W.simple_reflection(i)).word + (i,) for i in down)


def test_element_of_another_group_rejected(W_A2, W_B2):
    a, b = W_A2[1], W_B2[5]
    calls = [
        lambda: W_A2.multiply(a, b),
        lambda: W_A2.multiply(b, a),
        lambda: a * W_B2[3],
        lambda: W_A2.inverse(b),
        lambda: W_A2.min_coset_rep(b, [1]),
        lambda: W_A2.sends_simple_root_negative(W_B2[7], 1),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match="elements from different groups"):
            call()


@pytest.mark.parametrize("other", [3, "x", None])
@pytest.mark.parametrize("call", [
    lambda W, x: W.multiply(W[1], x),
    lambda W, x: W.inverse(x),
    lambda W, x: W.min_coset_rep(x, [1]),
    lambda W, x: W.sends_simple_root_negative(x, 1),
    lambda W, x: is_transversal(W[1], x),
    lambda W, x: incidence(W[1], x),
], ids=["multiply", "inverse", "min_coset_rep", "sends_simple_root_negative", "is_transversal",
        "incidence"])
def test_non_element_rejected(W_A2, call, other):
    with pytest.raises(ConfigError, match="not Weyl elements"):
        call(W_A2, other)


class TestSimpleRootIndices:
    """Every public method rejects an index outside 1..rank with NotInSubgroupError."""

    CALLS = {
        "simple_reflection": lambda W, w, i: W.simple_reflection(i),
        "from_word": lambda W, w, i: W.from_word((1, i)),
        "sends_simple_root_negative": lambda W, w, i: W.sends_simple_root_negative(w, i),
        "parabolic_elements": lambda W, w, i: W.parabolic_elements((1, i)),
        "parabolic_order": lambda W, w, i: W.parabolic_order((i,)),
        "min_coset_rep": lambda W, w, i: W.min_coset_rep(w, (i,)),
        "coset_min_reps": lambda W, w, i: W.coset_min_reps((i,)),
        # A two-letter set, through the element's own group.
        "module min_coset_rep": lambda W, w, i: w.group.min_coset_rep(w, (1, i)),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("index", [0, -1, 4, 1.5])
    def test_out_of_range_rejected(self, W_A3, call, index):
        with pytest.raises(NotInSubgroupError, match=f"simple-root index {index} out of range 1..3"):
            self.CALLS[call](W_A3, W_A3.longest_element, index)

    def test_integral_values_accepted(self, W_A3):
        assert W_A3.simple_reflection(2.0) is W_A3.from_word([2])
