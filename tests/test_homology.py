import pytest
from hypothesis import given, settings, strategies as st

from todatopo import (
    CartanMatrix,
    CorruptComplexError,
    HomologyGroup,
    IntMatrix,
    build_chain_complex,
    cartan_matrix,
    generate_weyl_group,
    homology_of,
    invariant_factors,
    matrix_rank,
    smith_normal_form,
)
from todatopo.cells import ChainComplex


def mat(rows):
    return [list(r) for r in rows]


def mul(A, B):
    if not A or not B:
        return []
    n, m, p = len(A), len(B), len(B[0])
    return [[sum(A[i][k] * B[k][j] for k in range(m)) for j in range(p)] for i in range(n)]


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


class TestSmith:
    def test_diag_2_3(self):
        snf = smith_normal_form([[2, 0], [0, 3]])
        assert snf.diagonal == (1, 6)

    def test_zero_matrix(self):
        snf = smith_normal_form([[0, 0], [0, 0]])
        assert snf.diagonal == (0, 0)

    def test_identity(self):
        snf = smith_normal_form([[1, 0], [0, 1]])
        assert snf.diagonal == (1, 1)

    def test_empty(self):
        snf = smith_normal_form([])
        assert snf.diagonal == ()

    @pytest.mark.parametrize(
        "M",
        [
            [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
            [[1, 2], [3, 4]],
            [[6, 10], [15, 25]],
            [[0, 1], [-1, 0]],
            [[2, 0], [0, 4]],  # two gcd rounds: factors 2, 4
            [[2, 4], [4, 2]],  # the 2-pivot leaves -6: factors 2, 6
            [[2, 3], [3, 2]],  # no entry equals the gcd 1: dense residue, factors 1, 5
        ],
    )
    def test_decomposition_exact(self, M):
        snf = smith_normal_form(M)
        assert snf.reconstruct() == mat(M)
        assert det(snf.U) in (1, -1)
        assert det(snf.V) in (1, -1)
        d = [x for x in snf.diagonal if x]
        for a, b in zip(d, d[1:]):
            assert b % a == 0
        assert invariant_factors(IntMatrix.from_dense(M)) == tuple(abs(x) for x in d)

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
        snf = smith_normal_form(M)
        assert snf.reconstruct() == M
        assert det(snf.U) in (1, -1)
        assert det(snf.V) in (1, -1)
        d = [abs(x) for x in snf.diagonal if x]
        for a, b in zip(d, d[1:]):
            assert b % a == 0
        # fast path agrees with the tracked path
        assert tuple(d) == invariant_factors(IntMatrix.from_dense(M))

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
        assert smith_normal_form(M).diagonal == smith_normal_form(P).diagonal


class TestHomology:
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

    def test_matrix_rank(self):
        assert matrix_rank(IntMatrix.from_dense([[2, 0], [0, 0]])) == 1
        assert matrix_rank(IntMatrix(3, 3, {})) == 0
