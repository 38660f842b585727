import numpy as np
import pytest
from hypothesis import given, strategies as st

from todatopo import (
    CorruptComplexError,
    IntMatrix,
    build_chain_complex,
    invariant_factors,
    morse_complex,
)
from todatopo.cells import ChainComplex


def dense_matrices(rows, cols):
    return st.lists(
        st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def dense_pairs(draw):
    m, n, p = (draw(st.integers(0, 5)) for _ in range(3))
    return m, n, p, draw(dense_matrices(m, n)), draw(dense_matrices(n, p))


def dense_product(m, n, p, A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(p)] for i in range(m)]


def square_complex(flip=False):
    """A square: each vertex is reached from the face along two edges, and d1 d2 = 0
    only because the two paths cancel.  ``flip`` negates one entry of d2."""
    d1 = IntMatrix.from_columns(4, [{0: -1, 1: 1}, {1: -1, 2: 1}, {3: -1, 2: 1}, {0: -1, 3: 1}])
    d2 = IntMatrix.from_columns(4, [{0: 1, 1: 1, 2: -1, 3: -1 if not flip else 1}])
    bases = (tuple("pqrs"), tuple("abcd"), ("F",))
    return ChainComplex(bases, (IntMatrix(0, 4), d1, d2))


class TestSquareZero:
    def test_cancelling_paths_pass(self):
        cx = square_complex()
        assert cx.boundary(1).matmul(cx.boundary(2)).is_zero()

    def test_one_flipped_entry_fails(self):
        with pytest.raises(CorruptComplexError, match="degree 2"):
            square_complex(flip=True)

    def test_every_adjacent_pair_checked(self):
        # d1 = 0, so d1 d2 = 0; only the top pair, d2 d3, is nonzero
        d1 = IntMatrix(1, 2)
        d2 = IntMatrix.from_columns(2, [{0: 1}])
        d3 = IntMatrix.from_columns(1, [{0: 1}])
        with pytest.raises(CorruptComplexError, match="degree 3"):
            ChainComplex(((0,), (0, 1), (0,), (0,)), (IntMatrix(0, 1), d1, d2, d3))

    def test_two_same_sign_paths_fail(self):
        # Every entry is +-1, and d1 d2 = 2 at the one vertex: no -1 term meets the two +1s.
        d1 = IntMatrix.from_columns(1, [{0: 1}, {0: -1}])
        d2 = IntMatrix.from_columns(2, [{0: 1, 1: -1}])
        with pytest.raises(CorruptComplexError, match="degree 2"):
            ChainComplex(((0,), (0, 1), (0,)), (IntMatrix(0, 1), d1, d2))

    @pytest.mark.parametrize("d1,d2", [
        ([{0: 2}, {0: 1}, {0: 1}], [{0: 1, 1: -1, 2: -1}]),
        ([{0: 1}, {0: 1}, {0: 1}], [{0: 2, 1: -1, 2: -1}]),
    ], ids=["lower", "upper"])
    def test_non_unit_entries_cancel_as_a_sum(self, d1, d2):
        # d1 d2 = 2 - 1 - 1: no single term cancels another, only the sum vanishes.
        ChainComplex(((0,), (0, 1, 2), (0,)),
                     (IntMatrix(0, 1), IntMatrix.from_columns(1, d1), IntMatrix.from_columns(3, d2)))

    def test_unit_degree_over_non_unit_lower_is_summed(self):
        # d2 is +-1 but d1 is not, so the degree is summed: 1 + 2 = 3.  Matched as two
        # signs (+1 when equal, -1 when not), its terms would seem to cancel.
        d1 = IntMatrix.from_columns(1, [{0: 1}, {0: 2}])
        d2 = IntMatrix.from_columns(2, [{0: 1, 1: 1}])
        with pytest.raises(CorruptComplexError, match="degree 2"):
            ChainComplex(((0,), (0, 1), (0,)), (IntMatrix(0, 1), d1, d2))

    def test_only_non_unit_degrees_are_summed(self, W_A3, monkeypatch):
        applied = []
        original = IntMatrix.apply
        monkeypatch.setattr(IntMatrix, "apply", lambda m, col: applied.append(m) or original(m, col))
        build_chain_complex(W_A3)
        assert applied == []
        cx = morse_complex(W_A3)  # entries +-2: every degree is summed, and it validates
        assert {id(m) for m in applied} == {id(cx.boundary(1)), id(cx.boundary(2))}

    @pytest.mark.parametrize("bases,boundaries,message", [
        (((0,), (0,)), (IntMatrix(0, 1),), "disagree in length"),
        (((0,), (0, 1)), (IntMatrix(0, 1), IntMatrix(1, 3)), "boundary 1 has wrong column count"),
        (((0,), (0, 1)), (IntMatrix(0, 1), IntMatrix(2, 2)), "boundary 1 has wrong row count"),
        (((0,),), (IntMatrix(1, 1),), "boundary 0 has wrong row count"),
    ], ids=["length", "columns", "rows", "rows-degree-0"])
    def test_shapes_checked(self, bases, boundaries, message):
        with pytest.raises(CorruptComplexError, match=message):
            ChainComplex(bases, boundaries)

    def test_validated_once_per_complex(self, W_A3, monkeypatch):
        calls = []
        original = ChainComplex.validate
        monkeypatch.setattr(ChainComplex, "validate", lambda cx: calls.append(original(cx)))
        build_chain_complex(W_A3)
        assert len(calls) == 1


class TestIntMatrix:
    @given(dense_pairs())
    def test_matmul_matches_dense_product(self, pair):
        m, n, p, A, B = pair
        a = IntMatrix.from_dense(A) if m else IntMatrix(0, n)
        b = IntMatrix.from_dense(B) if n else IntMatrix(0, p)
        assert a.matmul(b).to_dense() == dense_product(m, n, p, A, B)

    @given(dense_matrices(4, 3))
    def test_entries_view_round_trips(self, dense):
        mat = IntMatrix.from_dense(dense)
        entries = {(r, c): v for c, col in enumerate(mat.columns) for r, v in col.items()}
        assert IntMatrix(mat.rows, mat.cols, entries) == mat
        assert mat.nnz == len(entries) == sum(bool(v) for row in dense for v in row)
        assert mat.triplets() == sorted((r, c, v) for (r, c), v in entries.items())

    @pytest.mark.parametrize("column", [{2: 1}, {-1: 1}, {0: 1, 5: -1}])
    def test_columns_reject_out_of_range_rows(self, column):
        with pytest.raises(ValueError, match="outside"):
            IntMatrix.from_columns(2, [{}, column])

    def test_columns_reject_zero_values(self):
        with pytest.raises(ValueError, match="nonzero"):
            IntMatrix.from_columns(2, [{0: 1}, {1: 0}])

    @pytest.mark.parametrize("entries", [{(2, 0): 1}, {(0, 3): 1}, {(0, 0): 0}])
    def test_entries_constructor_validates(self, entries):
        with pytest.raises(ValueError):
            IntMatrix(2, 3, entries)

    def test_mapping_form_stores_python_ints(self):
        mat = IntMatrix(2, 1, {(np.int64(1), np.int64(0)): np.int64(-4)})
        assert mat.columns == ({1: -4},)
        assert [type(x) for x in (*mat.columns[0], *mat.columns[0].values())] == [int, int]

    def test_int64_entries_stay_exact(self):
        # b**2 - 1 overflows int64 for b = 3**39; read as Python ints it does not.
        b = np.int64(3**39)
        dense = [[b, np.int64(1)], [np.int64(1), b]]
        entries = {(r, c): v for r, row in enumerate(dense) for c, v in enumerate(row)}
        assert invariant_factors(IntMatrix(2, 2, entries)) == (1, 3**78 - 1)
        assert invariant_factors(IntMatrix.from_dense(dense)) == (1, 3**78 - 1)
