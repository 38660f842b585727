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

from dense_reference import composes_to_zero, dense, from_dense, mul, triplets


def dense_matrices(rows, cols):
    return st.lists(
        st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def dense_pairs(draw):
    m, n, p = (draw(st.integers(0, 5)) for _ in range(3))
    return m, n, p, draw(dense_matrices(m, n)), draw(dense_matrices(n, p))


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
        assert composes_to_zero(cx.boundary(1), cx.boundary(2))

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
    def test_apply_matches_dense_product(self, pair):
        # apply, one column of B at a time, against the reference's dense product A B.
        m, n, p, A, B = pair
        a = from_dense(A) if m else IntMatrix(0, n)
        product = mul(A, B) if n else [[0] * p for _ in range(m)]
        got = [{i: v for i, v in a.apply(col).items() if v}
               for col in (from_dense(B).columns if n else ({},) * p)]
        assert got == [{i: row[j] for i, row in enumerate(product) if row[j]} for j in range(p)]

    @given(dense_matrices(4, 3))
    def test_entries_view_round_trips(self, rows):
        mat = IntMatrix(4, 3, {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v})
        assert dense(mat) == rows
        assert IntMatrix(4, 3, {(r, c): v for r, c, v in triplets(mat)}) == mat
        assert mat.nnz == sum(bool(v) for row in rows for v in row)

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
        rows = [[b, np.int64(1)], [np.int64(1), b]]
        entries = {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)}
        assert invariant_factors(IntMatrix(2, 2, entries)) == (1, 3**78 - 1)
