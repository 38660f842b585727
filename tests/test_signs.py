from itertools import product

import pytest
from hypothesis import given, strategies as st

from todatopo import (
    apply_simple_reflection,
    apply_weyl,
    cartan_matrix,
    generate_weyl_group,
    parse_sign_string,
    sign_string,
)
from todatopo.errors import ConfigError


def all_signs(l):
    return list(product((1, -1), repeat=l))


def transcribed_action(w, eps, C):
    """eps'_j = eps_j * eps_i ** (C_{j,i} mod 2) for each letter s_i, rightmost first."""
    for i in reversed(w.word):
        eps = tuple(e * eps[i - 1] ** (C.entry(j, i) % 2) for j, e in enumerate(eps, start=1))
    return eps


class TestStrings:
    def test_roundtrip(self):
        assert parse_sign_string("+-") == (1, -1)
        assert sign_string((1, -1)) == "+-"

    def test_bad_character(self):
        with pytest.raises(ConfigError):
            parse_sign_string("+x")


class TestSimpleReflection:
    def test_sign_vector_of_wrong_length_rejected(self):
        with pytest.raises(ConfigError, match="length 3, expected 2"):
            apply_simple_reflection(1, (1, 1, 1), cartan_matrix("A", 2))

    def test_a2_known_color_changes(self):
        C = cartan_matrix("A", 2)
        assert apply_simple_reflection(1, (-1, 1), C) == (-1, -1)
        assert apply_simple_reflection(1, (1, -1), C) == (1, -1)

    @pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
    def test_all_plus_fixed(self, label, rank):
        C = cartan_matrix(label, rank)
        plus = (1,) * rank
        for i in range(1, rank + 1):
            assert apply_simple_reflection(i, plus, C) == plus

    @pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3), ("B", 3)])
    def test_involution(self, label, rank):
        C = cartan_matrix(label, rank)
        for eps in all_signs(rank):
            for i in range(1, rank + 1):
                once = apply_simple_reflection(i, eps, C)
                assert apply_simple_reflection(i, once, C) == eps

    def test_b2_long_root_acts_trivially(self):
        # C entry (1,2) is even, so s_2 fixes every sign vector.
        C = cartan_matrix("B", 2)
        for eps in all_signs(2):
            assert apply_simple_reflection(2, eps, C) == eps


class TestWeylAction:
    def test_identity(self, W_A2):
        for eps in all_signs(2):
            assert apply_weyl(W_A2.identity, eps) == eps

    def test_single_letter(self, W_A2):
        assert apply_weyl(W_A2.simple_reflection(1), (-1, 1)) == (-1, -1)

    def test_braid_words_agree(self, W_A2):
        u = W_A2.from_word([1, 2, 1])
        v = W_A2.from_word([2, 1, 2])
        assert u is v
        for eps in all_signs(2):
            assert apply_weyl(u, eps) == apply_weyl(v, eps)

    @pytest.mark.parametrize("fix", ["W_A2", "W_B2", "W_G2", "W_A3", "W_B3"])
    def test_group_law(self, fix, request):
        W = request.getfixturevalue(fix)
        signs = all_signs(W.rank)
        for u in W:
            for v in W:
                uv = W.multiply(u, v)
                for eps in signs:
                    assert apply_weyl(uv, eps) == apply_weyl(u, apply_weyl(v, eps))

    @pytest.mark.parametrize("fix", ["W_A3", "W_B3", "W_G2"])
    def test_matches_transcription(self, fix, request):
        W = request.getfixturevalue(fix)
        for w in W:
            for eps in all_signs(W.rank):
                assert apply_weyl(w, eps) == transcribed_action(w, eps, W.cartan)

    def test_element_acts_through_its_own_cartan_matrix(self, W_A2, W_B2):
        # Entry (1, 2) is odd in A2 and even in B2, so only A2's s_2 moves (1, -1).
        assert apply_weyl(W_A2.simple_reflection(2), (1, -1)) == (-1, -1)
        assert apply_weyl(W_B2.simple_reflection(2), (1, -1)) == (1, -1)

    @given(st.integers(min_value=1, max_value=3), st.data())
    def test_all_plus_fixed_by_every_element(self, rank, data):
        W = generate_weyl_group(cartan_matrix("A", rank))
        idx = data.draw(st.integers(min_value=0, max_value=len(W) - 1))
        plus = (1,) * rank
        assert apply_weyl(W[idx], plus) == plus
