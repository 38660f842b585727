from itertools import combinations, product

import pytest

from todatopo import (
    CartanMatrix,
    Cell,
    ChainComplex,
    ColoredDynkinDiagram,
    CorruptComplexError,
    IntMatrix,
    NotInSubgroupError,
    build_chain_complex,
    cartan_matrix,
    diagram_boundary,
    enumerate_cells,
    generate_weyl_group,
    ws_act_on_diagram,
    ws_act_oriented,
)
from todatopo.cells import _row_tables, cell_count_formula
from todatopo.errors import ConfigError
from todatopo.signs import _act, _odd_columns

from dense_reference import composes_to_zero, dense
from test_homology import LIE_TYPES, relabelled


def colors(D):
    """(vertex, sign) pairs of a diagram, sorted by vertex."""
    return tuple((v, D.eta(v)) for v in D.colored_vertices)


def reference_assembly(W, bases, push=_act):
    """Boundary columns and matchings of degrees 1..rank by the tuple-indexed assembly.

    Each degree builds a row index of the degree below, keyed by (S, red, position), and
    each face of each j walks its own coset and pushes its residual letters with ``push``
    (``signs._act`` by default): the assembly that ``build_chain_complex`` ran before it
    found rows by arithmetic on the basis order and pushed both faces along one walk.
    """
    odd = _odd_columns(W.cartan)
    l = W.rank
    full = (1 << l) - 1
    columns, matchings = [], []
    for k in range(1, l + 1):
        row_of = {(cell.diagram.mask, cell.diagram.red, cell.rep.position): i
                  for i, cell in enumerate(bases[k - 1])}
        degree, buckets = [], {}
        for i, cell in enumerate(bases[k]):
            D, w = cell.diagram, cell.rep.position
            dw = W._descents[w]
            free = (full ^ D.mask) & ~dw
            A = (D.mask ^ D.red) | free
            down = A & -A & free
            column = {}
            for j in range(1, len(D.uncolored) + 1):
                for c in (1, 2):
                    sgn, face = diagram_boundary(D, j, c)
                    S, red = face.mask, face.red
                    if dw & S:
                        rep, letters = W._coset_walk(w, S)
                        osgn, red = push(letters, S, red, odd)
                        column[row_of[(S, red, rep)]] = sgn * osgn
                    else:
                        r = row_of[(S, red, w)]
                        column[r] = sgn
                        if c == 2 and S ^ D.mask == down:
                            buckets.setdefault(down - (cell.rep.length << l), {})[r] = i
            degree.append(column)
        columns.append(degree)
        matchings.append({t: i for key in sorted(buckets) for t, i in buckets[key].items()})
    return columns, matchings


def blue_letters(letters, S, red, odd):
    """``signs._act`` with its orientation flip read on Blue letters, not Red; the recolor
    is unchanged, so every face keeps its row and only the square-zero check can see it."""
    sign = 1
    for i in letters:
        if red >> i & 1:
            red ^= odd[i] & S
        elif (odd[i] & ~S).bit_count() & 1:
            sign = -sign
    return sign, red


def block_sum(*types):
    """Cartan matrix of a product of (letter, rank) types, its blocks in the given order."""
    blocks = [cartan_matrix(*t).entries for t in types]
    n, at, rows = sum(map(len, blocks)), 0, []
    for block in blocks:
        rows += [[0] * at + list(row) + [0] * (n - at - len(block)) for row in block]
        at += len(block)
    return CartanMatrix.from_entries(rows)


# Boundary matrices of the rank-2 A-type complex, derived by hand and
# frozen; the basis order is (S lex, coloring with Blue first, coset rep
# by length then word).  These pin the orientation conventions.
A2_D1 = [
    [1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0],
    [-1, 0, 0, 0, -1, -1, 0, 0, -1, 1, 1, 0],
    [0, 0, -1, 1, 1, 0, -1, 0, 0, 0, -1, -1],
    [0, -1, 0, -1, 0, 1, 0, -1, 0, -1, 0, 1],
]
A2_D2 = [
    [1, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 1, 0],
    [0, 0, 0, 1, 0, 1],
    [-1, 1, 0, 0, 0, 0],
    [0, 0, -1, 0, 1, 0],
    [0, 0, 0, -1, 0, 1],
    [-1, 0, -1, 0, 0, 0],
    [0, -1, 0, -1, 0, 0],
    [0, 0, 0, 0, -1, -1],
    [1, 0, -1, 0, 0, 0],
    [0, 1, 0, -1, 0, 0],
    [0, 0, 0, 0, 1, -1],
]


class TestDiagram:
    def test_color_string(self):
        D = ColoredDynkinDiagram.from_map(3, {1: -1, 3: 1})
        assert D.color_string() == "RoB"
        assert D.uncolored == (2,)
        assert frozenset(D.colored_vertices) == frozenset({1, 3})

    def test_repr_is_the_color_string(self):
        assert repr(ColoredDynkinDiagram(3, 0b101, 0b001)) == "ColoredDynkinDiagram(RoB)"

    def test_validation(self):
        with pytest.raises(ConfigError):
            ColoredDynkinDiagram.from_map(2, {1: 0})
        with pytest.raises(ConfigError):
            ColoredDynkinDiagram.from_map(2, {3: 1})

    def test_mask_validation(self):
        with pytest.raises(ConfigError):
            ColoredDynkinDiagram(2, 0b100)
        with pytest.raises(ConfigError):
            ColoredDynkinDiagram(2, 0b01, 0b10)

    def test_eta_reads_the_vertex_by_value(self):
        D = ColoredDynkinDiagram.from_map(3, {1: -1, 2: 1})
        assert D.eta(2.0) == D.eta(2) == 1
        with pytest.raises(ConfigError):
            D.eta(4)
        with pytest.raises(KeyError):  # in range, uncolored
            D.eta(3)

    def test_masks(self):
        D = ColoredDynkinDiagram.from_map(3, {1: -1, 3: 1})
        assert (D.rank, D.mask, D.red) == (3, 0b101, 0b001)
        assert D == ColoredDynkinDiagram(3, 0b101, 0b001)
        assert colors(D) == ((1, -1), (3, 1))

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_views_match_pair_transcription(self, l):
        # Every diagram of rank l (3^l of them), checked against the same
        # operations written on sorted (vertex, sign) pairs.
        chars = {-1: "R", 1: "B"}
        for states in product((0, 1, -1), repeat=l):
            pairs = tuple((v, s) for v, s in enumerate(states, 1) if s)
            eta = dict(pairs)
            uncolored = tuple(v for v in range(1, l + 1) if v not in eta)
            D = ColoredDynkinDiagram.from_map(l, eta)
            assert colors(D) == pairs
            assert frozenset(D.colored_vertices) == frozenset(eta)
            assert D.colored_vertices == tuple(eta)
            assert D.uncolored == uncolored
            assert D.color_string() == "".join(chars.get(eta.get(v), "o") for v in range(1, l + 1))
            for v in range(1, l + 1):
                if v in eta:
                    assert D.eta(v) == eta[v]
                else:
                    with pytest.raises(KeyError):
                        D.eta(v)
            for j, v in enumerate(uncolored, 1):
                for c in (1, 2):
                    sign, face = diagram_boundary(D, j, c)
                    assert sign == (-1) ** (j + c + 1)
                    assert colors(face) == tuple(sorted(pairs + ((v, (-1) ** c),)))


class TestDiagramAction:
    def test_known_color_change(self, W_A2):
        D = ColoredDynkinDiagram.from_map(2, {1: -1, 2: 1})  # R B
        out = ws_act_on_diagram(W_A2.simple_reflection(1), D)
        assert out.color_string() == "RR"

    def test_identity(self, W_A2):
        D = ColoredDynkinDiagram.from_map(2, {1: -1, 2: 1})
        assert ws_act_on_diagram(W_A2.identity, D) == D

    def test_involution_on_full_colorings(self, W_A2):
        s1 = W_A2.simple_reflection(1)
        for signs in product((1, -1), repeat=2):
            D = ColoredDynkinDiagram.from_map(2, dict(zip((1, 2), signs)))
            once_sign, once = ws_act_oriented(s1, D)
            twice_sign, twice = ws_act_oriented(s1, once)
            assert twice == D
            assert once_sign * twice_sign == 1

    def test_outside_subgroup_rejected(self, W_A2):
        D = ColoredDynkinDiagram.from_map(2, {1: 1})
        with pytest.raises(NotInSubgroupError):
            ws_act_on_diagram(W_A2.simple_reflection(2), D)

    def test_diagram_of_another_rank_rejected(self, W_A2):
        D = ColoredDynkinDiagram.from_map(3, {1: 1, 2: -1})
        for act in (ws_act_oriented, ws_act_on_diagram):
            with pytest.raises(ConfigError, match="diagram of rank 3 for a group of rank 2"):
                act(W_A2.simple_reflection(1), D)

    @pytest.mark.parametrize("fix", ["W_A2", "W_B2", "W_G2", "W_A3"])
    def test_oriented_action_respects_group_law(self, fix, request):
        W = request.getfixturevalue(fix)
        l = W.rank
        for r in range(1, l + 1):
            for S in combinations(range(1, l + 1), r):
                sub = W.parabolic_elements(S)
                diagrams = [
                    ColoredDynkinDiagram.from_map(l, dict(zip(S, signs)))
                    for signs in product((1, -1), repeat=r)
                ]
                for u in sub:
                    for v in sub:
                        uv = W.multiply(u, v)
                        for D in diagrams:
                            sv, Dv = ws_act_oriented(v, D)
                            su, Duv = ws_act_oriented(u, Dv)
                            s, Dd = ws_act_oriented(uv, D)
                            assert Dd == Duv
                            assert s == su * sv


class TestEnumeration:
    @pytest.mark.parametrize("codim,count", [(2, 4), (1, 12), (0, 6)])
    def test_a2_counts(self, W_A2, codim, count):
        assert len(enumerate_cells(W_A2, codim)) == count

    @pytest.mark.parametrize("fix", ["W_A2", "W_B2", "W_G2", "W_A3", "W_B3"])
    def test_count_formula(self, fix, request):
        W = request.getfixturevalue(fix)
        for codim in range(W.rank + 1):
            assert len(enumerate_cells(W, codim)) == cell_count_formula(W, codim)

    def test_canonical_form_idempotent(self, W_A3):
        for codim in range(4):
            for cell in enumerate_cells(W_A3, codim):
                S = cell.diagram.colored_vertices
                assert W_A3.min_coset_rep(cell.rep, S) is cell.rep

    @pytest.mark.parametrize("letter,rank", LIE_TYPES)
    def test_row_formula_finds_every_cell(self, letter, rank):
        # Row of (S, red, w) = offset(S) + t(red) * |W^S| + rank_S(w), with t(red) the Red
        # bits of S read as a binary number, the least vertex most significant.
        W = generate_weyl_group(cartan_matrix(letter, rank))
        for codim in range(rank + 1):
            tables = _row_tables(W, codim)
            offset, reps = 0, {}
            for i, cell in enumerate(enumerate_cells(W, codim)):
                D = cell.diagram
                S = D.colored_vertices
                if D.mask not in reps:  # the first cell of a colored set
                    offset, reps[D.mask] = i, W.coset_min_reps(S)
                t = int("".join(str(D.red >> (v - 1) & 1) for v in S) or "0", 2)
                r = reps[D.mask].index(cell.rep)
                by_red, rank_of = tables[D.mask]
                assert by_red[D.red][rank_of[cell.rep.position]] == i == offset + t * len(reps[D.mask]) + r

    def test_cell_dimensions(self, W_A3):
        for codim in range(4):
            for cell in enumerate_cells(W_A3, codim):
                assert cell.codim == codim
                assert cell.dim == 3 - codim


class TestDiagramBoundary:
    def test_empty_diagram_first_red(self):
        D = ColoredDynkinDiagram(2)
        sign, D1 = diagram_boundary(D, 1, 1)
        assert sign == -1  # literal (-1) ** (j + c + 1)
        assert D1.color_string() == "Ro"

    def test_colored_grows_by_one(self):
        D = ColoredDynkinDiagram.from_map(3, {2: 1})
        for j in (1, 2):
            for c in (1, 2):
                _, D1 = diagram_boundary(D, j, c)
                assert len(colors(D1)) == len(colors(D)) + 1

    def test_second_uncolored_vertex(self):
        D = ColoredDynkinDiagram.from_map(2, {1: -1})
        sign, D1 = diagram_boundary(D, 1, 2)
        assert sign == 1
        assert D1.color_string() == "RB"
        assert D1.eta(2) == 1

    def test_out_of_range(self):
        D = ColoredDynkinDiagram(2)
        with pytest.raises(ConfigError):
            diagram_boundary(D, 3, 1)
        with pytest.raises(ConfigError):
            diagram_boundary(D, 1, 3)


class TestChainComplex:
    def test_a2_golden_matrices(self, W_A2):
        cx = build_chain_complex(W_A2)
        assert cx.ranks() == (4, 12, 6)
        assert dense(cx.boundary(1)) == A2_D1
        assert dense(cx.boundary(2)) == A2_D2

    def test_a1_circle_shape(self, W_A1):
        cx = build_chain_complex(W_A1)
        assert cx.ranks() == (2, 2)
        cols = [sorted(col) for col in zip(*dense(cx.boundary(1)))]
        assert cols == [[-1, 1], [-1, 1]]

    @pytest.mark.parametrize("fix", ["W_A1", "W_A2", "W_A3", "W_B2", "W_B3", "W_G2"])
    def test_square_zero(self, fix, request):
        W = request.getfixturevalue(fix)
        cx = build_chain_complex(W)
        cx.validate()
        for k in range(2, W.rank + 1):
            assert composes_to_zero(cx.boundary(k - 1), cx.boundary(k))

    @pytest.mark.parametrize("letter,rank", LIE_TYPES)
    def test_each_face_is_one_unit_entry(self, letter, rank):
        # A cell with u uncolored vertices has 2u faces; they land in 2u distinct rows.
        cx = build_chain_complex(generate_weyl_group(cartan_matrix(letter, rank)))
        for k in range(1, rank + 1):
            for cell, col in zip(cx.bases[k], cx.boundary(k).columns):
                assert len(col) == 2 * len(cell.diagram.uncolored)
                assert set(col.values()) <= {1, -1}

    @pytest.mark.parametrize("C", [pytest.param(cartan_matrix(*t), id="-".join(map(str, t)))
                                   for t in LIE_TYPES] + [
        pytest.param(cartan_matrix("A", 5), id="A-5", marks=pytest.mark.slow),
        pytest.param(cartan_matrix("D", 5), id="D-5", marks=pytest.mark.slow),
        # products and relabelled diagrams: vertex orders that no standard matrix has
        pytest.param(block_sum(("A", 1), ("A", 1)), id="A1xA1"),
        pytest.param(block_sum(("A", 2), ("G", 2)), id="A2xG2"),
        pytest.param(block_sum(("B", 2), ("A", 2)), id="B2xA2"),
        pytest.param(relabelled("B", 3, (3, 2, 1)), id="B3-321"),
        pytest.param(relabelled("C", 3, (2, 1, 3)), id="C3-213"),
        pytest.param(relabelled("F", 4, (2, 4, 1, 3)), id="F4-2413"),
    ])
    def test_matches_tuple_indexed_reference(self, C):
        # Same columns and matchings, in content and in insertion order: boundaries_csv and
        # homology_of read them in that order.
        W = generate_weyl_group(C)
        cx = build_chain_complex(W)
        columns, matchings = reference_assembly(W, cx.bases)
        for k in range(1, W.rank + 1):
            assert [list(col.items()) for col in cx.boundary(k).columns] == [
                list(col.items()) for col in columns[k - 1]]
        assert [list(m.items()) for m in cx.matching] == [list(m.items()) for m in matchings]

    def test_a_row_is_one_int_object(self, W_A4):
        # Every entry in a row stores the same int, not one int per entry.
        cx = build_chain_complex(W_A4)
        for k in range(1, 5):
            keys = [r for col in cx.boundary(k).columns for r in col]
            assert len({id(r) for r in keys}) == len(set(keys))

    @pytest.mark.parametrize("letter,rank", [("A", 2), ("A", 3), ("B", 3), ("C", 3), ("G", 2)])
    def test_blue_letters_fault_fails_square_zero(self, letter, rank):
        W = generate_weyl_group(cartan_matrix(letter, rank))
        bases = tuple(enumerate_cells(W, rank - k) for k in range(rank + 1))
        columns, matchings = reference_assembly(W, bases, push=blue_letters)
        boundaries = (IntMatrix(0, len(bases[0])),) + tuple(
            IntMatrix.from_columns(len(bases[k - 1]), cols) for k, cols in enumerate(columns, 1))
        with pytest.raises(CorruptComplexError, match="boundary composition"):
            ChainComplex(bases, boundaries, tuple(matchings))

    def test_euler_characteristic_a2(self, W_A2):
        assert build_chain_complex(W_A2).euler_characteristic() == -2

    def test_torus_block_matrix(self):
        W = generate_weyl_group(CartanMatrix.from_entries([[2, 0], [0, 2]]))
        cx = build_chain_complex(W)
        assert cx.ranks() == (4, 8, 4)
        assert cx.euler_characteristic() == 0

    def test_deterministic_rebuild(self, W_A2):
        a = build_chain_complex(W_A2)
        b = build_chain_complex(W_A2)
        assert a.boundary(1) == b.boundary(1)
        assert a.boundary(2) == b.boundary(2)
        assert a.bases == b.bases
