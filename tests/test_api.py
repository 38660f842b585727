import math
import types

import numpy as np
import pytest

import todatopo
from todatopo.cells import cell_count_formula


class TestPublicNames:
    # Adding or removing a public name is an explicit edit of this list.
    NAMES = [
        "BlowupEvent", "CartanMatrix", "Cell", "ChainComplex", "ColoredDynkinDiagram",
        "ConfigError", "CorruptComplexError", "GroupOrderCapError", "HomologyGroup",
        "IncidenceError", "IntMatrix", "InvalidCartanMatrixError", "MorseEdge",
        "NotInSubgroupError", "PrincipalCell", "PrincipalGraph", "RankGateError",
        "TodaGraph", "TodaState", "TodatopoError", "Trajectory", "UnsupportedTypeError",
        "WeylElement", "WeylGroup", "apply_simple_reflection", "apply_weyl",
        "assemble_matrix", "betti_one", "build_chain_complex", "cartan_matrix",
        "chevalley_invariants", "conjectured_betti", "diagram_boundary",
        "eigenvalues", "enumerate_cells", "generate_weyl_group", "homology_of", "incidence",
        "index", "integrate", "invariant_factors", "is_abelian_unstable", "is_transversal",
        "label", "morse_complex", "morse_smale_edges",
        "parse_sign_string", "poincare_polynomial", "principal_graph", "sign_string",
        "stable_set", "step", "subsystem", "toda_graph", "unstable_set",
        "ws_act_on_diagram", "ws_act_oriented",
    ]

    def test_sorted_public_names(self):
        # Submodules are left out: which of them are bound depends on import order.
        got = sorted(
            name for name, value in vars(todatopo).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        )
        assert got == self.NAMES

    def test_int_matrix_public_names(self):
        # The column store the pipeline runs; dense views and products live in the tests.
        names = sorted(n for n in dir(todatopo.IntMatrix(1, 1)) if not n.startswith("_"))
        assert names == ["apply", "cols", "columns", "from_columns", "nnz", "rows"]


# Each call took a non-integral value and truncated it to an int, or (the
# letter) failed with a TypeError.
@pytest.mark.parametrize("call,error", [
    (lambda: todatopo.ColoredDynkinDiagram.from_map(3, {1.5: -1.7}), todatopo.ConfigError),
    (lambda: todatopo.ColoredDynkinDiagram.from_map(3, {1: -1.7}), todatopo.ConfigError),
    (lambda: todatopo.ColoredDynkinDiagram.from_map(2.5, {1: -1}), todatopo.ConfigError),
    (lambda: todatopo.ColoredDynkinDiagram.from_map("3", {1: -1}), todatopo.ConfigError),
    (lambda: todatopo.apply_simple_reflection(1, (1.5, -1.2), todatopo.cartan_matrix("C", 2)),
     todatopo.ConfigError),
    (lambda: todatopo.apply_simple_reflection(1.5, (1, 1), todatopo.cartan_matrix("C", 2)),
     todatopo.ConfigError),
    (lambda: todatopo.CartanMatrix.from_entries([[2, -1.5], [-1, 2]]),
     todatopo.InvalidCartanMatrixError),
    (lambda: todatopo.subsystem(todatopo.TodaState((0.0, 0.0), (1.0, 1.0)), [1.7]),
     todatopo.ConfigError),
    # int() itself fails on these: ValueError, ValueError, OverflowError.
    (lambda: todatopo.CartanMatrix.from_entries([[2, math.nan], [-1, 2]]),
     todatopo.InvalidCartanMatrixError),
    (lambda: todatopo.CartanMatrix.from_entries([[2, "a"], [-1, 2]]),
     todatopo.InvalidCartanMatrixError),
    (lambda: todatopo.CartanMatrix.from_entries([[2, math.inf], [-1, 2]]),
     todatopo.InvalidCartanMatrixError),
    # These raised a TypeError or a bare ValueError, returned 0, or kept the value as given.
    (lambda: todatopo.diagram_boundary(todatopo.ColoredDynkinDiagram(2), 1.5, 1),
     todatopo.ConfigError),
    (lambda: todatopo.enumerate_cells(todatopo.generate_weyl_group(todatopo.cartan_matrix("A", 2)), 1.5),
     todatopo.ConfigError),
    (lambda: cell_count_formula(todatopo.generate_weyl_group(todatopo.cartan_matrix("A", 3)), 7),
     todatopo.ConfigError),
    (lambda: cell_count_formula(todatopo.generate_weyl_group(todatopo.cartan_matrix("A", 3)), -1),
     todatopo.ConfigError),
    (lambda: todatopo.IntMatrix(2, 2, {(0, 0): 1.5}), ValueError),
    (lambda: todatopo.IntMatrix(2, 2, {(0.5, 0): 1}), ValueError),
    (lambda: todatopo.HomologyGroup(-3), ValueError),
    (lambda: todatopo.HomologyGroup(1.5), ValueError),
    (lambda: todatopo.ColoredDynkinDiagram(2, 1.5), todatopo.ConfigError),
    (lambda: todatopo.ColoredDynkinDiagram(2.0), todatopo.ConfigError),
    (lambda: todatopo.ColoredDynkinDiagram(2, 1, 1.0), todatopo.ConfigError),
    (lambda: todatopo.ColoredDynkinDiagram(-1), todatopo.ConfigError),
    (lambda: todatopo.conjectured_betti(3, 1.5), todatopo.ConfigError),
    (lambda: todatopo.ColoredDynkinDiagram(3, 0b111).eta(1.5), todatopo.ConfigError),
    (lambda: todatopo.ColoredDynkinDiagram(3, 0b111).eta(0), todatopo.ConfigError),
    # from_columns keeps its dicts as given, so only Python ints pass.
    (lambda: todatopo.IntMatrix.from_columns(2, [{0: 1.5}]), ValueError),
    (lambda: todatopo.IntMatrix.from_columns(2, [{0: 2.0}]), ValueError),
    (lambda: todatopo.IntMatrix.from_columns(2, [{0.5: 1}]), ValueError),
    (lambda: todatopo.IntMatrix.from_columns(
        2, [{0: np.int64(3**39), 1: np.int64(1)}, {0: np.int64(1), 1: np.int64(3**39)}]), ValueError),
    # A group that is not a WeylGroup raised an AttributeError.
    (lambda: todatopo.build_chain_complex(todatopo.cartan_matrix("A", 2)), todatopo.ConfigError),
    (lambda: todatopo.enumerate_cells("x", 1), todatopo.ConfigError),
    (lambda: cell_count_formula(todatopo.cartan_matrix("A", 2), 1), todatopo.ConfigError),
    (lambda: todatopo.toda_graph("x"), todatopo.ConfigError),
    (lambda: todatopo.morse_smale_edges(todatopo.cartan_matrix("A", 2)), todatopo.ConfigError),
    (lambda: todatopo.morse_complex("x"), todatopo.ConfigError),
], ids=["from_map-vertex", "from_map-color", "from_map-rank", "from_map-rank-str",
       "validate_signs", "letter", "from_entries", "subsystem", "from_entries-nan", "from_entries-str", "from_entries-inf",
       "diagram_boundary-index", "enumerate_cells", "cell_count_formula-high",
       "cell_count_formula-negative", "IntMatrix-value", "IntMatrix-index",
       "HomologyGroup-negative", "HomologyGroup-float", "diagram-mask", "diagram-rank",
       "diagram-red", "diagram-negative-rank", "conjectured_betti-degree", "eta-float",
       "eta-out-of-range", "from_columns-value", "from_columns-integral-float", "from_columns-row",
       "from_columns-int64", "build_chain_complex-group", "enumerate_cells-group",
       "cell_count_formula-group", "toda_graph-group", "morse_smale_edges-group",
       "morse_complex-group"])
def test_non_integral_input_is_rejected(call, error):
    with pytest.raises(error):
        call()


def test_bool_rank_is_stored_as_an_int():
    # True passes the range check as 1; kept as a bool it printed as "ATrue" and
    # reached every JSON rank.  An integral float stays rejected.
    C = todatopo.cartan_matrix("A", True)
    assert type(C.rank) is int and str(C) == "A1"
    with pytest.raises(todatopo.UnsupportedTypeError):
        todatopo.cartan_matrix("A", 2.0)
