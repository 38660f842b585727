import types

import todatopo


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
        "chevalley_invariants", "conjectured_betti", "detect_blowup", "diagram_boundary",
        "eigenvalues", "enumerate_cells", "generate_weyl_group", "homology_of", "incidence",
        "index", "integrate", "invariant_factors", "is_abelian_unstable", "is_transversal",
        "label", "length", "min_coset_rep", "morse_complex", "morse_smale_edges",
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
