"""Topology of compactified Toda isospectral manifolds.

Cell decompositions by colored Dynkin diagrams, exact integral homology,
Morse data on the Weyl group, and numerical checks of the Lax flow.
All values are immutable after construction and safe to share across
threads; computations are deterministic and free of randomness.
"""

from .cells import (
    Cell,
    ChainComplex,
    ColoredDynkinDiagram,
    build_chain_complex,
    diagram_boundary,
    enumerate_cells,
    ws_act_on_diagram,
    ws_act_oriented,
)
from .errors import (
    ConfigError,
    CorruptComplexError,
    GroupOrderCapError,
    IncidenceError,
    InvalidCartanMatrixError,
    NotInSubgroupError,
    RankGateError,
    TodatopoError,
    UnsupportedTypeError,
)
from .homology import (
    HomologyGroup,
    homology_of,
    invariant_factors,
)
from .lie import (
    CartanMatrix,
    WeylElement,
    WeylGroup,
    cartan_matrix,
    generate_weyl_group,
    length,
    min_coset_rep,
)
from .matrices import IntMatrix
from .morse import (
    MorseEdge,
    PrincipalCell,
    PrincipalGraph,
    TodaGraph,
    betti_one,
    conjectured_betti,
    incidence,
    index,
    is_abelian_unstable,
    is_transversal,
    label,
    morse_complex,
    morse_smale_edges,
    poincare_polynomial,
    principal_graph,
    stable_set,
    toda_graph,
    unstable_set,
)
from .signs import (
    apply_simple_reflection,
    apply_weyl,
    parse_sign_string,
    sign_string,
)
from .toda import (
    BlowupEvent,
    TodaState,
    Trajectory,
    assemble_matrix,
    chevalley_invariants,
    detect_blowup,
    eigenvalues,
    integrate,
    step,
    subsystem,
)

__version__ = "0.1.0"
