"""Exact-computation workbench for subfamilies of the Boolean lattice.

Families of subsets of [n] are bitmask-encoded; every quantity is computed
exactly (integers and fractions, never floats).  The package covers:
comparability/cover graphs and their components, Lubell averages with a
permutation-enumeration oracle, skipless normalization, extremal
constructions with independent certification, shadow and boundary
calculus, rainbow-free layer colourings, and exact searches for small
extremal thresholds.
"""

from .core import (
    BudgetExhaustedError,
    ComparabilityGraph,
    DomainError,
    LatticeError,
    PreconditionError,
    ResourceLimitError,
    VerificationError,
    SetFamily,
    binomial,
    comparability_graph,
    count_two_chains,
    cover_graph,
    elements_of,
    full_cube,
    height,
    is_antichain,
    is_comparable,
    layer_masks,
    mask_of,
)
from .lubell import (
    MeetProfile,
    average_meet_count,
    diamond_meet_count,
    lubell,
    lubell_by_permutations,
    meet_profile,
)
from .normalize import (
    NormalizationError,
    SkipReport,
    StepRecord,
    find_skips,
    make_skipless,
    make_skipless_with_trace,
    skip_count,
    skipless_step,
)
from .constructions import (
    CertificationReport,
    CheckResult,
    Diamond,
    certify,
    diamond_claim,
    diamond_family,
    disconnected_claim,
    disconnected_extremal,
    disconnected_extremal_size,
    full_layer_pair,
    sharp_claim,
    sharp_family,
)
from .shadow import (
    BoundaryPair,
    CascadeRep,
    boundary_pair,
    boundary_report,
    down_closure,
    excluded_count,
    kk_cascade,
    kk_shadow_bound,
    lower_shadow,
    technical_bound_check,
    up_closure,
)
from .colouring import (
    EdgeColouredGraph,
    LayerPairGraph,
    avg_degree,
    find_rainbow_cycle,
    is_proper,
    layer_colouring,
    xi,
)
from .blym import (
    DiamondProfile,
    all_diamond_bound,
    blym_sum,
    detect_diamond,
    diamond_blym_sum,
    diamond_profile,
    family_diamonds,
)
from .search import (
    SearchResult,
    disconnected_splits,
    la_exact,
    la_exact_restricted,
    lambda_star_exact,
    mad_star_probe,
    max_disconnected,
    min_two_chains,
    xi_star_exact,
)
from .verify import REPRODUCTIONS, VERIFIERS, run_reproduction, run_verifier

__version__ = "0.1.0"
