"""Exact-computation workbench for subfamilies of the Boolean lattice.

Families of subsets of [n] are bitmask-encoded; every quantity is computed
exactly (integers and fractions, never floats).  The package covers:
comparability graphs and their components, Lubell averages with a
permutation-enumeration oracle, skipless normalization, extremal
constructions with independent certification, shadow and boundary
calculus, rainbow-free layer colourings, and exact searches for small
extremal thresholds.

A bare `import latticework` loads only `family` and `lubell`.  Every other
submodule, and each name re-exported from it, is imported on first access
(PEP 562), so a short process pays only for the modules it uses.
"""

from importlib import import_module as _import_module

# Eager because `lubell` names both a submodule and its main function: were
# the submodule loaded later, the import system would rebind the package
# attribute to the module and `__getattr__` would never be asked.
from .lubell import lubell

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "family": (
        "BudgetExhaustedError", "DomainError", "LatticeError", "PreconditionError",
        "ResourceLimitError", "VerificationError", "SetFamily", "elements_of", "mask_of",
    ),
    "core": (
        "ComparabilityGraph", "binomial", "comparability_graph", "count_two_chains",
        "full_cube", "height", "is_antichain", "layer_masks",
    ),
    "lubell": (
        "MeetProfile", "average_meet_count", "diamond_meet_count", "lubell",
        "lubell_by_permutations", "meet_profile",
    ),
    "normalize": (
        "NormalizationError", "find_skips", "make_skipless", "make_skipless_with_trace",
        "skip_count",
    ),
    "constructions": (
        "CertificationReport", "CheckResult", "Diamond", "certify", "detect_diamond",
        "diamond_claim", "diamond_family", "disconnected_claim", "disconnected_extremal",
        "disconnected_extremal_size", "full_layer_pair", "sharp_claim", "sharp_family",
    ),
    "shadow": (
        "CascadeRep", "boundary_report", "kk_cascade", "kk_shadow_bound", "lower_shadow",
        "technical_bound_check",
    ),
    "colouring": (
        "EdgeColouredGraph", "LayerPairGraph", "avg_degree", "find_rainbow_cycle", "is_proper",
        "layer_colouring", "xi",
    ),
    "blym": (
        "DiamondProfile", "all_diamond_bound", "blym_sum", "diamond_blym_sum",
        "diamond_profile",
    ),
    "search": (
        "SearchResult", "disconnected_splits", "la_exact", "la_exact_restricted",
        "lambda_star_exact", "mad_star_probe", "max_disconnected", "min_two_chains",
        "xi_star_exact",
    ),
    "verify": ("REPRODUCTIONS", "VERIFIERS", "run_reproduction", "run_verifier"),
    "sampling": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted({*_EXPORTS, *_MODULE_OF})


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
