"""cmtkit: exact deciders for CM_t and k-CM_t simplicial complexes.

The generator and SNF-oracle names are loaded on first use (PEP 562), so
that importing the package, or a command that runs neither, does not
compile those modules.
"""

from .classify import (
    CRITERIA,
    ClassificationReport,
    JoinObservation,
    Witness,
    clear_caches,
    cm_t_witness,
    cm_witness,
    explore_join,
    is_buchsbaum,
    is_cm,
    is_cm_t,
    is_k_buchsbaum,
    is_k_cm_t,
    is_k_cm_t_unbounded,
    is_pure,
    k_cm_t_witness,
    max_k,
    min_t,
)
from .core import EMPTY_FACE, DeletionReport, Face, SimplicialComplex, from_facets
from .fields import GF2, GF3, GF5, RATIONALS, FieldSpec
from .files import ParseError, dump, emit, load, parse
from .homology import (
    BettiVector,
    BoundaryMatrix,
    boundary_matrices,
    local_betti,
    reduced_betti,
    reduced_euler_from_faces,
)
from .linalg import active_backend, rank, rank_mod_p, rank_rational

__version__ = "0.1.0"

__all__ = [
    "BettiVector", "BoundaryMatrix", "ClassificationReport", "CRITERIA",
    "DeletionReport", "EMPTY_FACE", "Face", "FieldSpec", "GF2", "GF3", "GF5",
    "GluedFamilySpec", "GluedRealizabilityError", "JoinObservation",
    "ParseError", "RATIONALS", "SimplicialComplex", "SplitMix64", "Witness",
    "active_backend", "betti_via_snf", "boundary_matrices",
    "boundary_simplex", "classify", "clear_caches", "cm_t_witness",
    "cm_witness", "dump", "emit", "explore_join", "from_facets",
    "glued_simplices", "is_buchsbaum", "is_cm", "is_cm_t", "is_k_buchsbaum",
    "is_k_cm_t", "is_k_cm_t_unbounded", "is_pure", "k_cm_t_witness", "load",
    "local_betti", "max_k", "min_t", "miyazaki_example", "parse",
    "projective_plane_6", "random_pure", "rank", "rank_mod_p",
    "rank_rational", "reduced_betti", "reduced_euler_from_faces", "simplex",
    "smith_diagonal",
]

# name -> the submodule that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("GluedFamilySpec", "GluedRealizabilityError", "SplitMix64",
                     "boundary_simplex", "glued_simplices", "miyazaki_example",
                     "projective_plane_6", "random_pure", "simplex", "generators"),
                    "generators"),
    **dict.fromkeys(("betti_via_snf", "smith_diagonal", "snf"), "snf"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    submodule = import_module(f".{module}", __name__)
    value = submodule if name == module else getattr(submodule, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
