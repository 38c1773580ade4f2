"""Exact inversion-indel distance between unichromosomal genomes."""

from .cli import DistanceReport, compute_distance, distance_report, tau_star
from .components import TaggedTree, find_components, flower_contract, tagged_tree_for_pair
from .diagram import build_relational_diagram, classify_cycle, indel_potential
from .genome import (
    Chromosome,
    GenomePair,
    Marker,
    cap_linear_pair,
    classify_markers,
    parse_chromosome,
    read_pair_file,
)
from .reduction import ResidualResult, compute_residual
from .residual import optimal_cover_of_residual
from .treecover import Cover, CoverPath, analyze_topology, tau_all_clean, tau_shared_tag

__all__ = [
    "Chromosome",
    "Cover",
    "CoverPath",
    "DistanceReport",
    "GenomePair",
    "Marker",
    "OracleBudget",
    "ResidualResult",
    "TaggedTree",
    "analyze_topology",
    "brute_force_distance",
    "brute_force_linear_distance",
    "brute_force_tau",
    "build_relational_diagram",
    "cap_linear_pair",
    "classify_cycle",
    "classify_markers",
    "compute_distance",
    "compute_residual",
    "distance_report",
    "find_components",
    "flower_contract",
    "indel_potential",
    "optimal_cover_of_residual",
    "parse_chromosome",
    "read_pair_file",
    "tagged_tree_for_pair",
    "tau_all_clean",
    "tau_shared_tag",
    "tau_star",
]

__version__ = "0.1.0"

# The oracle is for checks, not distances: it loads on first use.
_ORACLE_NAMES = frozenset(
    {"OracleBudget", "brute_force_distance", "brute_force_linear_distance", "brute_force_tau"}
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ORACLE_NAMES)
