"""Exact inversion-indel distance between unichromosomal genomes."""

from .cli import DistanceReport, compute_distance, distance_report, tau_star
from .components import (
    Cover,
    CoverPath,
    TaggedTree,
    find_components,
    flower_contract,
    tagged_tree_for_pair,
)
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

# Each name's module loads on first use: the oracle is for checks, and the
# τ* modules are needed only by a tagged tree that is not empty, that is by
# a pair with bad components.
_LAZY = {
    "OracleBudget": "oracle",
    "brute_force_distance": "oracle",
    "brute_force_linear_distance": "oracle",
    "brute_force_tau": "oracle",
    "ResidualResult": "reduction",
    "compute_residual": "reduction",
    "optimal_cover_of_residual": "residual",
    "analyze_topology": "treecover",
    "tau_all_clean": "treecover",
    "tau_shared_tag": "treecover",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LAZY.keys())
