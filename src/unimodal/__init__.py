"""Qualitative dynamics of tent-like interval maps.

Closed-form node towers, trapping regions, level partitions, and backward
orbit limits, each cross-checked by a grid-based chain-recurrence oracle.

Each submodule loads when one of its names is first read (PEP 562), so
`import unimodal` loads no submodule and `tu_skeleton()` loads only `maps`.
"""

import importlib

__version__ = "0.1.0"

# the names of the package root, by the submodule that defines them
_EXPORTS = {
    "maps": ("Interval", "PiecewiseMap", "hausdorff", "make_logistic", "make_tent", "make_tu",
             "merge_intervals", "subtract_intervals", "tu_skeleton"),
    "orbits": ("Cycle", "critical_orbit", "expansion_bound", "expansion_time", "find_cycle",
               "make_cycle"),
    "structure": ("CantorCover", "CoreCollection", "LevelPartition", "Node", "PredictedSAlpha",
                  "Renormalization", "TrappingRegion", "analytic_nodes", "cantor_cover",
                  "classify_attractor", "classify_point", "core_of_node", "is_cyclic",
                  "level_partition", "node_depth", "predicted_salpha", "renormalize",
                  "trapping_region", "tu_cycle", "tu_cycles", "tu_nodes"),
    "chainoracle": ("ChainClasses", "GridGraph", "build_grid", "chain_classes", "conley_graph",
                    "recurrent_cells", "verify_tower"),
    "backward": ("BackwardTree", "DenseOrbit", "SAlphaEstimate", "build_backward_tree",
                 "dense_backward_orbit", "salpha"),
    "cli": ("compare_salpha", "match_nodes"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it in the root
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
