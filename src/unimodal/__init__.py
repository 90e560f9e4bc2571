"""Qualitative dynamics of tent-like interval maps.

Closed-form node towers, trapping regions, level partitions, and backward
orbit limits, each cross-checked by a grid-based chain-recurrence oracle.
"""

from .maps import (Interval, PiecewiseMap, hausdorff, make_logistic, make_tent,
                   make_tu, merge_intervals, subtract_intervals, tu_skeleton)
from .orbits import (Cycle, critical_orbit, expansion_bound, expansion_time, find_cycle,
                     make_cycle)
from .structure import (CantorCover, CoreCollection, LevelPartition, Node,
                        PredictedSAlpha, Renormalization, TrappingRegion,
                        analytic_nodes, cantor_cover, classify_attractor,
                        classify_point, core_of_node, is_cyclic, level_partition,
                        node_depth, predicted_salpha, renormalize, trapping_region,
                        tu_cycle, tu_nodes)
from .chainoracle import (ChainClasses, GridGraph, build_grid, chain_classes,
                          conley_graph, recurrent_cells, verify_tower)
from .backward import (BackwardTree, DenseOrbit, SAlphaEstimate, build_backward_tree,
                       dense_backward_orbit, salpha)
from .cli import compare_salpha, match_nodes

__version__ = "0.1.0"
