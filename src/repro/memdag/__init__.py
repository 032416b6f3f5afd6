"""memDag substrate: peak-memory-minimizing traversals of (blocks of) DAGs.

Re-implementation of the role played by Kayaaslan et al.'s ``memDag``
algorithm [18] in the paper: given a workflow block, produce a topological
traversal whose peak memory consumption is as small as possible, and report
that peak as the block's memory requirement ``r_{V_i}``.

Engine composition (see DESIGN.md, substitutions):

* :mod:`repro.memdag.model` — the exact memory semantics of a traversal
  (internal edges live between producer and consumer, external inputs are
  streamed, external outputs are retained until the block completes);
* :mod:`repro.memdag.segments` — hill-valley profile decomposition and the
  optimal merge of independent segment sequences (Liu-style);
* :mod:`repro.memdag.sp_tree` — recognition + decomposition of two-terminal
  series-parallel DAGs;
* :mod:`repro.memdag.spize` — level-based SP-ization used as a fallback
  traversal for non-SP blocks;
* :mod:`repro.memdag.traversal` — the candidate traversal generators and the
  ``memdag_traversal`` front-end that returns the best of them;
* :mod:`repro.memdag.requirement` — ``r_{V_i}`` for arbitrary blocks of a
  workflow, with caching keyed by the block's task set.
"""

from repro.memdag.model import (
    BlockStatics,
    TraversalState,
    BlockPackingState,
    evaluate_traversal,
    peak_of_traversal,
)
from repro.memdag.segments import (
    Segment,
    profile_of_traversal,
    decompose_profile,
    merge_segment_sequences,
)
from repro.memdag.sp_tree import SPTree, sp_decompose, is_series_parallel
from repro.memdag.spize import layered_traversal
from repro.memdag.traversal import (
    best_first_traversal,
    sp_traversal,
    memdag_traversal,
    brute_force_min_peak,
    TraversalResult,
)
from repro.memdag.requirement import block_requirement, RequirementCache

__all__ = [
    "BlockStatics",
    "TraversalState",
    "BlockPackingState",
    "evaluate_traversal",
    "peak_of_traversal",
    "Segment",
    "profile_of_traversal",
    "decompose_profile",
    "merge_segment_sequences",
    "SPTree",
    "sp_decompose",
    "is_series_parallel",
    "layered_traversal",
    "best_first_traversal",
    "sp_traversal",
    "memdag_traversal",
    "brute_force_min_peak",
    "TraversalResult",
    "block_requirement",
    "RequirementCache",
]
